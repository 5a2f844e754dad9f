package game

import (
	"math"
	"testing"
	"testing/quick"

	"gtlb/internal/core"
)

// TestBargain2MatchesCOOP cross-checks the generic bargaining solver
// against the COOP closed form on two-computer systems.
func TestBargain2MatchesCOOP(t *testing.T) {
	cases := []struct {
		mu1, mu2, phi float64
	}{
		{4, 4, 5},
		{10, 2, 6},
		{7, 3, 1},
	}
	for _, c := range cases {
		sys, err := core.NewSystem([]float64{c.mu1, c.mu2}, c.phi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.COOP(sys)
		if err != nil {
			t.Fatal(err)
		}
		lo := math.Max(0, c.phi-c.mu2)
		hi := math.Min(c.phi, c.mu1)
		x, err := Bargain2(
			func(x float64) float64 { return c.mu1 - x },
			func(x float64) float64 { return c.mu2 - (c.phi - x) },
			0, 0, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-want.Lambda[0]) > 1e-6*(1+want.Lambda[0]) {
			t.Errorf("mu=(%g,%g) phi=%g: bargain %v, COOP %v", c.mu1, c.mu2, c.phi, x, want.Lambda[0])
		}
	}
}

func TestBargain2Quick(t *testing.T) {
	prop := func(a, b, load float64) bool {
		mu1 := math.Abs(math.Mod(a, 20)) + 0.5
		mu2 := math.Abs(math.Mod(b, 20)) + 0.5
		f := math.Abs(math.Mod(load, 1))
		phi := f * 0.95 * (mu1 + mu2)
		if phi <= 0 {
			return true
		}
		sys, err := core.NewSystem([]float64{mu1, mu2}, phi)
		if err != nil {
			return true
		}
		want, err := core.COOP(sys)
		if err != nil {
			return false
		}
		lo := math.Max(0, phi-mu2)
		hi := math.Min(phi, mu1)
		x, err := Bargain2(
			func(x float64) float64 { return mu1 - x },
			func(x float64) float64 { return mu2 - (phi - x) },
			0, 0, lo, hi)
		if err != nil {
			// Degenerate: one computer infeasible — COOP will have
			// dropped somebody; accept.
			return want.NumUsed() < 2
		}
		return math.Abs(x-want.Lambda[0]) <= 1e-5*(1+want.Lambda[0])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBargain2NoImprovement(t *testing.T) {
	// Disagreement point already at the frontier: no x improves both.
	_, err := Bargain2(
		func(x float64) float64 { return x },
		func(x float64) float64 { return 1 - x },
		1, 1, 0, 1)
	if err == nil {
		t.Error("expected an error when nothing improves the disagreement point")
	}
}
