package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLSTExponentialIdentity(t *testing.T) {
	e := NewExponential(3)
	// Â(0) = 1, Â'(0) = -mean.
	if got := e.LST(0); math.Abs(got-1) > 1e-15 {
		t.Errorf("LST(0) = %v, want 1", got)
	}
	h := 1e-6
	deriv := (e.LST(h) - e.LST(0)) / h
	if math.Abs(deriv+e.Mean()) > 1e-4 {
		t.Errorf("LST'(0) = %v, want -mean = %v", deriv, -e.Mean())
	}
}

func TestLSTHyperExponential(t *testing.T) {
	hd := MustHyperExponential(2, 1.6)
	if got := hd.LST(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("LST(0) = %v, want 1", got)
	}
	h := 1e-6
	deriv := (hd.LST(h) - hd.LST(0)) / h
	if math.Abs(deriv+2) > 1e-4 {
		t.Errorf("LST'(0) = %v, want -2", deriv)
	}
}

// TestGIM1CollapsesToMM1: with exponential arrivals, σ = ρ and the
// response time is 1/(μ-λ).
func TestGIM1CollapsesToMM1(t *testing.T) {
	arr := NewExponential(3)
	sigma, err := GIM1Sigma(arr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sigma-0.6) > 1e-12 {
		t.Errorf("sigma = %v, want rho = 0.6", sigma)
	}
	rt, err := GIM1ResponseTime(arr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt-0.5) > 1e-12 {
		t.Errorf("GI/M/1 response = %v, want M/M/1 value 0.5", rt)
	}
}

func TestGIM1CollapsesToMM1Quick(t *testing.T) {
	prop := func(a, b float64) bool {
		mu := math.Abs(math.Mod(a, 50)) + 0.5
		rho := math.Abs(math.Mod(b, 0.95))
		if rho == 0 {
			return true
		}
		arr := NewExponential(rho * mu)
		rt, err := GIM1ResponseTime(arr, mu)
		if err != nil {
			return false
		}
		return math.Abs(rt-1/(mu-rho*mu)) < 1e-9*(1+rt)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestGIM1BurstyWorse: CV > 1 arrivals must have a longer response time
// than Poisson at the same rate — the analytic content of Figure 3.6.
func TestGIM1BurstyWorse(t *testing.T) {
	const mu = 2.0
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		lambda := rho * mu
		h2 := MustHyperExponential(1/lambda, 1.6)
		bursty, err := GIM1ResponseTime(h2, mu)
		if err != nil {
			t.Fatal(err)
		}
		poisson := ResponseTime(mu, lambda)
		if bursty <= poisson {
			t.Errorf("rho=%.1f: H2 response %v not above Poisson %v", rho, bursty, poisson)
		}
	}
}

// TestGIM1MatchesSimulation closes the loop: the DES engine fed by H2
// arrivals must reproduce the GI/M/1 closed form.
func TestGIM1MatchesSimulation(t *testing.T) {
	const mu, lambda, cv = 2.0, 1.2, 1.6
	h2 := MustHyperExponential(1/lambda, cv)
	want, err := GIM1ResponseTime(h2, mu)
	if err != nil {
		t.Fatal(err)
	}

	// Minimal single-queue simulation using the package's own RNG (the
	// full engine lives in internal/des which depends on this package).
	rng := NewRNG(99)
	var clock, busyUntil, totalRT float64
	n := 0
	const jobs = 400_000
	for i := 0; i < jobs; i++ {
		clock += h2.Sample(rng)
		start := clock
		if busyUntil > clock {
			start = busyUntil
		}
		done := start + rng.Exp(mu)
		busyUntil = done
		if i > 10_000 { // warm-up
			totalRT += done - clock
			n++
		}
	}
	got := totalRT / float64(n)
	if math.Abs(got-want) > 0.03*want {
		t.Errorf("simulated GI/M/1 response %v, closed form %v", got, want)
	}
}

func TestGIM1Unstable(t *testing.T) {
	if _, err := GIM1Sigma(NewExponential(5), 5); err == nil {
		t.Error("boundary rate accepted")
	}
	if _, err := GIM1Sigma(NewExponential(5), 0); err == nil {
		t.Error("zero service rate accepted")
	}
}
