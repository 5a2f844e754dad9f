package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenMin(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 10, 1e-9)
	if math.Abs(x-3) > 1e-7 {
		t.Errorf("GoldenMin = %v, want 3", x)
	}
}

func TestGoldenMinReversedInterval(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return math.Abs(x + 2) }, 0, -5, 1e-9)
	if math.Abs(x+2) > 1e-7 {
		t.Errorf("GoldenMin = %v, want -2", x)
	}
}

func TestSimpsonPolynomial(t *testing.T) {
	// Exact for cubics.
	got := Simpson(func(x float64) float64 { return x*x*x - 2*x + 1 }, 0, 2, 1e-12)
	want := 4.0 - 4.0 + 2.0
	if math.Abs(got-want) > 1e-10 {
		t.Errorf("Simpson = %v, want %v", got, want)
	}
}

func TestSimpsonTranscendental(t *testing.T) {
	got := Simpson(math.Exp, 0, 1, 1e-12)
	want := math.E - 1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Simpson = %v, want %v", got, want)
	}
}

func TestSimpsonReversedLimits(t *testing.T) {
	got := Simpson(math.Exp, 1, 0, 1e-12)
	want := -(math.E - 1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Simpson = %v, want %v", got, want)
	}
}

func TestSimpsonZeroWidth(t *testing.T) {
	if got := Simpson(math.Exp, 1, 1, 1e-12); got != 0 {
		t.Errorf("Simpson over empty interval = %v, want 0", got)
	}
}

func TestSimpsonPiecewise(t *testing.T) {
	// Decreasing piecewise-linear curve like a mechanism load curve.
	f := func(x float64) float64 {
		if x > 2 {
			return 0
		}
		return 2 - x
	}
	got := Simpson(f, 0, 4, 1e-10)
	if math.Abs(got-2) > 1e-6 {
		t.Errorf("Simpson piecewise = %v, want 2", got)
	}
}

func TestSumCompensated(t *testing.T) {
	// A sum that plain accumulation gets wrong in the last bits.
	xs := make([]float64, 0, 3000)
	for i := 0; i < 1000; i++ {
		xs = append(xs, 1e16, 1.0, -1e16)
	}
	if got := Sum(xs); got != 1000 {
		t.Errorf("Sum = %v, want 1000", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1e9, 1e9+1, 1e-8) {
		t.Error("relative comparison failed")
	}
	if AlmostEqual(1, 2, 1e-8) {
		t.Error("distinct values compared equal")
	}
	if !AlmostEqual(0, 1e-13, 1e-12) {
		t.Error("absolute comparison near zero failed")
	}
}

func TestSimpsonQuickQuadratic(t *testing.T) {
	// Property: Simpson is exact (to tolerance) for quadratics ax²+bx+c.
	prop := func(a, b, c float64) bool {
		a = math.Mod(a, 5)
		b = math.Mod(b, 5)
		c = math.Mod(c, 5)
		f := func(x float64) float64 { return a*x*x + b*x + c }
		got := Simpson(f, -1, 3, 1e-12)
		want := a/3*(27+1) + b/2*(9-1) + c*4
		return math.Abs(got-want) <= 1e-8*(1+math.Abs(want))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenMinInfPlateau(t *testing.T) {
	// Objective finite and decreasing on [0, 0.2], +Inf beyond — the
	// shape of a queueing line search toward a saturating vertex. The
	// minimizer is just left of 0.2.
	f := func(x float64) float64 {
		if x > 0.2 {
			return math.Inf(1)
		}
		return 1 / (x + 0.01) // decreasing toward the plateau edge
	}
	x := GoldenMin(f, 0, 1, 1e-9)
	if math.IsInf(f(x), 1) {
		t.Fatalf("GoldenMin returned %v inside the +Inf plateau", x)
	}
	if x < 0.15 {
		t.Errorf("GoldenMin = %v, want close to 0.2", x)
	}
}

func TestGoldenMinLeftInfPlateau(t *testing.T) {
	f := func(x float64) float64 {
		if x < 0.5 {
			return math.Inf(1)
		}
		return (x - 0.7) * (x - 0.7)
	}
	x := GoldenMin(f, 0, 1, 1e-9)
	if math.Abs(x-0.7) > 1e-6 {
		t.Errorf("GoldenMin = %v, want 0.7", x)
	}
}
