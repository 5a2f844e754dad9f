// Package numeric provides the small numerical kernels shared by the
// load-balancing solvers: one-dimensional minimization by golden-section
// search, adaptive Simpson quadrature and compensated summation.
//
// The kernels are deliberately dependency-free and deterministic. The
// line searches of the Bayesian, multi-class and bargaining solvers go
// through GoldenMin, the mechanism payments integrate through Simpson,
// and the conservation checks sum through Sum, so that tolerances are
// applied uniformly. The root finders (WARDROP's level search, the LBM
// mechanism's load curve) bisect in place on their own monotone
// closed forms.
package numeric

import "math"

// invPhi is 1/phi where phi is the golden ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenMin minimizes a unimodal function on [a,b] by golden-section
// search and returns the minimizing abscissa to within tol. The function
// may be +Inf on a plateau at either end of the interval (e.g. a
// saturated queueing objective): ties — including Inf/Inf — keep the
// left sub-interval, which preserves convergence for objectives that are
// finite on a prefix of the interval and +Inf beyond.
func GoldenMin(f func(float64) float64, a, b, tol float64) float64 {
	if a > b {
		a, b = b, a
	}
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc <= fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return a + (b-a)/2
}

// Simpson integrates f on [a,b] using adaptive Simpson quadrature with the
// absolute tolerance tol. It is exact for cubics and converges quickly for
// the piecewise-smooth decreasing load curves used by the payment schemes.
func Simpson(f func(float64) float64, a, b, tol float64) float64 {
	//lint:ignore floatcmp a == b is the exact empty-interval guard
	if a == b {
		return 0
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	fa, fb := f(a), f(b)
	m, fm, whole := simpsonStep(f, a, b, fa, fb)
	return sign * adaptiveSimpson(f, a, b, fa, fb, m, fm, whole, tol, 50)
}

// simpsonStep evaluates one Simpson rule on [a,b] returning the midpoint,
// f(midpoint) and the rule value.
func simpsonStep(f func(float64) float64, a, b, fa, fb float64) (m, fm, s float64) {
	m = a + (b-a)/2
	fm = f(m)
	s = (b - a) / 6 * (fa + 4*fm + fb)
	return m, fm, s
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, m, fm, whole, tol float64, depth int) float64 {
	lm, flm, left := simpsonStep(f, a, m, fa, fm)
	rm, frm, right := simpsonStep(f, m, b, fm, fb)
	delta := left + right - whole
	if depth <= 0 || math.Abs(delta) <= 15*tol {
		return left + right + delta/15
	}
	return adaptiveSimpson(f, a, m, fa, fm, lm, flm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, fb, rm, frm, right, tol/2, depth-1)
}

// Sum returns the compensated (Neumaier/Kahan–Babuška) sum of xs.
// Allocation vectors mix magnitudes across several orders of magnitude
// (fast vs slow computers), so the conservation checks use compensated
// summation to keep the verification tolerances tight.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			c += (sum - t) + x
		} else {
			c += (x - t) + sum
		}
		sum = t
	}
	return sum + c
}

// AlmostEqual reports whether a and b agree to within tol either
// absolutely or relative to the larger magnitude.
func AlmostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
