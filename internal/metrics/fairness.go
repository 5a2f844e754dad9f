// Package metrics implements the performance metrics used throughout the
// evaluation: the Jain fairness index (from the jobs' perspective,
// eq. 3.25, and from the users' perspective, eq. 4.10), summary statistics
// with standard errors for replicated simulation runs, and the L∞ norm
// between two load vectors.
package metrics

import "math"

// FairnessIndex computes the Jain fairness index
//
//	I(x) = (Σ x_i)^2 / (n · Σ x_i^2)
//
// over the positive entries of x. The index is 1 when all entries are
// equal ("100% fair") and decreases toward 1/n as the entries diverge.
//
// Entries that are exactly zero are excluded: in the load-balancing
// context a zero entry means "no jobs were processed there" (Chapter 3) or
// "the user sent no jobs" and the paper's index is computed over the
// participating computers/users only. An empty or all-zero vector has
// index 1 by convention (a degenerate system is trivially fair).
func FairnessIndex(x []float64) float64 {
	var sum, sumSq float64
	n := 0
	for _, v := range x {
		if v == 0 {
			continue
		}
		sum += v
		sumSq += v * v
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// LInfNorm returns max|a_i - b_i|.
func LInfNorm(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("metrics: LInfNorm length mismatch")
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
