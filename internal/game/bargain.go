// Package game holds the game-level solvers that sit beside the closed
// forms: a generic two-player Nash Bargaining Solution solver used to
// cross-check internal/core, the warm-started COOP re-solve, and the
// in-process sharded best-reply oracle for the distributed NASH runtime.
package game

import (
	"errors"

	"gtlb/internal/numeric"
)

// Bargain2 solves a two-player Nash bargaining problem over a
// one-dimensional resource split: player 1 receives x ∈ [A, B] of the
// resource and the players' objective values are f1(x) and f2(x), both
// concave, with disagreement point (d1, d2). The NBS maximizes the Nash
// product (f1(x)−d1)(f2(x)−d2) over the x where both factors are
// positive (Theorem 3.1 restricted to two players and a segment-shaped
// feasible set).
//
// This solver is deliberately independent of the closed forms in
// internal/core; the tests use it to cross-check the COOP algorithm on
// two-computer systems.
func Bargain2(f1, f2 func(float64) float64, d1, d2, a, b float64) (float64, error) {
	if a > b {
		a, b = b, a
	}
	product := func(x float64) float64 {
		g1 := f1(x) - d1
		g2 := f2(x) - d2
		if g1 <= 0 || g2 <= 0 {
			return 0
		}
		return g1 * g2
	}
	// The Nash product of concave factors is log-concave, hence unimodal
	// on the segment; golden-section finds its maximizer.
	x := numeric.GoldenMin(func(x float64) float64 { return -product(x) }, a, b, 1e-12*(1+b-a))
	if product(x) <= 0 {
		return 0, errors.New("game: no point improves on the disagreement outcome")
	}
	return x, nil
}
