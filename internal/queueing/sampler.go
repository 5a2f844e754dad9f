package queueing

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the precomputed categorical samplers the simulator's
// hot path draws from. RNG.Pick re-validates and re-sums its weight
// slice on every call — fine for one-off draws, O(n) waste when the same
// distribution is sampled millions of times. The replacement is
// AliasSampler: Walker's alias method (as popularized for discrete-event
// simulation by Sim++ and its successors). O(n) to build, O(1) per draw,
// exactly one Float64 consumed per draw. It is immutable after
// construction and therefore safe to share across goroutines (each draw
// mutates only the caller's RNG).

func validateWeights(weights []float64) (total float64, err error) {
	if len(weights) == 0 {
		return 0, errors.New("queueing: sampler requires at least one weight")
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, fmt.Errorf("queueing: sampler weight %d invalid: %g", i, w)
		}
		total += w
	}
	if total <= 0 {
		return 0, errors.New("queueing: sampler requires a positive weight sum")
	}
	return total, nil
}

// AliasSampler draws an index i with probability weights[i]/Σweights in
// O(1) using Walker's alias method. Construction is deterministic (no
// RNG involved) and each Sample consumes exactly one Float64 from the
// stream — the draw-count discipline the simulator's determinism
// contract documents.
type AliasSampler struct {
	// prob[i] is the acceptance threshold of column i in [0,1]; alias[i]
	// is the index drawn when the column's coin flip rejects.
	prob  []float64
	alias []int32
}

// NewAliasSampler builds the alias table for the given weights. Weights
// must be non-negative, finite, and sum to a positive value. Indices
// with zero weight are never drawn.
func NewAliasSampler(weights []float64) (*AliasSampler, error) {
	total, err := validateWeights(weights)
	if err != nil {
		return nil, err
	}
	n := len(weights)
	a := &AliasSampler{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Vose's stable construction: scale weights so they average 1, then
	// repeatedly pair an under-full column with an over-full one. The
	// work lists are index-ordered stacks, so the table (and every draw
	// made from it) is a pure function of the weight slice.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	firstPositive := int32(-1)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if w > 0 && firstPositive < 0 {
			firstPositive = int32(i)
		}
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers hold (up to rounding) exactly probability mass 1 each.
	for _, l := range large {
		a.prob[l] = 1
		a.alias[l] = l
	}
	for _, s := range small {
		if weights[s] > 0 {
			a.prob[s] = 1
			a.alias[s] = s
		} else {
			// A zero-weight column can only land here through float
			// rounding; keep it undrawable by aliasing all its mass to
			// a positive-weight column.
			a.prob[s] = 0
			a.alias[s] = firstPositive
		}
	}
	return a, nil
}

// Sample draws one index, consuming exactly one Float64 from r: the
// integer part of u·n selects the column, the fractional part runs the
// column's biased coin. The fractional split costs at most one part in
// 2^53 of uniformity per draw — far below the simulator's statistical
// resolution.
//
//lb:hotpath
func (a *AliasSampler) Sample(r *RNG) int {
	u := r.Float64() * float64(len(a.prob))
	i := int(u)
	if i >= len(a.prob) { // rounding guard: Float64 < 1 but u may round up
		i = len(a.prob) - 1
	}
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
