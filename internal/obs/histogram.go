package obs

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket latency histogram. The bucket layout is
// immutable after construction, and every quantile estimate depends
// only on counts and bounds, so a histogram shared across replications
// answers quantile queries the same at any worker count.
//
// Histogram is not safe for concurrent use on its own; the Registry
// serializes access with its mutex.
type Histogram struct {
	// bounds are the strictly increasing finite upper bounds; bucket i
	// holds observations v with v <= bounds[i] (first matching bucket).
	// One implicit overflow bucket catches everything above the last
	// bound, so len(counts) == len(bounds)+1.
	bounds []float64
	counts []uint64
	n      uint64
	sum    float64
}

// DefaultLatencyBounds is the bucket layout the Registry uses for
// response-time histograms: log-spaced from 100 microseconds to 100
// virtual seconds, covering the paper's Chapter 3 experiments (expected
// response times of 0.05–0.4 s) with resolution on both tails.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 0, 25)
	for e := -4; e <= 2; e++ {
		scale := math.Pow(10, float64(e))
		for _, m := range []float64{1, 2, 5} {
			bounds = append(bounds, m*scale)
		}
	}
	return bounds
}

// NewHistogram returns a histogram over the given strictly increasing
// finite upper bounds, plus an implicit +Inf overflow bucket.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("obs: histogram bound %d is not finite", i)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d", i)
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	return h, nil
}

// Observe records one value. NaN is ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.n++
	h.sum += v
}

// Snapshot returns a copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		N:      h.n,
		Sum:    h.sum,
	}
}

// HistogramSnapshot is an immutable copy of a histogram: the shared
// bucket bounds, per-bucket counts (the last entry is the overflow
// bucket), and the observation count and sum.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	N      uint64
	Sum    float64
}

// Mean returns the mean of the observed values, or 0 with no
// observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank. The estimate
// is a pure function of bounds and counts. With no observations it
// returns 0; ranks falling in the overflow bucket return the last
// finite bound (the histogram cannot resolve beyond it).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.N == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.N)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i == len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}
