package obs

import (
	"math"
	"testing"

	"gtlb/internal/queueing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, math.Inf(1)}); err == nil {
		t.Error("infinite bound accepted")
	}
	if _, err := NewHistogram([]float64{math.NaN()}); err == nil {
		t.Error("NaN bound accepted")
	}
	if _, err := NewHistogram(DefaultLatencyBounds()); err != nil {
		t.Errorf("default bounds rejected: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // NaN ignored; bounds are inclusive upper edges
	if s.N != 5 {
		t.Errorf("N = %d, want 5 (NaN ignored)", s.N)
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d holds %d, want %d", i, s.Counts[i], w)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
	h, err := NewHistogram([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(10) // overflow bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("overflow-bucket quantile = %g, want last bound 2", got)
	}
	if got := s.Quantile(math.NaN()); got != 0 {
		t.Errorf("NaN quantile = %g", got)
	}
	// Quantile is monotone in q.
	h2, err := NewHistogram(DefaultLatencyBounds())
	if err != nil {
		t.Fatal(err)
	}
	rng := queueing.NewRNG(11)
	for i := 0; i < 300; i++ {
		h2.Observe(rng.Exp(3))
	}
	s2 := h2.Snapshot()
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := s2.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %g after %g", q, cur, prev)
		}
		prev = cur
	}
}
