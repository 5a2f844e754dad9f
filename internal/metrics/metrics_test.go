package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFairnessIndexEqual(t *testing.T) {
	if got := FairnessIndex([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-15 {
		t.Errorf("equal vector: index = %v, want 1", got)
	}
}

func TestFairnessIndexSkewed(t *testing.T) {
	// One dominant entry among n drives the index toward 1/n.
	x := []float64{100, 1e-9, 1e-9, 1e-9}
	got := FairnessIndex(x)
	if got > 0.26 || got < 0.24 {
		t.Errorf("skewed vector: index = %v, want ~0.25", got)
	}
}

func TestFairnessIndexIgnoresZeros(t *testing.T) {
	// Zero entries mean "not participating" and must not distort the index.
	if got := FairnessIndex([]float64{5, 5, 0, 0}); math.Abs(got-1) > 1e-15 {
		t.Errorf("index with zeros = %v, want 1", got)
	}
}

func TestFairnessIndexEmpty(t *testing.T) {
	if got := FairnessIndex(nil); got != 1 {
		t.Errorf("empty vector: index = %v, want 1", got)
	}
	if got := FairnessIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero vector: index = %v, want 1", got)
	}
}

// TestFairnessPaperPROP checks the constant quoted in §3.4.2: the PROP
// scheme on the Table 3.1 configuration has fairness index 0.731
// regardless of load, because execution times are proportional to 1/μ_i.
func TestFairnessPaperPROP(t *testing.T) {
	mu := []float64{
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.065, 0.065, 0.065,
		0.13, 0.13,
	}
	times := make([]float64, len(mu))
	for i, m := range mu {
		times[i] = 1 / m // any common factor cancels in the index
	}
	got := FairnessIndex(times)
	if math.Abs(got-0.731) > 5e-4 {
		t.Errorf("PROP fairness index = %.4f, want 0.731 (paper §3.4.2)", got)
	}
}

func TestFairnessIndexBounds(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			a := math.Abs(v)
			// Keep magnitudes where Σx and Σx² stay finite.
			if a != 0 && a < 1e120 && !math.IsNaN(a) {
				xs = append(xs, a)
			}
		}
		if len(xs) == 0 {
			return true
		}
		idx := FairnessIndex(xs)
		return idx >= 1/float64(len(xs))-1e-12 && idx <= 1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFairnessScaleInvariant(t *testing.T) {
	prop := func(raw []float64, scale float64) bool {
		scale = math.Abs(scale)
		if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v > 0 && v < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = v * scale
			if math.IsInf(scaled[i], 0) {
				return true
			}
		}
		a, b := FairnessIndex(xs), FairnessIndex(scaled)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLInfNorm(t *testing.T) {
	got := LInfNorm([]float64{1, 2, 3}, []float64{2, 0, 3})
	if got != 2 {
		t.Errorf("LInfNorm = %v, want 2", got)
	}
}

func TestNormMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LInfNorm with mismatched lengths did not panic")
		}
	}()
	LInfNorm([]float64{1}, []float64{1, 2})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("Summarize mean = %v (n=%d), want 5 (n=8)", s.Mean, s.N)
	}
	if math.Abs(s.Var-32.0/7.0) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var, 32.0/7.0)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdErr != 0 {
		t.Errorf("empty summary = %+v, want zero value", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Var != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestAccumulatorMatchesSummarize(t *testing.T) {
	xs := []float64{1.5, -2, 7, 3.25, 0, 11, -4.5}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	want := Summarize(xs)
	got := acc.Summary()
	if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 ||
		math.Abs(got.Var-want.Var) > 1e-9 || got.Min != want.Min || got.Max != want.Max {
		t.Errorf("accumulator summary %+v != batch summary %+v", got, want)
	}
}

func TestAccumulatorMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	var a, b Accumulator
	for _, x := range xs[:4] {
		a.Add(x)
	}
	for _, x := range xs[4:] {
		b.Add(x)
	}
	a.Merge(&b)
	want := Summarize(xs)
	got := a.Summary()
	if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.Var-want.Var) > 1e-9 {
		t.Errorf("merged %+v != batch %+v", got, want)
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 5 {
		t.Errorf("merge with empty changed state: %+v", a.Summary())
	}
	var c Accumulator
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 5 {
		t.Errorf("merge into empty: %+v", c.Summary())
	}
}

func TestConfidenceInterval(t *testing.T) {
	s := Summary{N: 100, Mean: 10, StdErr: 0.5}
	if got := s.RelativeError(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelativeError = %v, want 0.05", got)
	}
	if (Summary{}).RelativeError() != 0 {
		t.Error("RelativeError of zero summary should be 0")
	}
}
