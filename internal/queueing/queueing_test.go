package queueing

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	r := NewRNG(42)
	s1 := r.Split(0)
	r2 := NewRNG(42)
	r2.Uint64() // consume the same draw Split used
	s2 := r2.Split(1)
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams with different indices coincide")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMoments(t *testing.T) {
	r := NewRNG(11)
	const rate, n = 2.5, 400_000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01/rate {
		t.Errorf("exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.05/(rate*rate) {
		t.Errorf("exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestExpInvalidRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestPickProportions(t *testing.T) {
	r := NewRNG(17)
	weights := []float64{1, 2, 0, 7}
	counts := make([]int, len(weights))
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[r.Pick(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[2])
	}
	for i, w := range weights {
		want := w / 10 * n
		if w == 0 {
			continue
		}
		if math.Abs(float64(counts[i])-want) > 0.03*want {
			t.Errorf("index %d drawn %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestPickInvalid(t *testing.T) {
	for _, bad := range [][]float64{{0, 0}, {-1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%v) did not panic", bad)
				}
			}()
			NewRNG(1).Pick(bad)
		}()
	}
}

func TestExponentialDistribution(t *testing.T) {
	e := NewExponential(4)
	if e.Mean() != 0.25 || e.CV() != 1 {
		t.Errorf("exponential mean/cv = %v/%v", e.Mean(), e.CV())
	}
	r := NewRNG(23)
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		sum += e.Sample(r)
	}
	if math.Abs(sum/n-0.25) > 0.005 {
		t.Errorf("sampled mean = %v, want 0.25", sum/n)
	}
}

func TestHyperExponentialMoments(t *testing.T) {
	// The Figure 3.6 / 4.8 arrival model: CV = 1.6.
	h, err := NewHyperExponential(2.0, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if h.Mean() != 2 || h.CV() != 1.6 {
		t.Errorf("configured mean/cv = %v/%v", h.Mean(), h.CV())
	}
	// Analytic check of the balanced-means construction.
	m := h.P1/h.R1 + (1-h.P1)/h.R2
	if math.Abs(m-2) > 1e-12 {
		t.Errorf("analytic mean = %v, want 2", m)
	}
	secondMoment := 2*h.P1/(h.R1*h.R1) + 2*(1-h.P1)/(h.R2*h.R2)
	cv2 := secondMoment/(m*m) - 1
	if math.Abs(math.Sqrt(cv2)-1.6) > 1e-9 {
		t.Errorf("analytic CV = %v, want 1.6", math.Sqrt(cv2))
	}

	r := NewRNG(31)
	var sum, sumSq float64
	const n = 500_000
	for i := 0; i < n; i++ {
		x := h.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	cv := math.Sqrt(sumSq/n-mean*mean) / mean
	if math.Abs(mean-2) > 0.02 {
		t.Errorf("sampled mean = %v, want 2", mean)
	}
	if math.Abs(cv-1.6) > 0.03 {
		t.Errorf("sampled CV = %v, want 1.6", cv)
	}
}

func TestHyperExponentialInvalid(t *testing.T) {
	if _, err := NewHyperExponential(1, 1.0); err == nil {
		t.Error("cv=1 accepted; H2 requires cv > 1")
	}
	if _, err := NewHyperExponential(0, 2); err == nil {
		t.Error("zero mean accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHyperExponential did not panic on invalid input")
		}
	}()
	MustHyperExponential(1, 0.5)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3}
	if d.Sample(nil) != 3 || d.Mean() != 3 || d.CV() != 0 {
		t.Error("deterministic distribution misbehaves")
	}
}

func TestResponseTimeUnstable(t *testing.T) {
	if !math.IsInf(ResponseTime(2, 2), 1) {
		t.Error("response time at boundary should be +Inf")
	}
	if !math.IsInf(ResponseTime(2, 3), 1) {
		t.Error("overloaded response time should be +Inf")
	}
}

func TestSystemResponseTime(t *testing.T) {
	mu := []float64{2, 4}
	lambda := []float64{1, 2}
	// T = (1·1 + 2·0.5)/3 = 2/3
	got := SystemResponseTime(mu, lambda)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("system response time = %v, want 2/3", got)
	}
}

func TestSystemResponseTimeZeroLoad(t *testing.T) {
	if got := SystemResponseTime([]float64{1, 2}, []float64{0, 0}); got != 0 {
		t.Errorf("zero-load system response time = %v, want 0", got)
	}
}

func TestSystemResponseTimeIgnoresIdle(t *testing.T) {
	// An idle unstable-looking station (mu tiny, lambda 0) must not
	// contribute Inf.
	got := SystemResponseTime([]float64{1e-9, 4}, []float64{0, 2})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("got %v, want 0.5", got)
	}
}
