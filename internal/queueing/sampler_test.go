package queueing

import (
	"math"
	"testing"
)

// checkProportions draws n samples and verifies the empirical frequency
// of every index against its weight, and that zero-weight indices are
// never drawn.
func checkProportions(t *testing.T, name string, weights []float64, draw func(*RNG) int) {
	t.Helper()
	r := NewRNG(17)
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	const n = 200_000
	for i := 0; i < n; i++ {
		v := draw(r)
		if v < 0 || v >= len(weights) {
			t.Fatalf("%s: index %d out of range", name, v)
		}
		counts[v]++
	}
	for i, w := range weights {
		if w == 0 {
			if counts[i] != 0 {
				t.Errorf("%s: zero-weight index %d drawn %d times", name, i, counts[i])
			}
			continue
		}
		want := w / total * n
		if math.Abs(float64(counts[i])-want) > 0.03*want+50 {
			t.Errorf("%s: index %d drawn %d times, want ~%.0f", name, i, counts[i], want)
		}
	}
}

func TestAliasSamplerProportions(t *testing.T) {
	t.Parallel()
	for _, weights := range [][]float64{
		{1, 2, 0, 7},
		{1},
		{0.25, 0.25, 0.25, 0.25},
		{1e-6, 1, 1e6},
		{0, 0, 1, 0},
	} {
		a, err := NewAliasSampler(weights)
		if err != nil {
			t.Fatalf("NewAliasSampler(%v): %v", weights, err)
		}
		checkProportions(t, "alias", weights, a.Sample)
	}
}

func TestSamplerInvalidWeights(t *testing.T) {
	t.Parallel()
	bad := [][]float64{
		{},
		{0, 0},
		{-1, 2},
		{math.NaN(), 1},
		{math.Inf(1)},
	}
	for _, weights := range bad {
		if _, err := NewAliasSampler(weights); err == nil {
			t.Errorf("NewAliasSampler(%v) accepted invalid weights", weights)
		}
	}
}

// TestAliasSamplerOneDrawPerSample pins the draw-count discipline the
// DES determinism contract depends on: every Sample consumes exactly one
// Float64 (one Uint64) from the stream, regardless of outcome.
func TestAliasSamplerOneDrawPerSample(t *testing.T) {
	t.Parallel()
	a, err := NewAliasSampler([]float64{0.1, 0.6, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRNG(5)
	r2 := NewRNG(5)
	for i := 0; i < 1_000; i++ {
		a.Sample(r1)
		r2.Uint64()
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("draw %d: Sample consumed more or less than one Uint64", i)
		}
		r1 = NewRNG(uint64(i))
		r2 = NewRNG(uint64(i))
	}
}

// TestAliasMatchesPickDistribution: the alias table and the linear-scan
// Pick realize the same categorical distribution (not the same draws —
// the mapping from uniforms to indices differs by design).
func TestAliasMatchesPickDistribution(t *testing.T) {
	t.Parallel()
	weights := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	a, err := NewAliasSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300_000
	aliasCounts := make([]float64, len(weights))
	pickCounts := make([]float64, len(weights))
	ra, rp := NewRNG(2), NewRNG(3)
	for i := 0; i < n; i++ {
		aliasCounts[a.Sample(ra)]++
		pickCounts[rp.Pick(weights)]++
	}
	for i := range weights {
		diff := math.Abs(aliasCounts[i]-pickCounts[i]) / n
		if diff > 0.01 {
			t.Errorf("index %d: alias freq %.4f vs pick freq %.4f", i, aliasCounts[i]/n, pickCounts[i]/n)
		}
	}
}

// TestIntnNoModuloBias targets the bound where the old Uint64()%n
// implementation was measurably skewed: for n = 3·2^61, 2^64 mod n is
// 2n/3, so the low two-thirds of the range received 3 preimages against
// 2 elsewhere, dragging the mean to ≈0.458n. Lemire rejection restores
// 0.5n.
func TestIntnNoModuloBias(t *testing.T) {
	t.Parallel()
	const n = 3 << 61
	r := NewRNG(29)
	var sum float64
	const draws = 200_000
	for i := 0; i < draws; i++ {
		sum += float64(r.Intn(n))
	}
	mean := sum / draws
	want := float64(n) / 2
	// SE of the sample mean is n/sqrt(12·draws) ≈ 0.00065n; 1% of n is
	// >15σ, while the modulo bias displaces the mean by 4.2% of n.
	if math.Abs(mean-want) > 0.01*float64(n) {
		t.Errorf("Intn(3<<61) mean = %.4g, want %.4g (modulo bias?)", mean, want)
	}
}

// TestIntnUniformSmall complements the large-bound test with a per-bucket
// frequency check at a small non-power-of-two bound.
func TestIntnUniformSmall(t *testing.T) {
	t.Parallel()
	r := NewRNG(41)
	const n, draws = 7, 140_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.03*want {
			t.Errorf("Intn(%d) bucket %d: %d draws, want ~%.0f", n, i, c, want)
		}
	}
}
