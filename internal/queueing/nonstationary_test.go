package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiurnalConstructionErrors(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"no segments", func() error { _, err := NewDiurnal(nil, 1); return err }},
		{"zero segment duration", func() error { _, err := NewDiurnal([]float64{1}, 0); return err }},
		{"negative rate", func() error { _, err := NewDiurnal([]float64{1, -2}, 1); return err }},
		{"NaN rate", func() error { _, err := NewDiurnal([]float64{math.NaN()}, 1); return err }},
		{"all-zero rates", func() error { _, err := NewDiurnal([]float64{0, 0}, 1); return err }},
		{"multipliers zero base", func() error { _, err := NewDiurnalFromMultipliers(0, []float64{1}, 1); return err }},
		{"multipliers empty", func() error { _, err := NewDiurnalFromMultipliers(1, nil, 1); return err }},
		{"multipliers all zero", func() error { _, err := NewDiurnalFromMultipliers(1, []float64{0, 0}, 1); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err() == nil {
				t.Error("invalid profile accepted at construction")
			}
		})
	}
}

func TestDiurnalRateAndIntegral(t *testing.T) {
	d, err := NewDiurnal([]float64{2, 0, 6}, 10) // period 30
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Period(); math.Abs(got-30) > 1e-12 {
		t.Errorf("period = %v, want 30", got)
	}
	for _, tc := range []struct{ t, rate, integral float64 }{
		{0, 2, 0},
		{5, 2, 10},
		{10, 0, 20},
		{15, 0, 20},
		{25, 6, 50},
		{30, 2, 80},  // wraps to the first segment
		{65, 2, 170}, // 2 periods (2·80) + Λ(5)=10; phase 5 is segment 0
	} {
		if got := d.Rate(tc.t); math.Abs(got-tc.rate) > 1e-12 {
			t.Errorf("Rate(%g) = %v, want %v", tc.t, got, tc.rate)
		}
		if got := d.CumulativeIntensity(tc.t); math.Abs(got-tc.integral) > 1e-9 {
			t.Errorf("Λ(%g) = %v, want %v", tc.t, got, tc.integral)
		}
	}
	// Mean rate 8/3 per second → mean gap 3/8.
	if got := d.Mean(); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("mean gap = %v, want 0.375", got)
	}
}

func TestDiurnalConstantProfileIsPoisson(t *testing.T) {
	// A flat profile must collapse to a plain Poisson stream: CV 1 and
	// exponential gaps (KS-tested against the Exp closed form).
	d, err := NewDiurnal([]float64{4, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.CV()-1) > 1e-12 {
		t.Errorf("flat profile CV = %v, want 1", d.CV())
	}
	rng := NewRNG(13)
	xs := make([]float64, 20_000)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	ks, err := KSTest(xs, Exponential{Rate: 4}.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if ks.P < 0.01 {
		t.Errorf("flat diurnal gaps reject Exp(4): D=%g p=%g", ks.D, ks.P)
	}
}

// TestDiurnalTimeRescaling is the thinning correctness check: by the
// time-rescaling theorem the transformed arrival times Λ(t_i) of an
// NHPP form a unit-rate Poisson process, so the rescaled gaps must be
// iid Exp(1) — KS-tested against the closed form. This validates the
// sampler against an exact distributional identity rather than just
// first moments.
func TestDiurnalTimeRescaling(t *testing.T) {
	d, err := NewDiurnal([]float64{12, 3, 7, 0.5}, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(17)
	const n = 20_000
	gaps := make([]float64, n)
	prev := 0.0
	now := 0.0
	for i := range gaps {
		now += d.Sample(rng)
		cum := d.CumulativeIntensity(now)
		gaps[i] = cum - prev
		prev = cum
	}
	ks, err := KSTest(gaps, Exponential{Rate: 1}.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if ks.P < 0.01 {
		t.Errorf("rescaled NHPP gaps reject Exp(1): D=%g p=%g (thinning is biased)", ks.D, ks.P)
	}
	// Long-run rate: arrivals per unit time near the time-average rate.
	wantRate := 1 / d.Mean()
	gotRate := float64(n) / now
	if math.Abs(gotRate-wantRate)/wantRate > 0.02 {
		t.Errorf("empirical rate %g, want %g", gotRate, wantRate)
	}
}

func TestDiurnalBurstierThanPoisson(t *testing.T) {
	d, err := NewDiurnalFromMultipliers(10, []float64{0.25, 1.75}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Offered load preserved: time-average rate is the base rate.
	if got := 1 / d.Mean(); math.Abs(got-10) > 1e-9 {
		t.Errorf("normalized mean rate = %v, want 10", got)
	}
	if d.CV() <= 1 {
		t.Errorf("varying profile CV = %v, want > 1", d.CV())
	}
	// Empirical gap CV of a strongly diurnal stream exceeds 1 (bursty).
	rng := NewRNG(23)
	m, err := SampleMoments(sampleN(d, rng, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if cv := math.Sqrt(m.Variance) / m.Mean; cv <= 1.05 {
		t.Errorf("empirical gap CV = %v, want clearly > 1", cv)
	}
}

func sampleN(d Distribution, rng *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

// TestDiurnalForkQuick: forked copies resume from the parent's cursor
// and generate bit-identical streams given identical RNGs — the
// per-replication independence contract the DES worker pool relies on.
func TestDiurnalForkQuick(t *testing.T) {
	prop := func(seed uint64, warm uint8) bool {
		d, err := NewDiurnal([]float64{5, 1, 3}, 2)
		if err != nil {
			return false
		}
		warmRNG := NewRNG(seed)
		for i := 0; i < int(warm%32); i++ {
			d.Sample(warmRNG)
		}
		f1 := d.Fork().(*Diurnal)
		f2 := d.Fork().(*Diurnal)
		if f1.Now() != d.Now() || f2.Now() != d.Now() {
			return false
		}
		a, b := NewRNG(seed+1), NewRNG(seed+1)
		for i := 0; i < 64; i++ {
			if f1.Sample(a) != f2.Sample(b) {
				return false
			}
		}
		// The parent's cursor is untouched by the forks' draws.
		return f1.Now() > d.Now() && f2.Now() == f1.Now()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
