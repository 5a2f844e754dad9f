package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gtlb/internal/des"
	"gtlb/internal/queueing"
)

func TestGenerateMoments(t *testing.T) {
	rng := queueing.NewRNG(1)
	tr, err := Generate(queueing.NewExponential(2), 100_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Jobs() != 100_000 {
		t.Fatalf("jobs = %d", tr.Jobs())
	}
	if math.Abs(tr.Mean()-0.5) > 0.01 {
		t.Errorf("mean = %v, want 0.5", tr.Mean())
	}
	if math.Abs(tr.CV()-1) > 0.02 {
		t.Errorf("cv = %v, want ~1", tr.CV())
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := queueing.NewRNG(1)
	if _, err := Generate(queueing.NewExponential(1), 0, rng); err == nil {
		t.Error("zero jobs accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := queueing.NewRNG(5)
	orig, err := Generate(queueing.MustHyperExponential(0.1, 1.6), 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	orig.Users = make([]int, orig.Jobs())
	for i := range orig.Users {
		orig.Users[i] = rng.Pick([]float64{0.5, 0.5})
	}
	orig.Description = "test trace"
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Description != "test trace" || loaded.Jobs() != 500 {
		t.Errorf("round trip lost data: %q, %d jobs", loaded.Description, loaded.Jobs())
	}
	for i := range orig.InterArrivals {
		if loaded.InterArrivals[i] != orig.InterArrivals[i] || loaded.Users[i] != orig.Users[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage loaded")
	}
	if _, err := Load(strings.NewReader(`{"inter_arrivals":[]}`)); err == nil {
		t.Error("empty trace loaded")
	}
	if _, err := Load(strings.NewReader(`{"inter_arrivals":[1,-2]}`)); err == nil {
		t.Error("negative gap loaded")
	}
	if _, err := Load(strings.NewReader(`{"inter_arrivals":[1],"users":[0,1]}`)); err == nil {
		t.Error("mismatched user tags loaded")
	}
	if _, err := Load(strings.NewReader(`{"inter_arrivals":[1],"users":[-1]}`)); err == nil {
		t.Error("negative user loaded")
	}
}

func TestReplayCycles(t *testing.T) {
	tr := Trace{InterArrivals: []float64{1, 2, 3}}
	r, err := NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for i := 0; i < 7; i++ {
		got = append(got, r.Sample(nil))
	}
	want := []float64{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
	if r.Cycles() != 2 {
		t.Errorf("cycles = %d, want 2", r.Cycles())
	}
}

func TestNewReplayValidates(t *testing.T) {
	if _, err := NewReplay(Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestReplayDrivesSimulator: the same trace replayed twice through the
// DES gives byte-identical results, and the measured response time
// matches the trace's rate analytically.
func TestReplayDrivesSimulator(t *testing.T) {
	rng := queueing.NewRNG(11)
	tr, err := Generate(queueing.NewExponential(1), 200_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() des.Result {
		rep, err := NewReplay(tr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := des.Run(des.Config{
			Mu:           []float64{2},
			InterArrival: rep,
			Routing:      [][]float64{{1}},
			Horizon:      50_000,
			Warmup:       1_000,
			Seed:         9,
			Replications: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles() > 0 {
			t.Fatalf("horizon outran the %d-job trace", tr.Jobs())
		}
		return res
	}
	a := run()
	b := run()
	if a.Overall.Mean != b.Overall.Mean || a.Jobs != b.Jobs {
		t.Error("trace replay is not deterministic")
	}
	// M/M/1 at rho=0.5: E[T] = 1.
	if math.Abs(a.Overall.Mean-1.0) > 0.05 {
		t.Errorf("replayed M/M/1 response = %v, want ~1", a.Overall.Mean)
	}
}

// TestHeavyTailTraceRoundTrip is the satellite's generate → save →
// load → replay loop over every new generator: the replayed stream
// must reproduce the recorded summary statistics exactly (same gaps,
// so identical mean and CV), and the recorded moments must sit near
// the generating distribution's analytic values.
func TestHeavyTailTraceRoundTrip(t *testing.T) {
	mk := func(d queueing.Distribution, err error) queueing.Distribution {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		dist queueing.Distribution
	}{
		{"pareto", mk(queueing.NewParetoFromMean(0.01, 2.5))},
		{"weibull", mk(queueing.NewWeibullFromMean(0.01, 0.7))},
		{"lognormal", mk(queueing.NewLognormalFromMeanCV(0.01, 2))},
		{"diurnal", mk(queueing.NewDiurnalFromMultipliers(100, []float64{0.5, 1.5}, 10))},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const n = 50_000
			orig, err := Generate(tc.dist, n, queueing.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := orig.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := NewReplay(loaded)
			if err != nil {
				t.Fatal(err)
			}
			var sum, sq float64
			for i := 0; i < n; i++ {
				g := rep.Sample(nil)
				if g != orig.InterArrivals[i] {
					t.Fatalf("replayed gap %d differs from recording", i)
				}
				sum += g
				d := g - orig.Mean()
				sq += d * d
			}
			mean := sum / n
			cv := math.Sqrt(sq/(n-1)) / mean
			if math.Abs(mean-orig.Mean()) > 1e-12*orig.Mean() {
				t.Errorf("replayed mean %v, recorded %v", mean, orig.Mean())
			}
			if math.Abs(cv-orig.CV()) > 1e-9 {
				t.Errorf("replayed CV %v, recorded %v", cv, orig.CV())
			}
			// The recording reflects its generator: mean within 5%.
			if math.Abs(orig.Mean()-tc.dist.Mean())/tc.dist.Mean() > 0.05 {
				t.Errorf("recorded mean %v far from generator mean %v", orig.Mean(), tc.dist.Mean())
			}
		})
	}
}
