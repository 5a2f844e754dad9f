package des

import (
	"math"
	"testing"

	"gtlb/internal/queueing"
)

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	good := Config{
		Mu:           []float64{2},
		InterArrival: queueing.NewExponential(1),
		Routing:      [][]float64{{1}},
		Horizon:      10,
	}
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no computers", func(c *Config) { c.Mu = nil }},
		{"bad rate", func(c *Config) { c.Mu = []float64{0} }},
		{"no arrivals", func(c *Config) { c.InterArrival = nil }},
		{"no routing", func(c *Config) { c.Routing = nil }},
		{"row width", func(c *Config) { c.Routing = [][]float64{{0.5, 0.5}} }},
		{"negative fraction", func(c *Config) { c.Routing = [][]float64{{-1}} }},
		{"routes nowhere", func(c *Config) { c.Routing = [][]float64{{0}} }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"warmup past horizon", func(c *Config) { c.Warmup = 10 }},
		{"multi-user no share", func(c *Config) { c.Routing = [][]float64{{1}, {1}} }},
		{"share mismatch", func(c *Config) { c.UserShare = []float64{0.5, 0.5} }},
		{"service length mismatch", func(c *Config) {
			c.Service = make([]queueing.Distribution, 2)
		}},
	}
	for _, cse := range cases {
		c := good
		cse.mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: invalid config accepted", cse.name)
		}
	}
}

// TestMM1ClosedForm validates the simulator against the M/M/1 response
// time 1/(mu-lambda): a single computer at rho=0.5 must measure ~1/(2-1).
func TestMM1ClosedForm(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{2},
		InterArrival: queueing.NewExponential(1),
		Routing:      [][]float64{{1}},
		Horizon:      50_000,
		Warmup:       1_000,
		Seed:         1,
		Replications: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	if math.Abs(res.Overall.Mean-want) > 0.05 {
		t.Errorf("simulated M/M/1 response time = %v, want %v ± 0.05", res.Overall.Mean, want)
	}
	if res.Overall.RelativeError() > 0.05 {
		t.Errorf("relative error %v exceeds the paper's 5%% bound", res.Overall.RelativeError())
	}
	if res.Jobs < 100_000 {
		t.Errorf("only %d jobs simulated", res.Jobs)
	}
}

// TestTwoServerSplit validates probabilistic routing: two identical
// computers each fed half the stream behave as two independent M/M/1s.
func TestTwoServerSplit(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{4, 4},
		InterArrival: queueing.NewExponential(4),
		Routing:      [][]float64{{0.5, 0.5}},
		Horizon:      20_000,
		Warmup:       500,
		Seed:         7,
		Replications: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 // 1/(4-2)
	for i, s := range res.PerComputer {
		if math.Abs(s.Mean-want) > 0.04 {
			t.Errorf("computer %d response time = %v, want %v", i, s.Mean, want)
		}
	}
}

// TestHeterogeneousCOOPEqualization: routing per the COOP fractions on a
// heterogeneous pair equalizes measured response times (Theorem 3.8 in
// simulation, not just algebra).
func TestHeterogeneousCOOPEqualization(t *testing.T) {
	t.Parallel()
	// mu = (8, 2), phi = 5. COOP: d = (10-5)/2 = 2.5 > mu2? mu2=2 <= 2.5
	// so computer 2 dropped... pick phi=7: d=(10-7)/2=1.5, lambda=(6.5, 0.5).
	mu := []float64{8, 2}
	phi := 7.0
	lam := []float64{6.5, 0.5}
	res, err := Run(Config{
		Mu:           mu,
		InterArrival: queueing.NewExponential(phi),
		Routing:      [][]float64{{lam[0] / phi, lam[1] / phi}},
		Horizon:      60_000,
		Warmup:       2_000,
		Seed:         11,
		Replications: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := res.PerComputer[0].Mean, res.PerComputer[1].Mean
	want := 1 / 1.5
	if math.Abs(t0-want) > 0.06 || math.Abs(t1-want) > 0.06 {
		t.Errorf("per-computer times (%v, %v), want both ~%v", t0, t1, want)
	}
}

// TestMultiUserAccounting checks that per-user statistics reflect each
// user's own routing.
func TestMultiUserAccounting(t *testing.T) {
	t.Parallel()
	// User 0 routes to the fast computer, user 1 to the slow one.
	res, err := Run(Config{
		Mu:           []float64{10, 2},
		InterArrival: queueing.NewExponential(2),
		UserShare:    []float64{0.5, 0.5},
		Routing:      [][]float64{{1, 0}, {0, 1}},
		Horizon:      30_000,
		Warmup:       1_000,
		Seed:         3,
		Replications: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// User 0 at M/M/1(10, 1): T=1/9. User 1 at M/M/1(2, 1): T=1.
	if math.Abs(res.PerUser[0].Mean-1.0/9) > 0.02 {
		t.Errorf("user 0 time = %v, want %v", res.PerUser[0].Mean, 1.0/9)
	}
	if math.Abs(res.PerUser[1].Mean-1.0) > 0.1 {
		t.Errorf("user 1 time = %v, want 1", res.PerUser[1].Mean)
	}
}

// TestHyperExponentialWorse: with the same mean arrival rate, CV=1.6
// arrivals give a *higher* mean response time than Poisson (the
// qualitative fact behind Figures 3.6/4.8). For M/G/1-like behaviour the
// gap grows with load.
func TestHyperExponentialWorse(t *testing.T) {
	t.Parallel()
	base := Config{
		Mu:           []float64{2},
		InterArrival: queueing.NewExponential(1.6),
		Routing:      [][]float64{{1}},
		Horizon:      60_000,
		Warmup:       2_000,
		Seed:         5,
		Replications: 5,
	}
	poisson, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	h2 := base
	h2.InterArrival = queueing.MustHyperExponential(1/1.6, 1.6)
	bursty, err := Run(h2)
	if err != nil {
		t.Fatal(err)
	}
	if bursty.Overall.Mean <= poisson.Overall.Mean {
		t.Errorf("hyper-exponential arrivals (%v) should be slower than Poisson (%v)",
			bursty.Overall.Mean, poisson.Overall.Mean)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Mu:           []float64{3, 1},
		InterArrival: queueing.NewExponential(2),
		Routing:      [][]float64{{0.8, 0.2}},
		Horizon:      2_000,
		Warmup:       100,
		Seed:         99,
		Replications: 2,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall.Mean != b.Overall.Mean || a.Jobs != b.Jobs {
		t.Errorf("same seed produced different results: %v/%v vs %v/%v",
			a.Overall.Mean, a.Jobs, b.Overall.Mean, b.Jobs)
	}
}

func TestSeedsDiffer(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Mu:           []float64{3},
		InterArrival: queueing.NewExponential(2),
		Routing:      [][]float64{{1}},
		Horizon:      2_000,
		Warmup:       100,
		Replications: 2,
	}
	cfg.Seed = 1
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Overall.Mean == b.Overall.Mean {
		t.Error("different seeds produced identical means")
	}
}

func TestUnusedComputerIdle(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{2, 2},
		InterArrival: queueing.NewExponential(1),
		Routing:      [][]float64{{1, 0}},
		Horizon:      5_000,
		Warmup:       100,
		Seed:         1,
		Replications: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerComputer[1].N != 0 {
		t.Errorf("unused computer served %d replications of jobs", res.PerComputer[1].N)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	t.Parallel()
	s := &scheduler{}
	s.schedule(3, evDynArrival, -1, noJob)
	s.schedule(1, evDynComplete, 0, 0)
	s.schedule(2, evDynArrival, -1, noJob)
	s.schedule(1, evDynArrival, -1, noJob) // same time as the departure, later seq
	var times []float64
	var kinds []eventKind
	for !s.empty() {
		e := s.next()
		times = append(times, e.time)
		kinds = append(kinds, e.kind)
	}
	wantTimes := []float64{1, 1, 2, 3}
	for i := range wantTimes {
		if times[i] != wantTimes[i] {
			t.Fatalf("event %d at time %v, want %v", i, times[i], wantTimes[i])
		}
	}
	if kinds[0] != evDynComplete || kinds[1] != evDynArrival {
		t.Error("tie not broken by scheduling order")
	}
}

// TestMeasuredUtilization: the busy-time fraction matches the analytic
// lambda/mu per computer.
func TestMeasuredUtilization(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{4, 2},
		InterArrival: queueing.NewExponential(3),
		Routing:      [][]float64{{2.0 / 3, 1.0 / 3}},
		Horizon:      30_000,
		Warmup:       500,
		Seed:         6,
		Replications: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Computer 0: lambda=2, mu=4 -> rho=0.5. Computer 1: lambda=1, mu=2 -> 0.5.
	for i, want := range []float64{0.5, 0.5} {
		if math.Abs(res.Utilization[i]-want) > 0.03 {
			t.Errorf("computer %d utilization %v, want %v", i, res.Utilization[i], want)
		}
	}
}

// TestP95MatchesMM1: the M/M/1 response-time distribution is Exp(mu-lambda),
// so its p95 is -ln(0.05)/(mu-lambda).
func TestP95MatchesMM1(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{2},
		InterArrival: queueing.NewExponential(1),
		Routing:      [][]float64{{1}},
		Horizon:      50_000,
		Warmup:       1_000,
		Seed:         12,
		Replications: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Log(0.05) / (2.0 - 1.0)
	if math.Abs(res.P95.Mean-want) > 0.1*want {
		t.Errorf("p95 = %v, want %v", res.P95.Mean, want)
	}
	if res.P95.Mean <= res.Overall.Mean {
		t.Error("p95 should exceed the mean")
	}
}

// TestSingleClassPerUserIsOverall: with one class every job is user 0's,
// so its summary is the overall one, bit for bit.
func TestSingleClassPerUserIsOverall(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Mu:           []float64{4, 2, 1},
		InterArrival: queueing.NewExponential(5),
		Routing:      [][]float64{{0.6, 0.3, 0.1}},
		Horizon:      500,
		Warmup:       20,
		Seed:         9,
		Replications: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerUser) != 1 || res.PerUser[0] != res.Overall {
		t.Errorf("PerUser %+v, want [%+v]", res.PerUser, res.Overall)
	}
}
