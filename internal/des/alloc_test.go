package des

import (
	"testing"

	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// steadyCfg is a 16-computer scenario sized so one Run simulates tens of
// thousands of jobs: large enough that any per-job allocation left in
// the hot loop dominates the fixed per-replication setup cost and fails
// the budget below.
func steadyCfg(withBreakdowns bool) Config {
	mu := []float64{13, 13, 13, 13, 13, 13, 26, 26, 26, 26, 26, 65, 65, 65, 130, 130}
	var total float64
	for _, m := range mu {
		total += m
	}
	routing := make([]float64, len(mu))
	for i, m := range mu {
		routing[i] = m / total
	}
	cfg := Config{
		Mu:           mu,
		InterArrival: queueing.NewExponential(0.7 * total),
		Routing:      [][]float64{routing},
		Horizon:      60,
		Warmup:       3,
		Seed:         42,
		Replications: 1,
		Workers:      1,
	}
	if withBreakdowns {
		cfg.Breakdowns = make([]Breakdown, len(mu))
		for i := range cfg.Breakdowns {
			cfg.Breakdowns[i] = Breakdown{FailRate: 0.5, RepairRate: 5}
		}
	}
	return cfg
}

// TestSteadyStateAllocs is the zero-allocation regression gate of the
// DES core: a replication simulating ~28k jobs must stay within a fixed
// allocation budget that only covers per-replication setup (metric
// accumulators, RNG streams, arena/heap/ring high-water growth). Any
// per-job allocation reintroduced into the event loop multiplies by the
// job count and blows the budget immediately — at one alloc per job this
// fails by two orders of magnitude.
func TestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		breakdowns bool
	}{
		{"static routing", false},
		{"with failure rerouting", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := steadyCfg(tc.breakdowns)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Jobs < 20_000 {
				t.Fatalf("only %d jobs simulated; the budget below assumes ≥20k", res.Jobs)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
			const budget = 500 // fixed setup cost; ≈0.02 allocs per simulated job
			if allocs > budget {
				t.Errorf("Run allocated %.0f times for %d jobs (budget %d): the hot loop is allocating per job",
					allocs, res.Jobs, budget)
			}
		})
	}
}

// TestHeavyTailSteadyStateAllocs applies the same zero-allocation gate
// with every computer's service overridden by a heavy-tail sampler and
// the arrival stream replaced by a diurnal NHPP: the interface Sample
// calls and the thinning loop must not allocate per draw, only the
// per-replication Service fork setup may cost anything.
func TestHeavyTailSteadyStateAllocs(t *testing.T) {
	cfg := steadyCfg(false)
	var total float64
	for _, m := range cfg.Mu {
		total += m
	}
	diurnal, err := queueing.NewDiurnalFromMultipliers(0.7*total, []float64{0.8, 1.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InterArrival = diurnal
	cfg.Service = make([]queueing.Distribution, len(cfg.Mu))
	for i, m := range cfg.Mu {
		var d queueing.Distribution
		switch i % 3 {
		case 0:
			d, err = queueing.NewParetoFromMean(1/m, 2.2)
		case 1:
			d, err = queueing.NewWeibullFromMean(1/m, 0.7)
		default:
			d, err = queueing.NewLognormalFromMeanCV(1/m, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg.Service[i] = d
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs < 20_000 {
		t.Fatalf("only %d jobs simulated; the budget below assumes ≥20k", res.Jobs)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 500 // same envelope as the exponential path
	if allocs > budget {
		t.Errorf("Run with heavy-tail services allocated %.0f times for %d jobs (budget %d): a sampler is allocating per draw",
			allocs, res.Jobs, budget)
	}
}

// nopObserver is the cheapest possible observer: the engine's hooks
// must not add steady-state allocations when it is installed, proving
// the observation path passes events by value with no boxing.
type nopObserver struct{}

func (nopObserver) Observe(obs.Event) {}

// TestObserverSteadyStateAllocs pins the hot-path cost of observation:
// installing a no-op observer may add only a constant per-run setup
// overhead (the per-replication fork bookkeeping), never a per-event
// allocation. Run with the breakdown scenario so every hook — arrival,
// departure, requeue, reroute, fail, repair — fires.
func TestObserverSteadyStateAllocs(t *testing.T) {
	cfg := steadyCfg(true)
	base := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	cfgObs := steadyCfg(true)
	cfgObs.Observer = nopObserver{}
	withObs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfgObs); err != nil {
			t.Fatal(err)
		}
	})
	const setupSlack = 16
	if withObs > base+setupSlack {
		t.Errorf("no-op observer costs %.0f allocs vs %.0f bare (slack %d): the hooks are allocating per event",
			withObs, base, setupSlack)
	}
}

// TestDynamicSteadyStateAllocs applies the same gate to the dynamic-mode
// engine (whose old implementation allocated a queue-length snapshot per
// arrival on top of the per-job allocations).
func TestDynamicSteadyStateAllocs(t *testing.T) {
	cfg := DynamicConfig{
		Mu:            []float64{20, 20, 20, 20},
		Lambda:        []float64{14, 14, 14, 14},
		TransferDelay: 0.005,
		Horizon:       400,
		Warmup:        20,
		Seed:          7,
		Replications:  1,
		Workers:       1,
	}
	res, err := RunDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs < 15_000 {
		t.Fatalf("only %d jobs simulated; the budget below assumes ≥15k", res.Jobs)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunDynamic(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 300
	if allocs > budget {
		t.Errorf("RunDynamic allocated %.0f times for %d jobs (budget %d)", allocs, res.Jobs, budget)
	}
}

// BenchmarkRunOnce measures one sequential replication of the steady
// scenario, with allocs/op making any hot-loop allocation regression
// visible next to ns/op.
func BenchmarkRunOnce(b *testing.B) {
	cfg := steadyCfg(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Jobs), "jobs/op")
	}
}

// BenchmarkRunOnceBreakdowns exercises the failure/reroute path.
func BenchmarkRunOnceBreakdowns(b *testing.B) {
	cfg := steadyCfg(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDynamicOnce is the dynamic-mode counterpart.
func BenchmarkRunDynamicOnce(b *testing.B) {
	cfg := DynamicConfig{
		Mu:            []float64{20, 20, 20, 20},
		Lambda:        []float64{14, 14, 14, 14},
		TransferDelay: 0.005,
		Horizon:       400,
		Warmup:        20,
		Seed:          7,
		Replications:  1,
		Workers:       1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunDynamic(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
