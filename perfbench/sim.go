package main

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"gtlb"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// table31Mu is the 16-computer system of Table 3.1 with its rates
// scaled ×1000 to jobs per second.
var table31Mu = []float64{
	13, 13, 13, 13, 13, 13,
	26, 26, 26, 26, 26,
	65, 65, 65,
	130, 130,
}

// simMaxSE bounds how far the simulated mean response time may sit
// from the analytic COOP value 1/Spare, in standard errors of the
// replication means. It catches a broken event loop or sampler, not
// sampling noise: at 8 replications a correct simulator lands past it
// well under once in a thousand seeds.
const simMaxSE = 6

type simBench struct {
	sys   gtlb.System
	alloc gtlb.Allocation
	cfg   gtlb.SimConfig
	ref   gtlb.SimResult // the warm-up op's result; every op must reproduce it
}

func newSim(c config) (*simBench, error) {
	var total float64
	for _, m := range table31Mu {
		total += m
	}
	sys, err := gtlb.NewSystem(table31Mu, 0.7*total)
	if err != nil {
		return nil, err
	}
	alloc, err := gtlb.COOP(sys)
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(table31Mu))
	for i, l := range alloc.Lambda {
		row[i] = l / sys.Phi
	}
	cfg := gtlb.SimConfig{
		Mu:           table31Mu,
		InterArrival: gtlb.Exponential(sys.Phi),
		Routing:      [][]float64{row},
		Horizon:      240,
		Warmup:       12,
		Seed:         c.seed,
		Replications: 8,
		// One worker: on a 2-vCPU host, two workers saturating both
		// CPUs gave op medians that drifted 17% within two minutes,
		// against 6% for one.
		Workers: 1,
	}
	if c.quick {
		cfg.Horizon, cfg.Warmup, cfg.Replications = 8, 1, 2
	}
	b := &simBench{sys: sys, alloc: alloc, cfg: cfg}
	ref, err := gtlb.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	if err := b.checkMean(ref); err != nil {
		return nil, err
	}
	b.ref = ref
	return b, nil
}

// checkMean compares the simulated mean response time with the
// analytic one: under COOP every used computer answers in 1/Spare.
func (b *simBench) checkMean(r gtlb.SimResult) error {
	want := b.alloc.ResponseTime()
	got, se := r.Overall.Mean, r.Overall.StdErr
	if r.Jobs == 0 || math.IsNaN(got) || math.Abs(got-want) > simMaxSE*se {
		return fmt.Errorf("simulated mean response %.6g s (SE %.3g, %d jobs) is not within %d SE of the analytic %.6g s",
			got, se, r.Jobs, simMaxSE, want)
	}
	return nil
}

func (b *simBench) prepare() error { return nil }

func (b *simBench) op() error {
	r, err := gtlb.Simulate(b.cfg)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(r, b.ref) {
		return fmt.Errorf("seed %d gave a different Result than the warm-up run (mean %.9g vs %.9g, %d vs %d jobs)",
			b.cfg.Seed, r.Overall.Mean, b.ref.Overall.Mean, r.Jobs, b.ref.Jobs)
	}
	return nil
}

func (b *simBench) finish() (int, error) { return 0, nil }

// desCounter is a counting Observer. Observers without per-replication
// forks are shared by the replication workers, hence the atomics.
type desCounter struct{ arrivals, departures atomic.Int64 }

func (c *desCounter) Observe(e obs.Event) {
	switch e.Kind {
	case obs.DESArrival:
		c.arrivals.Add(1)
	case obs.DESDeparture:
		c.departures.Add(1)
	}
}

func (b *simBench) traced(seconds float64) (map[string]float64, string, samples, error) {
	// Spans around each Simulate: des.run_ms. The op itself is
	// unchanged, so the traced loop is the plain loop.
	s, err := measure(b, seconds)
	if err != nil {
		return nil, "", s, err
	}
	runMs := median(s.lat) * 1e3

	// Exact per-seed event counts from one extra, untimed run with a
	// counting observer.
	var cnt desCounter
	if _, err := gtlb.Simulate(b.cfg, gtlb.WithObserver(&cnt)); err != nil {
		return nil, "", s, err
	}
	arrivals, departures := cnt.arrivals.Load(), cnt.departures.Load()

	// The op's draws timed in isolation: one exponential per arrival
	// (inter-arrival) and per service start, one alias draw per
	// arrival (routing; a single user class draws no user share).
	expN, aliasN := int(arrivals+departures), int(arrivals)
	expNs, aliasNs, err := drawCosts(b.cfg, expN, aliasN)
	if err != nil {
		return nil, "", s, err
	}
	coopUs := timeCOOP(b.sys) * 1e6

	drawMs := (float64(expN)*expNs + float64(aliasN)*aliasNs) / 1e6
	residual := 1 - drawMs/runMs
	layers := map[string]float64{
		"core.coop_us":        coopUs,
		"des.run_ms":          runMs,
		"des.ns_per_event":    runMs * 1e6 / float64(arrivals+departures),
		"des.jobs":            float64(b.ref.Jobs),
		"des.arrivals":        float64(arrivals),
		"des.departures":      float64(departures),
		"queueing.exp_ns":     expNs,
		"queueing.alias_ns":   aliasNs,
		"des.budget_residual": residual,
	}
	budget := fmt.Sprintf("budget %s: des.run_ms %.4g ms (measured, median of %d spans) = "+
		"draws %.4g ms [computed: %d exp × %.3g ns + %d alias × %.3g ns, %.1f%%] + "+
		"residual %.4g ms [heap, arena, dispatch: %.1f%%]\n",
		"sim-table31", runMs, len(s.lat), drawMs, expN, expNs, aliasN, aliasNs,
		100*drawMs/runMs, runMs-drawMs, 100*residual)
	return layers, budget, s, nil
}

// drawCosts times RNG.Exp and AliasSampler.Sample in isolation, each
// at the op's own draw count, and returns nanoseconds per draw (median
// of a few repetitions).
func drawCosts(cfg gtlb.SimConfig, expN, aliasN int) (expNs, aliasNs float64, err error) {
	alias, err := queueing.NewAliasSampler(cfg.Routing[0])
	if err != nil {
		return 0, 0, err
	}
	rng := queueing.NewRNG(cfg.Seed)
	var sink float64
	var exps, aliases []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < expN; k++ {
			sink += rng.Exp(cfg.Mu[k&15])
		}
		exps = append(exps, float64(time.Since(t0).Nanoseconds())/float64(expN))
		t0 = time.Now()
		for k := 0; k < aliasN; k++ {
			sink += float64(alias.Sample(rng))
		}
		aliases = append(aliases, float64(time.Since(t0).Nanoseconds())/float64(aliasN))
	}
	if math.IsNaN(sink) {
		return 0, 0, fmt.Errorf("draw sink is NaN")
	}
	return median(exps), median(aliases), nil
}

// timeCOOP returns the seconds one COOP solve of sys takes (median of
// batches, so the microsecond call clears the clock's resolution).
func timeCOOP(sys gtlb.System) float64 {
	const batch = 2000
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			if _, err := gtlb.COOP(sys); err != nil {
				return math.NaN()
			}
		}
		per = append(per, time.Since(t0).Seconds()/batch)
	}
	return median(per)
}
