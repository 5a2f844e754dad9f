package gtlb_test

// One benchmark per reproduced table and figure (regenerating the
// figure's full series), plus micro-benchmarks standing in for the
// paper's wall-clock comparisons: COOP vs the iterative WARDROP
// (§3.4.2's SUN timing remark) and one NASH best-reply round vs the
// GOS/IOS-style iterative solvers.

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gtlb"
	"gtlb/internal/experiments"
	"gtlb/internal/noncoop"
	"gtlb/internal/schemes"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Generate(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_1(b *testing.B) { benchFigure(b, "T3.1") }
func BenchmarkFig3_1(b *testing.B)   { benchFigure(b, "F3.1") }
func BenchmarkFig3_2(b *testing.B)   { benchFigure(b, "F3.2") }
func BenchmarkFig3_3(b *testing.B)   { benchFigure(b, "F3.3") }
func BenchmarkFig3_4(b *testing.B)   { benchFigure(b, "F3.4") }
func BenchmarkFig3_5(b *testing.B)   { benchFigure(b, "F3.5") }
func BenchmarkFig3_6(b *testing.B)   { benchFigure(b, "F3.6") }

func BenchmarkTable4_1(b *testing.B) { benchFigure(b, "T4.1") }
func BenchmarkFig4_2(b *testing.B)   { benchFigure(b, "F4.2") }
func BenchmarkFig4_3(b *testing.B)   { benchFigure(b, "F4.3") }
func BenchmarkFig4_4(b *testing.B)   { benchFigure(b, "F4.4") }
func BenchmarkFig4_5(b *testing.B)   { benchFigure(b, "F4.5") }
func BenchmarkFig4_6(b *testing.B)   { benchFigure(b, "F4.6") }
func BenchmarkFig4_7(b *testing.B)   { benchFigure(b, "F4.7") }
func BenchmarkFig4_8(b *testing.B)   { benchFigure(b, "F4.8") }

func BenchmarkTable5_1(b *testing.B) { benchFigure(b, "T5.1") }
func BenchmarkFig5_2(b *testing.B)   { benchFigure(b, "F5.2") }
func BenchmarkFig5_3(b *testing.B)   { benchFigure(b, "F5.3") }
func BenchmarkFig5_4(b *testing.B)   { benchFigure(b, "F5.4") }
func BenchmarkFig5_5(b *testing.B)   { benchFigure(b, "F5.5") }
func BenchmarkFig5_6(b *testing.B)   { benchFigure(b, "F5.6") }
func BenchmarkFig5_7(b *testing.B)   { benchFigure(b, "F5.7") }

func BenchmarkTable6_1(b *testing.B) { benchFigure(b, "T6.1") }
func BenchmarkTable6_2(b *testing.B) { benchFigure(b, "T6.2") }
func BenchmarkFig6_1(b *testing.B)   { benchFigure(b, "F6.1") }
func BenchmarkFig6_2(b *testing.B)   { benchFigure(b, "F6.2") }
func BenchmarkFig6_3(b *testing.B)   { benchFigure(b, "F6.3") }
func BenchmarkFig6_4(b *testing.B)   { benchFigure(b, "F6.4") }
func BenchmarkFig6_5(b *testing.B)   { benchFigure(b, "F6.5") }
func BenchmarkFig6_6(b *testing.B)   { benchFigure(b, "F6.6") }

// table31Mu is the 16-computer Table 3.1 configuration used by the
// micro-benchmarks.
func table31Mu() []float64 {
	return []float64{
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.065, 0.065, 0.065,
		0.13, 0.13,
	}
}

// BenchmarkCOOPAlgorithm times the closed-form COOP algorithm on the
// Table 3.1 system — the fast side of the paper's COOP-vs-WARDROP
// wall-clock comparison (§3.4.2).
func BenchmarkCOOPAlgorithm(b *testing.B) {
	sys, err := gtlb.NewSystem(table31Mu(), 0.5*0.663)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.COOP(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWARDROPAlgorithm times the iterative Wardrop solver on the
// same system; the paper reports it markedly slower than COOP.
func BenchmarkWARDROPAlgorithm(b *testing.B) {
	mu := table31Mu()
	w := &schemes.Wardrop{Eps: 1e-10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Allocate(mu, 0.5*0.663); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCOOPVsWardrop holds the ordering behind the paper's timing
// remark (§3.4.2): the direct algorithm beats the iterative one. Each
// iteration times a batch of COOP solves and a batch of WARDROP solves
// on the Table 3.1 system, alternating so both sides see the same
// machine state; it reports both per-solve times and fails unless COOP
// is strictly faster. It is a benchmark rather than a test because it
// compares wall clocks, which the race detector's instrumentation
// distorts.
func BenchmarkCOOPVsWardrop(b *testing.B) {
	const batch = 1000
	sys, err := gtlb.NewSystem(table31Mu(), 0.5*0.663)
	if err != nil {
		b.Fatal(err)
	}
	w := &schemes.Wardrop{Eps: 1e-10}
	var coopWall, wardropWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for k := 0; k < batch; k++ {
			if _, err := gtlb.COOP(sys); err != nil {
				b.Fatal(err)
			}
		}
		coopWall += time.Since(start)
		start = time.Now()
		for k := 0; k < batch; k++ {
			if _, err := w.Allocate(sys.Mu, sys.Phi); err != nil {
				b.Fatal(err)
			}
		}
		wardropWall += time.Since(start)
	}
	solves := float64(b.N * batch)
	coopNs := float64(coopWall.Nanoseconds()) / solves
	wardropNs := float64(wardropWall.Nanoseconds()) / solves
	b.ReportMetric(coopNs, "coop-ns/solve")
	b.ReportMetric(wardropNs, "wardrop-ns/solve")
	if coopNs >= wardropNs {
		b.Errorf("COOP (%.0f ns/solve) not faster than WARDROP (%.0f ns/solve)", coopNs, wardropNs)
	}
}

func ch4Bench() (gtlb.MultiSystem, error) {
	mu := []float64{10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 50, 50, 50, 100, 100}
	fr := []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}
	phi := make([]float64, len(fr))
	for j, f := range fr {
		phi[j] = f * 0.6 * 510
	}
	return gtlb.NewMultiSystem(mu, phi)
}

// BenchmarkBestReply times a single user's best-reply computation — the
// unit of work a NASH iteration performs per user.
func BenchmarkBestReply(b *testing.B) {
	sys, err := ch4Bench()
	if err != nil {
		b.Fatal(err)
	}
	prof := noncoop.NewProfile(sys.NumUsers(), sys.NumComputers())
	for j := range prof.S {
		for i, m := range sys.Mu {
			prof.S[j][i] = m / sys.TotalMu()
		}
	}
	avail := sys.Available(prof, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := noncoop.BestReply(avail, sys.Phi[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNashEquilibrium times the full NASH_P iteration to 1e-4, the
// quantity Figure 4.3 plots.
func BenchmarkNashEquilibrium(b *testing.B) {
	sys, err := ch4Bench()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.NashEquilibrium(sys, gtlb.NashOptions{Init: gtlb.InitProportional, Eps: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMechanismPayments times one full truthful payment computation
// for the 16 Table 5.1 agents (the dispatcher-side cost of one LBM
// round).
func BenchmarkMechanismPayments(b *testing.B) {
	mu := table31Mu()
	trueVals := make([]float64, len(mu))
	for i, m := range mu {
		trueVals[i] = 1 / m
	}
	m := gtlb.Mechanism{Phi: 0.5 * 0.663}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Payments(trueVals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifiedMechanism times one Chapter 6 payment round.
func BenchmarkVerifiedMechanism(b *testing.B) {
	vals := []float64{1, 1, 2, 2, 2, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10}
	m := gtlb.VerifiedMechanism{Lambda: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(vals, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures discrete-event simulation throughput
// (jobs per benchmark op) on a 16-computer system.
func BenchmarkSimulator(b *testing.B) {
	mu := make([]float64, 16)
	for i, m := range table31Mu() {
		mu[i] = m * 1000
	}
	var total float64
	for _, m := range mu {
		total += m
	}
	phi := 0.5 * total
	lam := make([]float64, len(mu))
	routing := make([]float64, len(mu))
	sys, err := gtlb.NewSystem(mu, phi)
	if err != nil {
		b.Fatal(err)
	}
	a, err := gtlb.COOP(sys)
	if err != nil {
		b.Fatal(err)
	}
	copy(lam, a.Lambda)
	for i, l := range lam {
		routing[i] = l / phi
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := gtlb.Simulate(gtlb.SimConfig{
			Mu:           mu,
			InterArrival: gtlb.Exponential(phi),
			Routing:      [][]float64{routing},
			Horizon:      100,
			Warmup:       5,
			Seed:         uint64(i + 1),
			Replications: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Jobs), "jobs/op")
	}
}

// desSpeedupConfig is the fixed scenario of the sequential-vs-parallel
// engine benchmarks: the ×1000-scaled Table 3.1 system under the COOP
// allocation, 8 replications. Only Workers varies between runs, so every
// run does the same work and produces the same Result — the benchmarks
// measure pure scheduling gain.
func desSpeedupConfig(tb testing.TB, workers int) gtlb.SimConfig {
	tb.Helper()
	mu := make([]float64, 16)
	for i, m := range table31Mu() {
		mu[i] = m * 1000
	}
	var total float64
	for _, m := range mu {
		total += m
	}
	phi := 0.7 * total
	sys, err := gtlb.NewSystem(mu, phi)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := gtlb.COOP(sys)
	if err != nil {
		tb.Fatal(err)
	}
	routing := make([]float64, len(mu))
	for i, l := range a.Lambda {
		routing[i] = l / phi
	}
	return gtlb.SimConfig{
		Mu:           mu,
		InterArrival: gtlb.Exponential(phi),
		Routing:      [][]float64{routing},
		Horizon:      60,
		Warmup:       3,
		Seed:         42,
		Replications: 8,
		Workers:      workers,
	}
}

func benchmarkSimulatorWorkers(b *testing.B, workers int) {
	cfg := desSpeedupConfig(b, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorWorkers1 is the sequential baseline of the parallel
// engine; Workers2/4/8 measure the worker-pool speedup on the identical
// workload. BenchmarkDESWorkerSpeedup gates the ratio.
func BenchmarkSimulatorWorkers1(b *testing.B) { benchmarkSimulatorWorkers(b, 1) }
func BenchmarkSimulatorWorkers2(b *testing.B) { benchmarkSimulatorWorkers(b, 2) }
func BenchmarkSimulatorWorkers4(b *testing.B) { benchmarkSimulatorWorkers(b, 4) }
func BenchmarkSimulatorWorkers8(b *testing.B) { benchmarkSimulatorWorkers(b, 8) }

// nopObserver is the cheapest observer; the facade's hard constraint is
// that threading it through a run must not move the allocation needle.
type nopObserver struct{}

func (nopObserver) Observe(gtlb.Event) {}

// Allocation baselines of the sequential Table 3.1 des.Run
// (desSpeedupConfig at one worker), in allocs/op. Allocation counts,
// unlike ns/op, are nearly machine-independent, so a committed count
// can gate CI without the noise of wall-clock timing.
const (
	desBareAllocs = 595 // no observer
	desNoopAllocs = 598 // no-op observer: the binary tracer's base
)

// TestDESAllocBudget holds des.Run's allocs/op to the committed
// baselines: within 1.25x+64 of the bare count for the bare run, for a
// no-op observer attached through the options API (the hooks must be
// branch-cheap) and for heavy-tail service with diurnal arrivals (the
// samplers draw without allocating); within 1.2x+64 of the no-op count
// for the binary tracer (its pooled-page encoder may not allocate per
// event). The slack absorbs slice-growth jitter from GC timing; one
// allocation per job costs ~220k allocs/op here.
//
// The bintracer case also checks two byte budgets live, in its "bytes"
// subtest, against runs of its own: its allocated bytes stay within
// 1.2x+4096 of the bare run's (the pooled pages recycle; not checked
// under -race, see raceEnabled), and its output is at least 4x smaller
// than the JSONL trace of the same seeded run.
func TestDESAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	base := desSpeedupConfig(t, 1)
	var bareBytes float64
	cases := []struct {
		name  string
		limit float64
		cfg   gtlb.SimConfig
		opts  []gtlb.Option
		check func(t *testing.T, bytes float64)
	}{
		{name: "bare", limit: 1.25*desBareAllocs + 64, cfg: base},
		{name: "noop", limit: 1.25*desBareAllocs + 64, cfg: base,
			opts: []gtlb.Option{gtlb.WithObserver(nopObserver{})}},
		{name: "bintracer", limit: 1.2*desNoopAllocs + 64, cfg: base,
			opts: []gtlb.Option{gtlb.WithBinaryTrace(io.Discard)},
			check: func(t *testing.T, bytes float64) {
				t.Run("bytes", func(t *testing.T) {
					if !raceEnabled() {
						if bareBytes == 0 { // the bare case was filtered out by -run
							_, bareBytes = heapPerRun(t, base)
						}
						if limit := 1.2*bareBytes + 4096; bytes > limit {
							t.Errorf("binary tracer allocates %.0f B/op, above 1.2x the untraced run's %.0f (+4096 slack = %.0f); the pooled pages are not recycling",
								bytes, bareBytes, limit)
						}
					}
					var jsonl, bin countWriter
					timeSimulate(t, base, gtlb.WithTrace(&jsonl))
					timeSimulate(t, base, gtlb.WithBinaryTrace(&bin))
					ratio := float64(jsonl.n) / float64(bin.n)
					t.Logf("trace bytes: binary %d, JSONL %d (%.1fx smaller)", bin.n, jsonl.n, ratio)
					if ratio < 4 {
						t.Errorf("binary trace only %.1fx smaller than JSONL (want >= 4x)", ratio)
					}
				})
			}},
		{name: "heavytail", limit: 1.25*desBareAllocs + 64, cfg: desHeavyTailConfig(t)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes := heapPerRun(t, c.cfg, c.opts...)
			if c.name == "bare" {
				bareBytes = bytes
			}
			t.Logf("%.0f allocs/op, %.0f B/op (limit %.0f allocs/op)", allocs, bytes, c.limit)
			if allocs > c.limit {
				t.Errorf("des.Run allocations regressed: %.0f allocs/op exceeds the budget of %.0f", allocs, c.limit)
			}
			if c.check != nil {
				c.check(t, bytes)
			}
		})
	}
}

// raceEnabled reports a -race build, under which sync.Pool drops
// pooled items at random, so a pooled-buffer byte budget cannot hold.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// heapPerRun simulates cfg once to warm up, then five more times, and
// returns the mean heap allocations and bytes of those five runs.
func heapPerRun(t *testing.T, cfg gtlb.SimConfig, opts ...gtlb.Option) (allocs, bytes float64) {
	t.Helper()
	const runs = 5
	timeSimulate(t, cfg, opts...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		timeSimulate(t, cfg, opts...)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// countWriter counts written bytes without buffering them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// timeSimulate runs cfg once and returns its wall clock.
func timeSimulate(tb testing.TB, cfg gtlb.SimConfig, opts ...gtlb.Option) time.Duration {
	tb.Helper()
	start := time.Now()
	if _, err := gtlb.Simulate(cfg, opts...); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkDESWorkerSpeedup times des.Run at one and at four workers on
// the same scenario, one run of each per iteration, and reports the
// ratio of the summed wall clocks. On 4 or more CPUs the parallel
// engine must reach 2x; on fewer the ratio is reported, not asserted.
func BenchmarkDESWorkerSpeedup(b *testing.B) {
	seq, par := desSpeedupConfig(b, 1), desSpeedupConfig(b, 4)
	var seqWall, parWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqWall += timeSimulate(b, seq)
		parWall += timeSimulate(b, par)
	}
	speedup := float64(seqWall) / float64(parWall)
	b.ReportMetric(speedup, "speedup-x")
	if runtime.NumCPU() >= 4 && speedup < 2 {
		b.Errorf("des.Run is %.2fx faster at 4 workers on %d CPUs; want >= 2x", speedup, runtime.NumCPU())
	}
}

// BenchmarkBinaryTracerOverhead times des.Run untraced and under the
// binary tracer, one run of each per iteration, and bounds the ratio of
// the summed wall clocks at 2.5x. Wall clock is noisy on shared hosts,
// so the bound is a generous ceiling over the 1.5x target.
func BenchmarkBinaryTracerOverhead(b *testing.B) {
	if slowdown := tracerSlowdown(b, gtlb.WithBinaryTrace(io.Discard)); slowdown > 2.5 {
		b.Errorf("binary tracer slowdown %.2fx vs an untraced run exceeds the 2.5x ceiling", slowdown)
	}
}

// BenchmarkJSONLTracerOverhead is BenchmarkBinaryTracerOverhead under
// the JSONL tracer, which records the same binary records and formats
// them as JSON at Flush. It reports the slowdown and asserts no bound.
func BenchmarkJSONLTracerOverhead(b *testing.B) {
	tracerSlowdown(b, gtlb.WithTrace(io.Discard))
}

// tracerSlowdown times des.Run untraced and with the trace option, one
// run of each per iteration, and reports and returns the ratio of the
// summed wall clocks.
func tracerSlowdown(b *testing.B, trace gtlb.Option) float64 {
	cfg := desSpeedupConfig(b, 1)
	var bareWall, tracedWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bareWall += timeSimulate(b, cfg)
		tracedWall += timeSimulate(b, cfg, trace)
	}
	slowdown := float64(tracedWall) / float64(bareWall)
	b.ReportMetric(slowdown, "slowdown-x")
	return slowdown
}

// BenchmarkNashRingProtocol times the distributed §4.3 ring (one
// shard, one best reply per user per round) end to end over the
// in-memory transport.
func BenchmarkNashRingProtocol(b *testing.B) {
	sys, err := ch4Bench()
	if err != nil {
		b.Fatal(err)
	}
	ring := gtlb.WithShardOptions(gtlb.ShardOptions{Shards: 1, LocalSweeps: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys, gtlb.WithEpsilon(1e-4), ring); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBMProtocol times the bidding protocol end to end over the
// in-memory transport.
func BenchmarkLBMProtocol(b *testing.B) {
	mu := table31Mu()
	trueVals := make([]float64, len(mu))
	for i, m := range mu {
		trueVals[i] = 1 / m
	}
	policies := make([]gtlb.BidPolicy, len(trueVals))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.RunLBM(gtlb.NewMemNetwork(), trueVals, policies, 0.5*0.663); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkNashInitZero vs BenchmarkNashInitProportional: the NASH_0 /
// NASH_P initialization choice of Figure 4.2.
func BenchmarkNashInitZero(b *testing.B) {
	sys, err := ch4Bench()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.NashEquilibrium(sys, gtlb.NashOptions{Init: gtlb.InitZero, Eps: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNashInitProportional(b *testing.B) {
	sys, err := ch4Bench()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.NashEquilibrium(sys, gtlb.NashOptions{Init: gtlb.InitProportional, Eps: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicPolicies times one dynamic-mode replication per
// surveyed policy (the §2.2.2 baseline world).
func BenchmarkDynamicPolicies(b *testing.B) {
	mu := []float64{20, 20, 4, 4, 4, 4, 4, 4}
	lambda := make([]float64, len(mu))
	for i, m := range mu {
		lambda[i] = 0.7 * m
	}
	for _, p := range gtlb.DynamicPolicies() {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := gtlb.SimulateDynamic(gtlb.DynamicConfig{
					Mu: mu, Lambda: lambda, Policy: p,
					TransferDelay: 0.005,
					Horizon:       500, Warmup: 25,
					Seed: uint64(i + 1), Replications: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Extension experiments (X ids; see internal/experiments/extensions.go).
func BenchmarkFigX1(b *testing.B) { benchFigure(b, "X1") }
func BenchmarkFigX2(b *testing.B) { benchFigure(b, "X2") }
func BenchmarkFigX3(b *testing.B) { benchFigure(b, "X3") }
func BenchmarkFigX4(b *testing.B) { benchFigure(b, "X4") }

// BenchmarkMultiClassOptimize times the Frank–Wolfe solver on a
// two-class three-computer system.
func BenchmarkMultiClassOptimize(b *testing.B) {
	sys, err := gtlb.NewMultiClassSystem(
		[][]float64{{10, 6, 2}, {3, 8, 2.5}},
		[]float64{5, 4},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.OptimizeMultiClass(sys, gtlb.MultiClassOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceOfAnarchy times the waterfill solvers on a 16-link
// affine network.
func BenchmarkPriceOfAnarchy(b *testing.B) {
	links := make([]gtlb.RoutingLink, 16)
	for i := range links {
		links[i] = gtlb.RoutingLink{Slope: float64(i%4) + 1, Const: float64(i % 3)}
	}
	n := gtlb.RoutingNetwork{Links: links, Rate: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.PriceOfAnarchy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBayesianEquilibrium times the §7.3 Bayesian-Nash iteration on
// a two-scenario, two-user system.
func BenchmarkBayesianEquilibrium(b *testing.B) {
	sys, err := gtlb.NewBayesSystem([]gtlb.BayesScenario{
		{Mu: []float64{20, 10}, Prob: 0.5},
		{Mu: []float64{4, 10}, Prob: 0.5},
	}, []float64{6, 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gtlb.BayesianEquilibrium(sys, 1e-8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigX5(b *testing.B) { benchFigure(b, "X5") }
func BenchmarkFigX6(b *testing.B) { benchFigure(b, "X6") }

// desHeavyTailConfig is desSpeedupConfig with every exponential draw
// swapped out: mean-matched heavy-tail service overrides (Pareto,
// Weibull, lognormal cycled across the 16 computers) and a diurnal
// NHPP arrival profile whose multipliers normalize to the same offered
// load. It exercises the interface-dispatch sampling path end to end.
func desHeavyTailConfig(tb testing.TB) gtlb.SimConfig {
	tb.Helper()
	cfg := desSpeedupConfig(tb, 1)
	service := make([]gtlb.Distribution, len(cfg.Mu))
	for i, m := range cfg.Mu {
		var err error
		switch i % 3 {
		case 0:
			service[i], err = gtlb.Pareto(1/m, 2.2)
		case 1:
			service[i], err = gtlb.Weibull(1/m, 0.7)
		default:
			service[i], err = gtlb.Lognormal(1/m, 2)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	cfg.Service = service
	var total float64
	for _, m := range cfg.Mu {
		total += m
	}
	arr, err := gtlb.DiurnalArrivals(0.7*total, []float64{0.8, 1.2}, 5)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.InterArrival = arr
	return cfg
}
