package gtlb_test

// Convergence/wall-clock benchmark suite for the distributed NASH
// protocols (flat §4.3 ring vs the hierarchical sharded runtime), on
// both transports, with and without chaos. TestBenchDistReport writes
// the machine-readable BENCH_DIST.json report; TestDistScaleSmoke is
// the fast CI tier (run under -race by the dist-scale-smoke job).

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"gtlb"
	"gtlb/internal/benchio"
	"gtlb/internal/dist"
	"gtlb/internal/noncoop"
)

// distBenchSystem is the standard 4-computer system scaled to m users:
// total arrival rate 30 (40% utilization of the Σμ=75 capacity),
// spread over seven distinct user classes.
func distBenchSystem(tb testing.TB, m int) gtlb.MultiSystem {
	tb.Helper()
	mu := []float64{30, 20, 15, 10}
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = (1.0 + 0.3*float64(j%7)) * 30 / float64(m)
	}
	sys, err := noncoop.NewSystem(mu, phi)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// distBenchEps is the per-size tolerance ε(m) = 1e-6·m: the best-reply
// dynamics plateau at a norm that grows roughly linearly in m (limit
// cycling among near-ties), so a fixed ε would be unreachable at large
// m and trivial at small m.
func distBenchEps(m int) float64 { return 1e-6 * float64(m) }

// bestReplyGap measures equilibrium quality independently of either
// protocol: one flat round-robin best-reply sweep over the final
// profile, returning the Σ|Δt| norm. An exact Nash profile scores 0;
// both protocols' results should score within their acceptance ε class.
func bestReplyGap(tb testing.TB, sys gtlb.MultiSystem, prof gtlb.Profile) float64 {
	tb.Helper()
	m, n := sys.NumUsers(), sys.NumComputers()
	loads := make([]float64, n)
	rows := make([][]float64, m)
	for j := 0; j < m; j++ {
		rows[j] = append([]float64(nil), prof.S[j]...)
		for i := 0; i < n; i++ {
			loads[i] += rows[j][i] * sys.Phi[j]
		}
	}
	avail := make([]float64, n)
	newRow := make([]float64, n)
	ord := make([]int, n)
	var norm float64
	for j := 0; j < m; j++ {
		row := rows[j]
		phi := sys.Phi[j]
		for i := 0; i < n; i++ {
			avail[i] = sys.Mu[i] - loads[i] + row[i]*phi
		}
		tOld := noncoop.BestReplyTime(avail, row, phi)
		if err := noncoop.BestReplyInto(avail, phi, newRow, ord); err != nil {
			tb.Fatal(err)
		}
		norm += math.Abs(noncoop.BestReplyTime(avail, newRow, phi) - tOld)
		for i := 0; i < n; i++ {
			loads[i] += (newRow[i] - row[i]) * phi
		}
		copy(row, newRow)
	}
	return norm
}

type distRun struct {
	wall   time.Duration
	sweeps int // unit of convergence work: best-reply sweeps completed
	rounds int // flat: == sweeps; sharded: reconciliation cycles
	norm   float64
	msgs   int64
	bytes  int64
	prof   gtlb.Profile
}

func runFlat(tb testing.TB, netw gtlb.Network, sys gtlb.MultiSystem, eps float64, seed uint64) distRun {
	tb.Helper()
	cnt := dist.NewCountingNetwork(netw)
	start := time.Now()
	res, err := gtlb.RunNashRing(cnt, sys,
		gtlb.WithEpsilon(eps), gtlb.WithMaxIter(100_000),
		gtlb.WithRingOptions(gtlb.NashRingOptions{Seed: seed, Deadline: 10 * time.Minute}))
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("flat NASH: %v", err)
	}
	msgs, bytes := cnt.Totals()
	return distRun{wall: wall, sweeps: res.Iterations, rounds: res.Iterations,
		msgs: msgs, bytes: bytes, prof: res.Profile}
}

// chaosShardOptions are the hardening knobs for fault-injected runs:
// tight timeouts so a dropped message costs milliseconds, not the
// 2-second production watchdog, and a retry budget generous enough
// that bursts of drops do not eject healthy nodes.
func chaosShardOptions(seed uint64) gtlb.ShardOptions {
	return gtlb.ShardOptions{
		Seed:         seed,
		Watchdog:     50 * time.Millisecond,
		ProbeTimeout: 10 * time.Millisecond,
		MaxAttempts:  6,
		Deadline:     10 * time.Minute,
	}
}

func runSharded(tb testing.TB, netw gtlb.Network, sys gtlb.MultiSystem, eps float64, so gtlb.ShardOptions, chaos *gtlb.FaultPlan) distRun {
	tb.Helper()
	cnt := dist.NewCountingNetwork(netw)
	opts := []gtlb.Option{
		gtlb.WithEpsilon(eps), gtlb.WithMaxIter(100_000),
		gtlb.WithShardOptions(so),
	}
	if chaos != nil {
		opts = append(opts, gtlb.WithFaultPlan(*chaos))
	}
	start := time.Now()
	res, err := gtlb.RunNashSharded(cnt, sys, opts...)
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("sharded NASH: %v", err)
	}
	msgs, bytes := cnt.Totals()
	return distRun{wall: wall, sweeps: res.Sweeps, rounds: res.Rounds,
		norm: res.Norm, msgs: msgs, bytes: bytes, prof: res.Profile}
}

func addDistEntry(report *benchio.Report, name string, r distRun, extra map[string]float64) {
	if extra == nil {
		extra = map[string]float64{}
	}
	extra["sweeps_to_eps"] = float64(r.sweeps)
	extra["rounds"] = float64(r.rounds)
	extra["final_norm"] = r.norm
	extra["messages"] = float64(r.msgs)
	extra["payload_bytes"] = float64(r.bytes)
	if r.sweeps > 0 {
		extra["bytes_per_sweep"] = float64(r.bytes) / float64(r.sweeps)
		extra["msgs_per_sweep"] = float64(r.msgs) / float64(r.sweeps)
	}
	report.Add(name, float64(r.wall.Nanoseconds()), extra)
}

// TestBenchDistReport checks the convergence suite's claim in
// BENCH_DIST.json; under -bench.write it first runs the full suite and
// rewrites the report. Sizes: flat mem at m ∈ {10,100,1000} (the flat ring
// at m=10000 would need hours — the point of the hierarchy), sharded
// mem at m ∈ {10,100,1000} plus m=10000 when GTLB_DIST_BENCH=1 (the
// committed report includes it), TCP through m=1000, and a chaos
// variant of the sharded runtime on mem. Asserts the tentpole speedup:
// sharded ≥ 10× faster than flat in wall-clock at m=1000 with
// equilibrium quality in the same ε class.
func TestBenchDistReport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report skipped in -short mode")
	}
	report := benchReport(t, "BENCH_DIST.json", func() benchio.Report { return measureDistReport(t) })
	speedup := benchEntry(t, report, "dist.nash/sharded/mem/m=1000").Extra["speedup_vs_flat"]
	t.Logf("m=1000 sharded speedup vs flat: %.1fx", speedup)
	if speedup < 10 {
		t.Errorf("sharded runtime is %.1fx faster than the flat ring at m=1000; the hierarchy promises >= 10x", speedup)
	}
}

// measureDistReport runs the convergence suite behind BENCH_DIST.json.
func measureDistReport(t *testing.T) benchio.Report {
	report := benchio.NewReport()
	flatWall := map[int]time.Duration{}

	for _, m := range []int{10, 100, 1000} {
		sys := distBenchSystem(t, m)
		eps := distBenchEps(m)
		r := runFlat(t, gtlb.NewMemNetwork(), sys, eps, 1)
		gap := bestReplyGap(t, sys, r.prof)
		flatWall[m] = r.wall
		addDistEntry(&report, fmt.Sprintf("dist.nash/flat/mem/m=%d", m), r,
			map[string]float64{"bestreply_gap": gap})
		t.Logf("flat/mem/m=%d: %v, %d sweeps, norm %.3g, gap %.3g", m, r.wall, r.sweeps, r.norm, gap)
	}

	shardSizes := []int{10, 100, 1000}
	if os.Getenv("GTLB_DIST_BENCH") != "" {
		shardSizes = append(shardSizes, 10000)
	}
	for _, m := range shardSizes {
		sys := distBenchSystem(t, m)
		eps := distBenchEps(m)
		r := runSharded(t, gtlb.NewMemNetwork(), sys, eps,
			gtlb.ShardOptions{Seed: 1, Deadline: 10 * time.Minute}, nil)
		gap := bestReplyGap(t, sys, r.prof)
		extra := map[string]float64{"bestreply_gap": gap}
		if fw, ok := flatWall[m]; ok {
			extra["speedup_vs_flat"] = float64(fw) / float64(r.wall)
		}
		addDistEntry(&report, fmt.Sprintf("dist.nash/sharded/mem/m=%d", m), r, extra)
		t.Logf("sharded/mem/m=%d: %v, %d rounds / %d sweeps, norm %.3g, gap %.3g",
			m, r.wall, r.rounds, r.sweeps, r.norm, gap)
	}

	// TCP loopback: flat through m=100 (the flat ring over sockets at
	// m=1000 is minutes of wall-clock for no extra information), the
	// sharded runtime through m=1000.
	for _, m := range []int{10, 100} {
		sys := distBenchSystem(t, m)
		netw, _, closeFn, err := dist.NewTCPNetwork("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r := runFlat(t, netw, sys, distBenchEps(m), 1)
		_ = closeFn()
		addDistEntry(&report, fmt.Sprintf("dist.nash/flat/tcp/m=%d", m), r, nil)
		t.Logf("flat/tcp/m=%d: %v, %d sweeps", m, r.wall, r.sweeps)
	}
	for _, m := range []int{10, 100, 1000} {
		sys := distBenchSystem(t, m)
		netw, _, closeFn, err := dist.NewTCPNetwork("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r := runSharded(t, netw, sys, distBenchEps(m),
			gtlb.ShardOptions{Seed: 1, Deadline: 10 * time.Minute}, nil)
		_ = closeFn()
		addDistEntry(&report, fmt.Sprintf("dist.nash/sharded/tcp/m=%d", m), r, nil)
		t.Logf("sharded/tcp/m=%d: %v, %d rounds / %d sweeps", m, r.wall, r.rounds, r.sweeps)
	}

	// Chaos tier: seeded drop/delay/duplicate faults on mem. The runs
	// still converge; the report records the fault tax in sweeps and
	// wall-clock.
	for _, m := range []int{10, 100, 1000} {
		sys := distBenchSystem(t, m)
		plan := gtlb.FaultPlan{Seed: 7, Drop: 0.002, Delay: 0.05, MaxDelay: 2 * time.Millisecond, Duplicate: 0.005}
		r := runSharded(t, gtlb.NewMemNetwork(), sys, distBenchEps(m), chaosShardOptions(1), &plan)
		addDistEntry(&report, fmt.Sprintf("dist.nash/sharded/mem/m=%d/chaos", m), r, nil)
		t.Logf("sharded/mem/m=%d/chaos: %v, %d rounds / %d sweeps, norm %.3g",
			m, r.wall, r.rounds, r.sweeps, r.norm)
	}

	return report
}

// TestDistScaleSmoke is the CI tier of the scale suite: sharded runs at
// m ∈ {10,100,1000} on mem (fault-free and under chaos) must converge
// to their ε with equilibrium quality in the same class. Fast enough
// for -race.
func TestDistScaleSmoke(t *testing.T) {
	for _, m := range []int{10, 100, 1000} {
		m := m
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			sys := distBenchSystem(t, m)
			eps := distBenchEps(m)
			r := runSharded(t, gtlb.NewMemNetwork(), sys, eps,
				gtlb.ShardOptions{Seed: 1, Deadline: 10 * time.Minute}, nil)
			if r.norm > eps {
				t.Errorf("converged norm %.3g exceeds eps %.3g", r.norm, eps)
			}
			gap := bestReplyGap(t, sys, r.prof)
			// One more best-reply sweep from the accepted profile moves
			// total time by at most a small multiple of ε (the skip rule
			// allows ~2·eps of slack on top of the acceptance norm).
			if gap > 4*eps {
				t.Errorf("best-reply gap %.3g exceeds 4·eps = %.3g", gap, 4*eps)
			}
			plan := gtlb.FaultPlan{Seed: uint64(m), Drop: 0.002, Delay: 0.05, MaxDelay: time.Millisecond, Duplicate: 0.005}
			rc := runSharded(t, gtlb.NewMemNetwork(), sys, eps, chaosShardOptions(2), &plan)
			if rc.norm > eps {
				t.Errorf("chaos run norm %.3g exceeds eps %.3g", rc.norm, eps)
			}
		})
	}
}
