package gtlb_test

// Convergence and wall-clock checks for the distributed NASH protocol
// (the flat §4.3 ring, run as one shard, vs the default sharded
// hierarchy). BenchmarkShardedVsFlat reports the hierarchy's speed-up
// over the ring; TestDistScaleSmoke is the fast CI tier (run under
// -race by the dist-scale-smoke job).

import (
	"fmt"
	"testing"
	"time"

	"gtlb"
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

type distRun struct {
	wall time.Duration
	norm float64
	prof gtlb.Profile
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

// runSharded solves with the sharded hierarchy on the mem transport.
func runSharded(tb testing.TB, sys gtlb.MultiSystem, eps float64, so gtlb.ShardOptions, chaos *gtlb.FaultPlan) distRun {
	tb.Helper()
	opts := []gtlb.Option{
		gtlb.WithEpsilon(eps), gtlb.WithMaxIter(100_000),
		gtlb.WithShardOptions(so),
	}
	if chaos != nil {
		opts = append(opts, gtlb.WithFaultPlan(*chaos))
	}
	start := time.Now()
	res, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys, opts...)
	wall := time.Since(start)
	if err != nil {
		tb.Fatalf("sharded NASH: %v", err)
	}
	return distRun{wall: wall, norm: res.Norm, prof: res.Profile}
}

// BenchmarkShardedVsFlat times NASH to ε(m) on the mem transport. At
// m=1000 each iteration runs the flat §4.3 ring (one shard, one sweep
// per round) and the default sharded hierarchy once, and reports both
// wall clocks and their ratio. At m=10000 only the hierarchy runs. Run
// it with -benchtime 1x.
func BenchmarkShardedVsFlat(b *testing.B) {
	shardOpts := gtlb.ShardOptions{Seed: 1, Deadline: 10 * time.Minute}
	flatOpts := gtlb.ShardOptions{Shards: 1, LocalSweeps: 1, Seed: 1, Deadline: 10 * time.Minute}
	b.Run("m=1000", func(b *testing.B) {
		sys, eps := distBenchSystem(b, 1000), distBenchEps(1000)
		var flatWall, shardedWall time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flatWall += runSharded(b, sys, eps, flatOpts, nil).wall
			shardedWall += runSharded(b, sys, eps, shardOpts, nil).wall
		}
		b.ReportMetric(flatWall.Seconds()/float64(b.N), "flat-s/op")
		b.ReportMetric(shardedWall.Seconds()/float64(b.N), "sharded-s/op")
		b.ReportMetric(float64(flatWall)/float64(shardedWall), "speedup-x")
	})
	b.Run("m=10000", func(b *testing.B) {
		sys, eps := distBenchSystem(b, 10000), distBenchEps(10000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSharded(b, sys, eps, shardOpts, nil)
		}
	})
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
			r := runSharded(t, sys, eps,
				gtlb.ShardOptions{Seed: 1, Deadline: 10 * time.Minute}, nil)
			if r.norm > eps {
				t.Errorf("converged norm %.3g exceeds eps %.3g", r.norm, eps)
			}
			gap, err := noncoop.Gap(sys, r.prof)
			if err != nil {
				t.Fatal(err)
			}
			// The runtime's stop certificate, re-checked from outside:
			// one more flat best-reply round from the accepted profile
			// moves total time by at most 4·ε.
			if gap > 4*eps {
				t.Errorf("best-reply gap %.3g exceeds 4·eps = %.3g", gap, 4*eps)
			}
			plan := gtlb.FaultPlan{Seed: uint64(m), Drop: 0.002, Delay: 0.05, MaxDelay: time.Millisecond, Duplicate: 0.005}
			rc := runSharded(t, sys, eps, chaosShardOptions(2), &plan)
			if rc.norm > eps {
				t.Errorf("chaos run norm %.3g exceeds eps %.3g", rc.norm, eps)
			}
		})
	}
}
