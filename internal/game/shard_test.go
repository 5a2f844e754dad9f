package game

import (
	"errors"
	"math"
	"testing"

	"gtlb/internal/noncoop"
	"gtlb/internal/queueing"
)

// shardOracleSystem builds an m-user, 4-computer system with distinct
// arrival rates and ample headroom (the same shape the dist tests use).
func shardOracleSystem(t *testing.T, m int) noncoop.System {
	t.Helper()
	mu := []float64{30, 20, 15, 10}
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = (1.0 + 0.3*float64(j%7)) * 30 / float64(m)
	}
	sys, err := noncoop.NewSystem(mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDefaultShardCount(t *testing.T) {
	t.Parallel()
	cases := []struct{ m, want int }{
		{1, 1}, {32, 1}, {33, 2}, {100, 4}, {1000, 32}, {10000, 313}, {1 << 20, 512},
	}
	for _, c := range cases {
		if got := DefaultShardCount(c.m); got != c.want {
			t.Errorf("DefaultShardCount(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

// TestPlanShards: contiguous cover of 0..m-1, sizes within one of each
// other, g clamped to [1, m].
func TestPlanShards(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ m, g int }{
		{10, 3}, {9, 3}, {1, 5}, {7, 0}, {100, 7}, {5, 5},
	} {
		shards := PlanShards(c.m, c.g)
		wantG := c.g
		if wantG < 1 {
			wantG = 1
		}
		if wantG > c.m {
			wantG = c.m
		}
		if len(shards) != wantG {
			t.Fatalf("PlanShards(%d,%d): %d shards, want %d", c.m, c.g, len(shards), wantG)
		}
		next, minSz, maxSz := 0, c.m, 0
		for _, members := range shards {
			if len(members) < minSz {
				minSz = len(members)
			}
			if len(members) > maxSz {
				maxSz = len(members)
			}
			for _, j := range members {
				if j != next {
					t.Fatalf("PlanShards(%d,%d): member %d out of order (want %d)", c.m, c.g, j, next)
				}
				next++
			}
		}
		if next != c.m {
			t.Fatalf("PlanShards(%d,%d): covered %d users, want %d", c.m, c.g, next, c.m)
		}
		if maxSz-minSz > 1 {
			t.Errorf("PlanShards(%d,%d): shard sizes range %d..%d, want within 1", c.m, c.g, minSz, maxSz)
		}
	}
}

// TestShardedMatchesFlatNash: the sharded fixed point is the flat
// best-reply iteration's Nash equilibrium, across local-sweep budgets
// and shard counts. The equilibrium is unique, so the profiles must
// agree elementwise.
func TestShardedMatchesFlatNash(t *testing.T) {
	t.Parallel()
	const m, eps = 24, 1e-10
	sys := shardOracleSystem(t, m)
	flat, err := noncoop.Nash(sys, noncoop.NashOptions{Eps: eps, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		opt  ShardedOpts
	}{
		{"sequential-1sweep", ShardedOpts{LocalSweeps: 1}},
		{"sequential-default", ShardedOpts{}},
	} {
		for _, g := range []int{4, 8, 16, 24} {
			res, err := ShardedBestReply(sys, PlanShards(m, g), eps, 100000, c.opt)
			if err != nil {
				t.Fatalf("%s G=%d: %v", c.name, g, err)
			}
			if res.Norm > eps {
				t.Errorf("%s G=%d: final norm %g > eps %g", c.name, g, res.Norm, eps)
			}
			for j := range flat.Profile.S {
				for i := range flat.Profile.S[j] {
					if d := math.Abs(res.Profile.S[j][i] - flat.Profile.S[j][i]); d > 1e-6 {
						t.Errorf("%s G=%d: profile[%d][%d] off flat equilibrium by %g", c.name, g, j, i, d)
					}
				}
			}
		}
	}
}

// TestShardedSkipKeepsEquilibrium: active-set skipping (a quiesced
// shard whose view of the global loads has barely moved is not
// activated) must not degrade the fixed point — the skip tolerance is
// the shard's population share of eps, so the answer stays an
// eps-class equilibrium. The 160 small users of the repository's NASH
// benchmark system on 8 shards exercise the skip path: at one sweep per
// activation a round with no skip runs one sweep per shard, so fewer
// sweeps than rounds·shards means a shard sat a round out.
func TestShardedSkipKeepsEquilibrium(t *testing.T) {
	t.Parallel()
	const m, shards, eps = 160, 8, 1.6e-3
	rng := queueing.NewRNG(1)
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = (1 + 0.3*float64(j%7)) * 30 / float64(m) * (1 + 1e-3*(2*rng.Float64()-1))
	}
	sys, err := noncoop.NewSystem([]float64{30, 20, 15, 10}, phi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ShardedBestReply(sys, PlanShards(m, shards), eps, 0, ShardedOpts{LocalSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps >= res.Rounds*shards {
		t.Errorf("%d sweeps in %d rounds of %d shards; want a skipped activation", res.Sweeps, res.Rounds, shards)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("sharded profile with skipping is not a Nash equilibrium")
	}
}

// TestShardedSweepBudgetTradeoff documents the LocalSweeps=4 default:
// on a system whose stop takes hundreds of rounds, a larger
// per-activation budget must not need more total sweeps than budget 1
// (2,747 against 7,704 here), while reaching the same equilibrium
// class. Where the end-of-round norm stops within a dozen rounds
// budget 1 takes fewer: at m=1000 and eps=1e-3 on 32 shards, budget 4
// takes 501 sweeps, its shards ending activations on stalled sweeps
// (773 without that stop), and budget 1 takes 359.
func TestShardedSweepBudgetTradeoff(t *testing.T) {
	t.Parallel()
	const m, eps = 64, 1e-9
	sys := shardOracleSystem(t, m)
	one, err := ShardedBestReply(sys, PlanShards(m, 4), eps, 100000, ShardedOpts{LocalSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ShardedBestReply(sys, PlanShards(m, 4), eps, 100000, ShardedOpts{LocalSweeps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.Sweeps > one.Sweeps {
		t.Errorf("LocalSweeps=4 used %d sweeps, more than LocalSweeps=1's %d", four.Sweeps, one.Sweeps)
	}
	if four.Rounds >= one.Rounds {
		t.Errorf("LocalSweeps=4 used %d rounds, want fewer than LocalSweeps=1's %d", four.Rounds, one.Rounds)
	}
}

// TestShardSweepsStopWhenStalled pins the oracle's rounds and sweeps
// on perfbench's system (seed 1, eps = 1e-6·m) under the stall stop: a
// shard that does not hold every user ends its activation once a
// sweep shrinks its norm by less than half. Multi-shard plans move
// (old → new rounds/sweeps: m=1000 on 32 shards 11/773 → 9/503, on 8
// shards 51/733 → 30/249, m=64 on 2 shards 51/407 → 67/301); m=10,000
// stops in its first round either way, and a one-shard plan, which has
// no external view to go stale, is unchanged (m=32: 47/188; with the
// stall stop applied there too it would take 93 rounds). Every profile
// passes the certificate.
func TestShardSweepsStopWhenStalled(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		m, shards      int
		rounds, sweeps int
	}{
		{1000, 32, 9, 503},
		{1000, 8, 30, 249},
		{64, 2, 67, 301},
		{10000, DefaultShardCount(10000), 1, 490},
		{32, 1, 47, 188},
	} {
		sys, eps := jitteredSystem(t, c.m, 1), 1e-6*float64(c.m)
		res, err := ShardedBestReply(sys, PlanShards(c.m, c.shards), eps, 0, ShardedOpts{})
		if err != nil {
			t.Fatalf("m=%d on %d shards: %v", c.m, c.shards, err)
		}
		if res.Rounds != c.rounds || res.Sweeps != c.sweeps {
			t.Errorf("m=%d on %d shards: %d rounds, %d sweeps; want %d, %d",
				c.m, c.shards, res.Rounds, res.Sweeps, c.rounds, c.sweeps)
		}
		if gap, err := noncoop.Gap(sys, res.Profile); err != nil || gap > GapFactor*eps {
			t.Errorf("m=%d on %d shards: gap %g, %v; want <= %g", c.m, c.shards, gap, err, GapFactor*eps)
		}
	}
}

// TestShardedStopsOnEndOfRoundNorm: on the m=1000 system of the
// repository's NASH benchmarks (ε = 1e-6·m) the token norm, which adds
// each user's |ΔD_j| against loads still moving, needs 51 rounds on the
// default plan and 1,263 on the §4.3 ring, while the end-of-round norm
// reaches ε within a dozen. Both plans must stop on it with a profile
// that passes the certificate. On the ring the end-of-round norm is
// noncoop.Nash's norm one round late, so the ring stops one round after
// the flat iteration.
func TestShardedStopsOnEndOfRoundNorm(t *testing.T) {
	t.Parallel()
	const m, eps = 1000, 1e-3
	sys := shardOracleSystem(t, m)
	for _, c := range []struct {
		name      string
		shards    int
		opt       ShardedOpts
		maxRounds int
	}{
		{"default", DefaultShardCount(m), ShardedOpts{}, 13},
		{"ring", 1, ShardedOpts{LocalSweeps: 1}, 15},
	} {
		res, err := ShardedBestReply(sys, PlanShards(m, c.shards), eps, 0, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gap, err := noncoop.Gap(sys, res.Profile)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d rounds, %d sweeps, norm %.3g, gap %.3g", c.name, res.Rounds, res.Sweeps, res.Norm, gap)
		if res.Rounds > c.maxRounds {
			t.Errorf("%s: %d rounds, want <= %d", c.name, res.Rounds, c.maxRounds)
		}
		if res.Norm > eps || gap > GapFactor*eps {
			t.Errorf("%s: norm %g, gap %g; want <= %g and <= %g", c.name, res.Norm, gap, eps, GapFactor*eps)
		}
		if c.shards == 1 {
			flat, err := noncoop.Nash(sys, noncoop.NashOptions{Init: noncoop.InitProportional, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != flat.Iterations+1 {
				t.Errorf("ring: %d rounds, want one more than noncoop.Nash's %d", res.Rounds, flat.Iterations)
			}
		}
	}
}

// jitteredSystem is the m-user, 4-computer system of the repository's
// NASH benchmark: seven rate classes, φ_j = (1+0.3·(j mod 7))·30/m,
// each rate scaled by a factor within 1 ± 1e-3 drawn from seed.
func jitteredSystem(t *testing.T, m int, seed uint64) noncoop.System {
	t.Helper()
	rng := queueing.NewRNG(seed)
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = (1 + 0.3*float64(j%7)) * 30 / float64(m) * (1 + 1e-3*(2*rng.Float64()-1))
	}
	sys, err := noncoop.NewSystem([]float64{30, 20, 15, 10}, phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFlatNashIsTheRing: flat noncoop.Nash is the §4.3 ring, the
// one-shard, one-sweep sharded solve, bit for bit. After k rounds of an
// eps neither can reach both hold the same profile; at the natural stop
// the ring reads the flat iteration's last norm one round late, because
// its end-of-round norm is the norm of the round before.
func TestFlatNashIsTheRing(t *testing.T) {
	t.Parallel()
	const never, eps = math.SmallestNonzeroFloat64, 1e-3
	for _, m := range []int{32, 1000} {
		sys := jitteredSystem(t, m, 1)
		ring := PlanShards(m, 1)
		one := ShardedOpts{LocalSweeps: 1}
		for _, k := range []int{1, 3, 7} {
			flat, err := noncoop.Nash(sys, noncoop.NashOptions{Init: noncoop.InitProportional, Eps: never, MaxIter: k})
			if !errors.Is(err, noncoop.ErrNoConvergence) || flat.Iterations != k {
				t.Fatalf("m=%d k=%d: flat ran %d rounds, err %v", m, k, flat.Iterations, err)
			}
			res, err := ShardedBestReply(sys, ring, never, k, one)
			if err == nil || res.Rounds != k {
				t.Fatalf("m=%d k=%d: ring ran %d rounds, err %v", m, k, res.Rounds, err)
			}
			for j, row := range flat.Profile.S {
				for i, f := range row {
					if math.Float64bits(f) != math.Float64bits(res.Profile.S[j][i]) {
						t.Fatalf("m=%d k=%d: profile[%d][%d] flat %v, ring %v", m, k, j, i, f, res.Profile.S[j][i])
					}
				}
			}
		}

		flat, err := noncoop.Nash(sys, noncoop.NashOptions{Init: noncoop.InitProportional, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ShardedBestReply(sys, ring, eps, 0, one)
		if err != nil {
			t.Fatal(err)
		}
		last := flat.Norms[len(flat.Norms)-1]
		t.Logf("m=%d: flat stops at round %d, ring at %d, norm %.3g", m, flat.Iterations, res.Rounds, res.Norm)
		if math.Float64bits(res.Norm) != math.Float64bits(last) || res.Rounds != flat.Iterations+1 {
			t.Errorf("m=%d: ring stopped at round %d on norm %v; want round %d on flat's last norm %v",
				m, res.Rounds, res.Norm, flat.Iterations+1, last)
		}
	}
}
