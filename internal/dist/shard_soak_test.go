package dist

import (
	"fmt"
	"testing"
	"time"

	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The sharded chaos soak drives the hierarchical NASH protocol through
// a sweep of seeded fault schedules that target both levels of the
// hierarchy: member crashes inside a shard, shard-leader crashes (taking the
// whole shard out), root-link partitions, and leader-link partitions —
// on top of ambient drop/delay/duplicate/reorder noise. The oracle for
// every run: either the protocol converges with every survivor at the
// (possibly reduced) system's equilibrium, or it returns a typed fault
// error — and it always terminates, which the test (and CI) timeout
// enforces as the no-deadlock oracle.

// shardSoakPlan derives one two-level fault schedule from a seed.
// Everything comes from the seeded stream, so a seed fully identifies
// its schedule.
func shardSoakPlan(seed uint64, m, shards int) FaultPlan {
	rng := queueing.NewRNG(seed).Split(9)
	plan := FaultPlan{
		Seed:      seed,
		Drop:      0.05 * rng.Float64(),
		Delay:     0.3 * rng.Float64(),
		MaxDelay:  2 * time.Millisecond,
		Duplicate: 0.08 * rng.Float64(),
		Reorder:   0.05 * rng.Float64(),
	}
	// Victims across both levels: shard members, shard leaders and the
	// root itself. Crashing a member ejects it; crashing a leader ejects
	// its shard; crashing the root must end in a typed error.
	victims := make([]string, 0, m+shards+1)
	for j := 0; j < m; j++ {
		victims = append(victims, userName(j))
	}
	for g := 0; g < shards; g++ {
		victims = append(victims, shardName(g))
	}
	victims = append(victims, rootName)
	// Crash one node in ~40% of schedules.
	if rng.Float64() < 0.4 {
		v := victims[int(rng.Float64()*float64(len(victims)))%len(victims)]
		plan.Crash = map[string]int{v: int(rng.Float64() * 40)}
	}
	// Cut one node off for a window of traffic in ~35% of schedules —
	// a member losing its shard link, a leader losing the root link, or
	// the root going dark for a stretch.
	if rng.Float64() < 0.35 {
		v := victims[int(rng.Float64()*float64(len(victims)))%len(victims)]
		from := int(rng.Float64() * 60)
		plan.Partition = &PartitionPlan{
			Nodes: []string{v},
			From:  from,
			To:    from + 1 + int(rng.Float64()*40),
		}
	}
	return plan
}

// shardedOracle validates one sharded soak run: a typed fault error, or
// convergence with every surviving user at (within tol) a best reply to
// the published profile and every ejected user carrying zero load.
func shardedOracle(sys noncoop.System, res NashShardedResult, err error) error {
	if err != nil {
		if !typedFaultErr(err) {
			return fmt.Errorf("untyped failure: %w", err)
		}
		return nil
	}
	// The tolerance is looser than the ring soak's: after a mid-run
	// shard ejection the survivors re-converge from the reduced system's
	// resync point, and the expected-time plateau around the equilibrium
	// leaves individual users ~1e-6 from their exact best reply at the
	// 1e-9 load-norm stop.
	return survivorsAtBestReply(sys, res, 1e-5)
}

func TestShardedChaosSoak(t *testing.T) {
	t.Parallel()
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	const m, shards = 9, 3
	sys := shardTestSystem(t, m)

	opts := func(seed uint64, ctr *obs.Registry) ShardOptions {
		return ShardOptions{
			Shards:       shards,
			Watchdog:     50 * time.Millisecond,
			ProbeTimeout: 10 * time.Millisecond,
			MaxAttempts:  3,
			Deadline:     2 * time.Second,
			Seed:         seed,
			Observer:     ctr,
		}
	}

	tallies := map[string]*soakTally{"mem": {}, "tcp": {}}
	for s := 0; s < seeds; s++ {
		seed := uint64(5000 + s)
		plan := shardSoakPlan(seed, m, shards)
		transports := []string{"mem"}
		if s%5 == 0 {
			transports = append(transports, "tcp")
		}
		for _, transport := range transports {
			label := fmt.Sprintf("sharded-%s", transport)
			func() {
				ctr := obs.NewRegistry()
				netw, cleanup := soakNetwork(t, transport, plan, ctr)
				defer cleanup()
				res, runErr := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts(seed, ctr))
				oErr := shardedOracle(sys, res, runErr)
				tallies[transport].add(res, runErr, oErr)
				if oErr != nil {
					writeChaosArtifact(t, label, plan, ctr, runErr)
					t.Errorf("seed %d %s: %v (run err: %v, counters %s)", seed, label, oErr, runErr, ctr)
				}
			}()
		}
	}
	logTallies(t, "sharded", tallies)
}
