package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gtlb/internal/mechanism"
	"gtlb/internal/metrics"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The chaos soak drives both hardened protocols, on both transports,
// through a sweep of seeded fault schedules. The oracle for every run:
// either the protocol converges to the correct equilibrium (of the full
// system, or of the reduced system after ejections/exclusions), or it
// returns a typed fault error — and it always terminates, which the
// test (and CI) timeout enforces as the no-deadlock oracle.

// typedFaultErr reports whether err is one of the declared degradation
// errors a chaos run may legitimately end with.
func typedFaultErr(err error) bool {
	return errors.Is(err, ErrInsufficientCapacity) ||
		errors.Is(err, ErrStalled) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrCrashed) ||
		errors.Is(err, ErrClosed)
}

// soakTally counts one transport's NASH soak outcomes: converged with
// every user, converged after ejections, ended in a typed fault error,
// or failed the oracle.
type soakTally struct{ ok, ejected, typed, failed int }

func (c *soakTally) add(res NashShardedResult, runErr, oErr error) {
	switch {
	case oErr != nil:
		c.failed++
	case runErr != nil:
		c.typed++
	case len(res.Ejected) > 0:
		c.ejected++
	default:
		c.ok++
	}
}

// logTallies prints each transport's tally (go test -v shows them).
func logTallies(t *testing.T, soak string, tallies map[string]*soakTally) {
	t.Helper()
	for _, transport := range []string{"mem", "tcp"} {
		c := tallies[transport]
		t.Logf("%s %s: ok %d, ejected %d, typed %d, oracle failures %d", soak, transport, c.ok, c.ejected, c.typed, c.failed)
	}
}

// soakPlan derives one fault schedule from a seed. Everything comes from
// the seeded stream, so a seed fully identifies its schedule.
func soakPlan(seed uint64) FaultPlan {
	rng := queueing.NewRNG(seed).Split(7)
	plan := FaultPlan{
		Seed:      seed,
		Drop:      0.08 * rng.Float64(),
		Delay:     0.3 * rng.Float64(),
		MaxDelay:  2 * time.Millisecond,
		Duplicate: 0.1 * rng.Float64(),
		Reorder:   0.06 * rng.Float64(),
	}
	// Crash one node in ~30% of schedules; any node is fair game —
	// crashing the ring's leader (shard-0) or the dispatcher must end in
	// a typed error, any other crash in a degraded success or a typed
	// error. The list keeps its length and order, so each seed's
	// schedule is unchanged for every other victim.
	victims := []string{
		userName(0), userName(1), userName(2), shardName(0),
		"dispatcher", computerName(0), computerName(3),
	}
	if rng.Float64() < 0.3 {
		v := victims[int(rng.Float64()*float64(len(victims)))%len(victims)]
		plan.Crash = map[string]int{v: int(rng.Float64() * 10)}
	}
	// Cut one node off for a window of traffic in ~25% of schedules.
	if rng.Float64() < 0.25 {
		v := victims[int(rng.Float64()*float64(len(victims)))%len(victims)]
		from := int(rng.Float64() * 6)
		plan.Partition = &PartitionPlan{
			Nodes: []string{v},
			From:  from,
			To:    from + 1 + int(rng.Float64()*10),
		}
	}
	return plan
}

// writeChaosArtifact records a failing schedule so it can be replayed:
// to CHAOS_ARTIFACT_DIR when set (CI uploads it), else the test tmpdir.
func writeChaosArtifact(t *testing.T, label string, plan FaultPlan, ctr *obs.Registry, runErr error) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	errStr := ""
	if runErr != nil {
		errStr = runErr.Error()
	}
	blob, err := json.MarshalIndent(struct {
		Label    string
		Plan     FaultPlan
		Counters []obs.Counter
		Err      string
	}{label, plan, ctr.Snapshot(), errStr}, "", "  ")
	if err != nil {
		t.Errorf("marshal artifact: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-%s-seed-%d.json", label, plan.Seed))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Errorf("write artifact: %v", err)
		return
	}
	t.Logf("failing fault schedule written to %s", path)
}

// nashOracle validates one NASH ring soak run against the fault-free
// reference equilibrium (or the reduced system's, after ejections).
func nashOracle(sys noncoop.System, ref NashShardedResult, res NashShardedResult, err error) error {
	if err != nil {
		if !typedFaultErr(err) {
			return fmt.Errorf("untyped failure: %w", err)
		}
		return nil
	}
	if len(res.Ejected) == 0 {
		ok, eqErr := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-6)
		if eqErr != nil {
			return eqErr
		}
		if !ok {
			return errors.New("converged profile is not a Nash equilibrium")
		}
		if d := metrics.LInfNorm(sys.Loads(res.Profile), sys.Loads(ref.Profile)); d > 1e-6 {
			return fmt.Errorf("loads differ from fault-free equilibrium by %g", d)
		}
		return nil
	}
	// Ejections: survivors must sit at the reduced system's equilibrium.
	return survivorsAtBestReply(sys, res, 1e-6)
}

// lbmOracle validates one LBM soak run: the outcome must equal the
// mechanism run on the responsive subset (the full set when nothing was
// excluded), with truthful bids — so honest payments are unchanged.
func lbmOracle(trueVals []float64, phi float64, res LBMResult, err error) error {
	if err != nil {
		if !typedFaultErr(err) {
			return fmt.Errorf("untyped failure: %w", err)
		}
		return nil
	}
	excluded := make(map[int]bool, len(res.Excluded))
	for _, i := range res.Excluded {
		excluded[i] = true
	}
	var subBids, subTrue []float64
	for i, v := range trueVals {
		if !excluded[i] {
			subBids = append(subBids, v)
			subTrue = append(subTrue, v)
		}
	}
	want, mErr := mechanism.Mechanism{Phi: phi}.Run(subBids, subTrue)
	if mErr != nil {
		return fmt.Errorf("reference mechanism: %w", mErr)
	}
	k := 0
	for i := range trueVals {
		if excluded[i] {
			if res.Outcome.Loads[i] != 0 || res.Outcome.Payments[i] != 0 {
				return fmt.Errorf("excluded computer %d was awarded", i)
			}
			continue
		}
		if math.Abs(res.Outcome.Loads[i]-want.Loads[k]) > 1e-9 ||
			math.Abs(res.Outcome.Payments[i]-want.Payments[k]) > 1e-9 {
			return fmt.Errorf("computer %d outcome deviates from the subset mechanism", i)
		}
		k++
	}
	return nil
}

// soakNetwork builds the transport under test, wrapped in the chaos
// decorator; cleanup closes the broker for the TCP case.
func soakNetwork(t *testing.T, transport string, plan FaultPlan, ctr *obs.Registry) (Network, func()) {
	t.Helper()
	switch transport {
	case "mem":
		return NewChaosNetwork(NewMemNetwork(), plan, ctr), func() {}
	case "tcp":
		inner, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return NewChaosNetwork(inner, plan, ctr), func() {
			_ = closeFn()
		}
	default:
		t.Fatalf("unknown transport %q", transport)
		return nil, nil
	}
}

func TestChaosSoak(t *testing.T) {
	t.Parallel()
	seeds := 50
	if testing.Short() {
		seeds = 8
	}

	nashSys := soakNashSystem(t)
	nashRef, err := RunNashShardedWith(NewMemNetwork(), nashSys, nil, 1e-9, 0, ShardOptions{Shards: 1, LocalSweeps: 1})
	if err != nil {
		t.Fatalf("fault-free NASH reference: %v", err)
	}
	lbmTrue := table51Values()[:6]
	var lbmCap float64
	for _, v := range lbmTrue {
		lbmCap += 1 / v
	}
	lbmPhi := 0.5 * lbmCap

	nashOpts := func(seed uint64, ctr *obs.Registry) ShardOptions {
		return ShardOptions{
			Shards:       1,
			LocalSweeps:  1,
			Watchdog:     60 * time.Millisecond,
			ProbeTimeout: 15 * time.Millisecond,
			MaxAttempts:  3,
			Deadline:     2 * time.Second,
			Seed:         seed,
			Observer:     ctr,
		}
	}
	lbmOpts := func(seed uint64, ctr *obs.Registry) LBMOptions {
		return LBMOptions{
			BidDeadline: 30 * time.Millisecond,
			MaxAttempts: 3,
			Backoff:     8 * time.Millisecond,
			BackoffCap:  60 * time.Millisecond,
			Seed:        seed,
			AgentBudget: 300 * time.Millisecond,
			Observer:    ctr,
		}
	}

	tallies := map[string]*soakTally{"mem": {}, "tcp": {}}
	for s := 0; s < seeds; s++ {
		seed := uint64(1000 + s)
		plan := soakPlan(seed)
		for _, transport := range []string{"mem", "tcp"} {
			label := fmt.Sprintf("nash-%s", transport)
			func() {
				ctr := obs.NewRegistry()
				netw, cleanup := soakNetwork(t, transport, plan, ctr)
				defer cleanup()
				res, runErr := RunNashShardedWith(netw, nashSys, nil, 1e-9, 0, nashOpts(seed, ctr))
				oErr := nashOracle(nashSys, nashRef, res, runErr)
				tallies[transport].add(res, runErr, oErr)
				if oErr != nil {
					writeChaosArtifact(t, label, plan, ctr, runErr)
					t.Errorf("seed %d %s: %v (run err: %v, counters %s)", seed, label, oErr, runErr, ctr)
				}
			}()
			label = fmt.Sprintf("lbm-%s", transport)
			func() {
				ctr := obs.NewRegistry()
				netw, cleanup := soakNetwork(t, transport, plan, ctr)
				defer cleanup()
				policies := make([]BidPolicy, len(lbmTrue))
				res, runErr := RunLBMWith(netw, lbmTrue, policies, lbmPhi, lbmOpts(seed, ctr))
				if oErr := lbmOracle(lbmTrue, lbmPhi, res, runErr); oErr != nil {
					writeChaosArtifact(t, label, plan, ctr, runErr)
					t.Errorf("seed %d %s: %v (run err: %v, counters %s)", seed, label, oErr, runErr, ctr)
				}
			}()
		}
	}
	logTallies(t, "nash", tallies)
}
