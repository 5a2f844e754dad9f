package dist

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gtlb/internal/game"
	"gtlb/internal/metrics"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
)

// The §4.3 NASH ring is the hierarchy run as one shard with one sweep
// per round: shard-0 leads the ring of users and the root closes each
// round on the Σ|ΔD_j| ≤ eps stop test. These tests pin the ring's
// behaviour: its fixed points, its round counts, checkpoint resume and
// its fault handling.

// ringOptions is the §4.3 ring with the production fault-tolerance
// defaults.
func ringOptions() ShardOptions { return ShardOptions{Shards: 1, LocalSweeps: 1} }

// fastRingOptions is the ring with short fault-detection timeouts. The
// root's watchdog is shorter than the retry budget the leader spends on
// a lost token and then on a silent member's sync; the leader's
// hier.alive answers keep the root waiting meanwhile.
func fastRingOptions(o obs.Observer) ShardOptions {
	return ShardOptions{
		Shards:       1,
		LocalSweeps:  1,
		Watchdog:     60 * time.Millisecond,
		ProbeTimeout: 15 * time.Millisecond,
		MaxAttempts:  3,
		Deadline:     10 * time.Second,
		Observer:     o,
	}
}

func runRing(netw Network, sys noncoop.System, initial *noncoop.Profile, eps float64, maxRounds int) (NashShardedResult, error) {
	return RunNashShardedWith(netw, sys, initial, eps, maxRounds, ringOptions())
}

// TestNashRingMatchesCentralized: the distributed protocol must reach the
// same equilibrium as the centralized iteration of internal/noncoop.
func TestNashRingMatchesCentralized(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.6)
	res, err := runRing(NewMemNetwork(), sys, nil, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateProfile(res.Profile); err != nil {
		t.Fatalf("ring profile infeasible: %v", err)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ring result is not a Nash equilibrium")
	}
	central, err := noncoop.Nash(sys, noncoop.NashOptions{Init: noncoop.InitProportional, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.LInfNorm(sys.Loads(res.Profile), sys.Loads(central.Profile))
	if d > 1e-6 {
		t.Errorf("ring and centralized equilibria differ by %v", d)
	}
	if res.Rounds == 0 {
		t.Error("ring reported zero rounds")
	}
}

// TestNashRingRoundCounts pins the ring's round counts on the paper's
// systems and tolerances, and the split of a budget-cut run resumed
// from its checkpoint. The ring stops on the end-of-round norm a few
// rounds before the token norm, which alone took the 112, 84 and 71
// rounds of the state-node ring it replaced.
func TestNashRingRoundCounts(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name   string
		sys    noncoop.System
		eps    float64
		rounds int
	}{
		{"paper-0.6", paperSystem(t, 0.6), 1e-9, 109},
		{"paper-0.5", paperSystem(t, 0.5), 1e-8, 80},
		{"shard-10", shardTestSystem(t, 10), 1e-9, 70},
	} {
		res, err := runRing(NewMemNetwork(), c.sys, nil, c.eps, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Rounds != c.rounds {
			t.Errorf("%s: %d rounds, want %d", c.name, res.Rounds, c.rounds)
		}
	}

	// A run cut at 20 rounds resumes to convergence in 89 more: the
	// 109 rounds of the uninterrupted run.
	sys := paperSystem(t, 0.6)
	cut, err := runRing(NewMemNetwork(), sys, nil, 1e-9, 20)
	if err == nil {
		t.Fatal("expected a budget failure at 20 rounds")
	}
	if cut.Rounds != 20 {
		t.Errorf("cut run: %d rounds, want 20", cut.Rounds)
	}
	resumed, err := runRing(NewMemNetwork(), sys, &cut.Profile, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds != 89 {
		t.Errorf("resumed run: %d rounds, want 89", resumed.Rounds)
	}
	direct, err := runRing(NewMemNetwork(), sys, nil, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.LInfNorm(sys.Loads(resumed.Profile), sys.Loads(direct.Profile)); d > 1e-12 {
		t.Errorf("resumed loads differ from the uninterrupted run's by %g", d)
	}
}

// TestNashRingStopsOnEndOfRoundNorm: on Figure 4.3's 32-user system at
// its 1e-4 tolerance the end-of-round norm reaches eps 17 rounds before
// the token norm, which alone takes 178. The run stops there, reports
// that norm, and stays bit-identical to the oracle: rounds, sweeps,
// norm and profile.
func TestNashRingStopsOnEndOfRoundNorm(t *testing.T) {
	t.Parallel()
	const m, eps = 32, 1e-4
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = 0.6 * 510 / m
	}
	sys, err := noncoop.NewSystem(paperSystem(t, 0.6).Mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := game.ShardedBestReply(sys, game.PlanShards(m, 1), eps, 0, game.ShardedOpts{LocalSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runRing(NewMemNetwork(), sys, nil, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 161 || got.Norm > eps {
		t.Errorf("%d rounds at norm %g, want 161 at <= %g", got.Rounds, got.Norm, eps)
	}
	if got.Rounds != want.Rounds || got.Sweeps != want.Sweeps || got.Norm != want.Norm {
		t.Errorf("rounds/sweeps/norm = %d/%d/%g, oracle %d/%d/%g",
			got.Rounds, got.Sweeps, got.Norm, want.Rounds, want.Sweeps, want.Norm)
	}
	for j := range want.Profile.S {
		for i := range want.Profile.S[j] {
			if got.Profile.S[j][i] != want.Profile.S[j][i] {
				t.Fatalf("profile[%d][%d] = %v, oracle %v (not bit-identical)", j, i, got.Profile.S[j][i], want.Profile.S[j][i])
			}
		}
	}
}

func TestNashRingOverTCP(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = closeFn() // test teardown
	}()
	sys := paperSystem(t, 0.5)
	res, err := runRing(netw, sys, nil, 1e-8, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("TCP ring result is not a Nash equilibrium")
	}
}

func TestNashRingSingleUser(t *testing.T) {
	t.Parallel()
	sys, err := noncoop.NewSystem([]float64{10, 5}, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runRing(NewMemNetwork(), sys, nil, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateProfile(res.Profile); err != nil {
		t.Fatal(err)
	}
}

func TestNashRingIterationBudget(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.9)
	if _, err := runRing(NewMemNetwork(), sys, nil, 1e-15, 2); err == nil {
		t.Error("expected failure with a two-round budget")
	}
}

func TestNashRingInvalidSystem(t *testing.T) {
	t.Parallel()
	bad := noncoop.System{Mu: []float64{1}, Phi: []float64{2}}
	if _, err := runRing(NewMemNetwork(), bad, nil, 0, 0); err == nil {
		t.Error("invalid system accepted")
	}
}

// TestNashRingResume: a run cut short by its round budget returns a
// checkpoint profile; restarting from it reaches the same equilibrium as
// an uninterrupted run — the node-restart story promised in DESIGN.md.
func TestNashRingResume(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.7)

	// Phase 1: cut after 3 rounds.
	partial, err := runRing(NewMemNetwork(), sys, nil, 1e-12, 3)
	if err == nil {
		t.Fatal("expected a budget failure")
	}
	if len(partial.Profile.S) != sys.NumUsers() {
		t.Fatalf("failed run returned no checkpoint profile")
	}
	if err := sys.ValidateProfile(partial.Profile); err != nil {
		t.Fatalf("checkpoint infeasible: %v", err)
	}

	// Phase 2: resume from the checkpoint on a fresh network.
	resumed, err := runRing(NewMemNetwork(), sys, &partial.Profile, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, resumed.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("resumed run did not reach a Nash equilibrium")
	}

	// Must match the uninterrupted equilibrium.
	direct, err := runRing(NewMemNetwork(), sys, nil, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.LInfNorm(sys.Loads(resumed.Profile), sys.Loads(direct.Profile)); d > 1e-6 {
		t.Errorf("resumed equilibrium differs from direct by %v", d)
	}

	// Resuming from a converged profile terminates almost immediately.
	again, err := runRing(NewMemNetwork(), sys, &resumed.Profile, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rounds > 3 {
		t.Errorf("resume from equilibrium took %d rounds", again.Rounds)
	}
}

func TestNashRingFromRejectsBadCheckpoint(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.5)
	bad := noncoop.NewProfile(sys.NumUsers(), sys.NumComputers()) // rows sum to 0
	if _, err := runRing(NewMemNetwork(), sys, &bad, 1e-9, 0); err == nil {
		t.Error("invalid checkpoint accepted")
	}
}

func soakNashSystem(t *testing.T) noncoop.System {
	t.Helper()
	sys, err := noncoop.NewSystem([]float64{20, 10, 10, 5, 5}, []float64{9, 7, 5})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNashRingCrashedUserEjected: a user that crashes mid-run is
// detected by the leader when the token stops coming back, ejected at
// the leader's resync, and the survivors converge to the reduced
// system's equilibrium. User 0 is an ordinary member: its crash ejects
// it like any other's.
func TestNashRingCrashedUserEjected(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	for _, victim := range []int{0, 2} {
		ctr := obs.NewRegistry()
		netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{userName(victim): 4}}, ctr)
		res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, fastRingOptions(ctr))
		if err != nil {
			t.Fatalf("user %d crashed: survivors failed to converge: %v (counters %s)", victim, err, ctr)
		}
		if len(res.Ejected) != 1 || res.Ejected[0] != victim {
			t.Fatalf("user %d crashed: Ejected = %v, want [%d]", victim, res.Ejected, victim)
		}
		if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
			t.Errorf("user %d crashed: %v", victim, err)
		}
		if ctr.Get("nash.token.regenerated") == 0 || ctr.Get("nash.ejected") != 1 {
			t.Errorf("user %d crashed: counters = %s, want a regeneration and one ejection", victim, ctr)
		}
	}
}

// TestNashRingBusyLeader: the root's wait for the ring (Watchdog 15 ms)
// is shorter than one attempt of the leader's (ProbeTimeout 40 ms), so
// while the leader waits out a crashed member the root re-sends its
// down many times. The leader answers each with hier.alive, which keeps
// the root from ejecting the ring, and the re-sent downs do not extend
// the leader's own attempts, so it still resyncs and ejects only the
// crashed member.
func TestNashRingBusyLeader(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	for _, victim := range []int{0, 2} {
		ctr := obs.NewRegistry()
		netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{userName(victim): 4}}, ctr)
		opts := fastRingOptions(ctr)
		opts.Watchdog, opts.ProbeTimeout = 15*time.Millisecond, 40*time.Millisecond
		opts.Deadline = 5 * time.Second
		res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
		if err != nil {
			t.Fatalf("user %d crashed: %v (counters %s)", victim, err, ctr)
		}
		if len(res.Ejected) != 1 || res.Ejected[0] != victim || len(res.EjectedShards) != 0 {
			t.Fatalf("user %d crashed: Ejected = %v, EjectedShards = %v; want [%d] and none", victim, res.Ejected, res.EjectedShards, victim)
		}
		if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
			t.Errorf("user %d crashed: %v", victim, err)
		}
	}
}

// TestNashRingFinalGatherEjection: a member that answers none of the
// final gather's syncs is ejected there. The survivors' strategies are
// then best replies to loads that still held it, so the run must not
// end on that gather: the root reconciles again, and the survivors end
// at the reduced system's equilibrium.
func TestNashRingFinalGatherEjection(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ctr := obs.NewRegistry()
	netw := newTapNetwork(NewMemNetwork())
	stopping := false // guarded by the tap's lock
	netw.drop = func(from string, m Message) bool {
		var p hierDownPayload
		if from == rootName && m.Kind == hierKindDown && m.Decode(&p) == nil && p.Stop {
			stopping = true
		}
		return stopping && m.Kind == hierKindSync && m.To == userName(2)
	}
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, fastRingOptions(ctr))
	if err != nil {
		t.Fatalf("run failed: %v (counters %s)", err, ctr)
	}
	if len(res.Ejected) != 1 || res.Ejected[0] != 2 {
		t.Fatalf("Ejected = %v, want [2]", res.Ejected)
	}
	if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
		t.Error(err)
	}
	if ctr.Get("nash.ejected") != 1 {
		t.Errorf("counters = %s, want one ejection", ctr)
	}
}

// TestNashRingTokenLossRegenerated: a pure token loss (no node died) is
// repaired by regeneration alone — nobody gets ejected and the full
// ring still reaches the fault-free equilibrium.
func TestNashRingTokenLossRegenerated(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ctr := obs.NewRegistry()
	opts := fastRingOptions(ctr)
	// Drop every attempt of the leader's first circulation: the token
	// is lost for good, so the leader resyncs and regenerates it.
	netw := newTapNetwork(NewMemNetwork())
	dropped := 0
	netw.drop = func(from string, m Message) bool {
		if from != shardName(0) || m.Kind != hierKindToken || dropped == opts.MaxAttempts {
			return false
		}
		dropped++
		return true
	}
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatalf("run failed: %v (counters %s)", err, ctr)
	}
	if len(res.Ejected) != 0 {
		t.Fatalf("Ejected = %v, want none", res.Ejected)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("regenerated run did not reach the equilibrium")
	}
	if ctr.Get("nash.token.regenerated") == 0 {
		t.Errorf("counters = %s, want at least one regeneration", ctr)
	}
}

// holdTokenNetwork makes every ring member hold the n-th token it
// forwards until it forwards the next one, then deliver both in order,
// the second after a pause. The held token is late, not lost: the
// leader times out and re-sends the circulation, the members before the
// holder replay their cached forwards, and the holder's replay releases
// the late original just ahead of its duplicate.
type holdTokenNetwork struct {
	Network
	n int
}

func (h holdTokenNetwork) Join(name string) (Conn, error) {
	c, err := h.Network.Join(name)
	if err != nil || name == rootName || name == shardName(0) {
		return c, err
	}
	return &holdTokenConn{Conn: c, n: h.n}, nil
}

type holdTokenConn struct {
	Conn
	n, seen int
	held    []Message
}

func (c *holdTokenConn) Send(m Message) error {
	if m.Kind != hierKindToken {
		return c.Conn.Send(m)
	}
	if c.seen++; c.seen == c.n {
		m.Data = bytes.Clone(m.Data) // kept past Send, which the sender may re-encode into
		c.held = append(c.held, m)
		return nil
	}
	for _, h := range c.held {
		if err := c.Conn.Send(h); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.held = nil
	return c.Conn.Send(m)
}

// TestNashRingRegenerationWithLiveToken: a token that was only late,
// not lost, circulates alongside the leader's re-sent copy. Members
// answer the exact duplicate with their cached forward instead of
// best-replying twice, so the ring must converge to the fault-free
// equilibrium, not stop a sweep early.
func TestNashRingRegenerationWithLiveToken(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ref, err := runRing(NewMemNetwork(), sys, nil, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 10} {
		ctr := obs.NewRegistry()
		res, err := RunNashShardedWith(holdTokenNetwork{NewMemNetwork(), n}, sys, nil, 1e-9, 0, fastRingOptions(ctr))
		if err != nil {
			t.Fatalf("hold token %d: %v (counters %s)", n, err, ctr)
		}
		if ctr.Get("nash.retry") == 0 {
			t.Fatalf("hold token %d: counters = %s, want the leader to re-send", n, ctr)
		}
		if d := metrics.LInfNorm(sys.Loads(res.Profile), sys.Loads(ref.Profile)); d > 1e-6 {
			t.Errorf("hold token %d: loads %g from the fault-free equilibrium after %d rounds (reference %d); counters %s",
				n, d, res.Rounds, ref.Rounds, ctr)
		}
	}
}

// TestNashRingStalled: when not even the failure detectors can act
// (their timeouts are set far beyond the driver deadline) a lost first
// activation ends the run in ErrStalled, named as the run deadline, with
// the checkpoint profile instead of hanging.
func TestNashRingStalled(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	plan := FaultPlan{Partition: &PartitionPlan{Nodes: []string{shardName(0)}, From: 0, To: 1}}
	netw := NewChaosNetwork(NewMemNetwork(), plan, nil)
	opts := ringOptions()
	opts.Watchdog = 10 * time.Second // never fires before the deadline
	opts.Deadline = 80 * time.Millisecond
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if want := "dist: run deadline 80ms passed: " + ErrStalled.Error(); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if len(res.Profile.S) != sys.NumUsers() {
		t.Error("stalled run lost the checkpoint profile")
	}
}

// TestNashRingUserZeroCrash: the ring's leader (shard-0) crashing takes
// the whole ring with it; the run must still end promptly with a typed
// error.
func TestNashRingUserZeroCrash(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{shardName(0): 0}}, nil)
	opts := ringOptions()
	opts.Watchdog = 50 * time.Millisecond
	opts.ProbeTimeout = 10 * time.Millisecond
	opts.Deadline = 2 * time.Second
	_, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err == nil {
		t.Fatal("run with a crashed ring leader succeeded")
	}
	if !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want a typed fault error", err)
	}
}
