package dist

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gtlb/internal/game"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// shardTestSystem builds an m-user, 4-computer system with distinct
// arrival rates (so strategies differ per user) and ample headroom.
func shardTestSystem(t *testing.T, m int) noncoop.System {
	t.Helper()
	mu := []float64{30, 20, 15, 10}
	phi := make([]float64, m)
	var sum float64
	for j := range phi {
		phi[j] = 1.0 + 0.3*float64(j%7)
		sum += phi[j]
	}
	if sum >= 70 {
		t.Fatalf("test system infeasible: sum phi %v", sum)
	}
	sys, err := noncoop.NewSystem(mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func fastShardOptions(seed uint64) ShardOptions {
	return ShardOptions{
		Watchdog:     300 * time.Millisecond,
		ProbeTimeout: 15 * time.Millisecond,
		MaxAttempts:  3,
		Deadline:     20 * time.Second,
		Seed:         seed,
	}
}

// survivorsAtBestReply checks a converged result against the
// equilibrium of the system reduced by its ejected users: every ejected
// user's strategy row is zero, and every surviving user's strategy is
// within tol (in expected-time terms) of a best reply to the published
// profile. It returns the first violation.
func survivorsAtBestReply(sys noncoop.System, res NashShardedResult, tol float64) error {
	ejected := make(map[int]bool, len(res.Ejected))
	for _, j := range res.Ejected {
		ejected[j] = true
	}
	for j := range sys.Phi {
		if ejected[j] {
			for i, s := range res.Profile.S[j] {
				if s != 0 {
					return fmt.Errorf("ejected user %d keeps load fraction %v on computer %d", j, s, i)
				}
			}
			continue
		}
		avail := sys.Available(res.Profile, j)
		br, err := noncoop.BestReply(avail, sys.Phi[j])
		if err != nil {
			return fmt.Errorf("user %d best reply: %w", j, err)
		}
		have := noncoop.BestReplyTime(avail, res.Profile.S[j], sys.Phi[j])
		want := noncoop.BestReplyTime(avail, br, sys.Phi[j])
		if math.Abs(have-want) > tol {
			return fmt.Errorf("user %d is %g from its best reply (tol %g)", j, have-want, tol)
		}
	}
	return nil
}

// jitteredSystem is the m-user, 4-computer system of the repository's
// NASH benchmark: seven rate classes, φ_j = (1+0.3·(j mod 7))·30/m,
// each rate scaled by a factor within 1 ± 1e-3 drawn from seed. Its
// many small users let shards quiesce while others still move, so the
// active-set skip fires on it.
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

// TestNashShardedMatchesOracle: a fault-free distributed run performs
// the identical float operations in the identical order as the
// in-process game.ShardedBestReply, so profile, rounds, sweeps and norm
// are all bit-identical — for a multi-shard hierarchy, for the §4.3
// ring (one shard, one sweep per round), for one member per shard,
// where each shard sweeps once per activation whatever its budget, and
// for a system on which the root skips quiescent shards (at one sweep
// per activation a round with no skip runs exactly one sweep per
// shard, so fewer sweeps than rounds·shards means a skip fired), and
// for perfbench's m=1000 system on 8 shards, where shards most often
// end an activation on a stalled sweep (249 sweeps in 30 rounds, 733
// in 51 when every activation ran to the ε share or the budget). Every
// profile passes the certificate: one more flat round moves response
// times by at most game.GapFactor·eps.
func TestNashShardedMatchesOracle(t *testing.T) {
	t.Parallel()
	small, jittered := shardTestSystem(t, 12), jitteredSystem(t, 160, 1)
	large := jitteredSystem(t, 1000, 1)
	for _, c := range []struct {
		name                string
		sys                 noncoop.System
		eps                 float64
		shards, localSweeps int
		skips               bool
	}{
		{"3 shards", small, 1e-9, 3, 2, false},
		{"ring", small, 1e-9, 1, 1, false},
		{"one member per shard", small, 1e-9, 12, 4, false},
		{"skip, 1 sweep", jittered, 1.6e-3, 8, 1, true},
		{"skip, default sweeps", jittered, 1.6e-3, 8, 0, false},
		{"stalled sweeps, 8 shards", large, 1e-3, 8, 0, false},
	} {
		want, err := game.ShardedBestReply(c.sys, game.PlanShards(c.sys.NumUsers(), c.shards), c.eps, 0, game.ShardedOpts{LocalSweeps: c.localSweeps})
		if err != nil {
			t.Fatal(err)
		}

		opts := fastShardOptions(1)
		opts.Shards = c.shards
		opts.LocalSweeps = c.localSweeps
		got, err := RunNashShardedWith(NewMemNetwork(), c.sys, nil, c.eps, 0, opts)
		if err != nil {
			t.Fatal(err)
		}

		if gap, err := noncoop.Gap(c.sys, got.Profile); err != nil || gap > game.GapFactor*c.eps {
			t.Errorf("%s: best-reply gap %g, %v; want <= %g", c.name, gap, err, game.GapFactor*c.eps)
		}
		if got.Rounds != want.Rounds || got.Sweeps != want.Sweeps || got.Norm != want.Norm {
			t.Errorf("%s: rounds/sweeps/norm = %d/%d/%g, oracle %d/%d/%g",
				c.name, got.Rounds, got.Sweeps, got.Norm, want.Rounds, want.Sweeps, want.Norm)
		}
		if c.skips && got.Sweeps >= got.Rounds*c.shards {
			t.Errorf("%s: %d sweeps in %d rounds of %d shards; want a skipped activation", c.name, got.Sweeps, got.Rounds, c.shards)
		}
		for j := range want.Profile.S {
			for i := range want.Profile.S[j] {
				if got.Profile.S[j][i] != want.Profile.S[j][i] {
					t.Fatalf("%s: profile[%d][%d] = %v, oracle %v (not bit-identical)",
						c.name, j, i, got.Profile.S[j][i], want.Profile.S[j][i])
				}
			}
		}
	}
}

// TestNashShardedMatchesFlat: the sharded fixed point is the flat §4.3
// ring's equilibrium — both profiles are best replies to themselves and
// they agree within a loose elementwise tolerance (the equilibrium is
// unique).
func TestNashShardedMatchesFlat(t *testing.T) {
	t.Parallel()
	const m = 10
	sys := shardTestSystem(t, m)

	ringOpts := fastShardOptions(7)
	ringOpts.Shards, ringOpts.LocalSweeps = 1, 1
	flat, err := RunNashShardedWith(NewMemNetwork(), sys, nil, 1e-9, 0, ringOpts)
	if err != nil {
		t.Fatal(err)
	}

	opts := fastShardOptions(7)
	opts.Shards = 3
	sharded, err := RunNashShardedWith(NewMemNetwork(), sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := survivorsAtBestReply(sys, sharded, 1e-6); err != nil {
		t.Error(err)
	}
	for j := range sys.Phi {
		for i := range sys.Mu {
			if d := math.Abs(sharded.Profile.S[j][i] - flat.Profile.S[j][i]); d > 1e-3 {
				t.Errorf("user %d computer %d: sharded %v vs flat %v (Δ=%v)",
					j, i, sharded.Profile.S[j][i], flat.Profile.S[j][i], d)
			}
		}
	}
}

// TestNashShardedDeterministic: identical seeds reproduce identical
// results on the chaos transport (drops and delays included), the
// property the soak harness and the benchmark suite rely on.
func TestNashShardedDeterministic(t *testing.T) {
	t.Parallel()
	const m = 9
	sys := shardTestSystem(t, m)
	run := func() NashShardedResult {
		plan := FaultPlan{Seed: 42, Drop: 0.02, Delay: 0.05, MaxDelay: 2 * time.Millisecond}
		opts := fastShardOptions(42)
		opts.Shards = 3
		res, err := RunNashShardedWith(NewChaosNetwork(NewMemNetwork(), plan, nil), sys, nil, 1e-9, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Sweeps != b.Sweeps || a.Norm != b.Norm {
		t.Errorf("replay diverged: %d/%d/%g vs %d/%d/%g", a.Rounds, a.Sweeps, a.Norm, b.Rounds, b.Sweeps, b.Norm)
	}
	for j := range a.Profile.S {
		for i := range a.Profile.S[j] {
			if a.Profile.S[j][i] != b.Profile.S[j][i] {
				t.Fatalf("replay diverged at profile[%d][%d]", j, i)
			}
		}
	}
}

// TestNashShardedCrashedMemberEjected: a member that crashes mid-run is
// ejected by its shard leader, the shard resyncs under a new epoch, and
// the survivors converge to the reduced system's equilibrium — whichever
// hop of the ring the crash breaks. Shard 1 holds users 3..5 (the
// contiguous plan over 9 users in 3 shards).
func TestNashShardedCrashedMemberEjected(t *testing.T) {
	t.Parallel()
	const m = 9
	sys := shardTestSystem(t, m)
	for _, tc := range []struct {
		name   string
		victim int
	}{
		{"head", 3},   // the leader→head hop
		{"middle", 4}, // a member→member hop
		{"tail", 5},   // the tail→leader hop
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctr := obs.NewRegistry()
			netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{userName(tc.victim): 2}}, ctr)
			opts := fastShardOptions(3)
			opts.Shards = 3
			opts.Observer = ctr
			res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Ejected) != 1 || res.Ejected[0] != tc.victim {
				t.Fatalf("Ejected = %v, want [%d]", res.Ejected, tc.victim)
			}
			if len(res.EjectedShards) != 0 {
				t.Errorf("EjectedShards = %v, want none", res.EjectedShards)
			}
			if ctr.Get("nash.ejected") == 0 {
				t.Error("no nash.ejected count recorded")
			}
			if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
				t.Error(err)
			}
		})
	}
}

// tapNetwork counts the messages and payload bytes its endpoints send,
// by kind, keeps the hier.partial payloads, and swallows the messages
// drop accepts.
type tapNetwork struct {
	Network
	drop func(from string, m Message) bool // nil: deliver everything

	mu       sync.Mutex
	kinds    map[string]int
	bytes    map[string]int
	partials []hierPartialPayload
}

func newTapNetwork(inner Network) *tapNetwork {
	return &tapNetwork{Network: inner, kinds: make(map[string]int), bytes: make(map[string]int)}
}

func (n *tapNetwork) Join(name string) (Conn, error) {
	c, err := n.Network.Join(name)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, n: n}, nil
}

type tapConn struct {
	Conn
	n *tapNetwork
}

func (c *tapConn) Send(m Message) error {
	c.n.mu.Lock()
	c.n.kinds[m.Kind]++
	c.n.bytes[m.Kind] += len(m.Data)
	if m.Kind == hierKindPartial {
		var p hierPartialPayload
		if err := m.Decode(&p); err == nil {
			c.n.partials = append(c.n.partials, p)
		}
	}
	dropped := c.n.drop != nil && c.n.drop(c.Name(), m)
	c.n.mu.Unlock()
	if dropped {
		return nil
	}
	return c.Conn.Send(m)
}

// TestNashShardedReplaysLostToken: a token lost between two members is
// re-sent from the head under the same (Epoch, Hop); the members that
// already played answer with their cached forward, the member that
// missed it plays it, and the run stays bit-identical to the oracle
// with no one ejected.
func TestNashShardedReplaysLostToken(t *testing.T) {
	t.Parallel()
	const m, shards, localSweeps = 12, 3, 2
	sys := shardTestSystem(t, m)
	want, err := game.ShardedBestReply(sys, game.PlanShards(m, shards), 1e-9, 0, game.ShardedOpts{LocalSweeps: localSweeps})
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1 holds users 4..7; user 5 sits mid-ring.
	netw := newTapNetwork(NewMemNetwork())
	dropped := false
	netw.drop = func(from string, m Message) bool {
		if dropped || from != userName(5) || m.Kind != hierKindToken {
			return false
		}
		dropped = true
		return true
	}
	ctr := obs.NewRegistry()
	opts := fastShardOptions(1)
	opts.Shards = shards
	opts.LocalSweeps = localSweeps
	opts.Observer = ctr
	got, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	netw.mu.Lock()
	defer netw.mu.Unlock()
	if !dropped {
		t.Fatal("no token from the mid-ring member was dropped")
	}
	if len(got.Ejected) != 0 {
		t.Errorf("Ejected = %v, want none", got.Ejected)
	}
	if ctr.Get("nash.retry") == 0 {
		t.Error("no nash.retry count recorded")
	}
	if got.Rounds != want.Rounds || got.Sweeps != want.Sweeps || got.Norm != want.Norm {
		t.Errorf("rounds/sweeps/norm = %d/%d/%g, oracle %d/%d/%g",
			got.Rounds, got.Sweeps, got.Norm, want.Rounds, want.Sweeps, want.Norm)
	}
	for j := range want.Profile.S {
		for i := range want.Profile.S[j] {
			if got.Profile.S[j][i] != want.Profile.S[j][i] {
				t.Fatalf("profile[%d][%d] = %v, oracle %v (not bit-identical)",
					j, i, got.Profile.S[j][i], want.Profile.S[j][i])
			}
		}
	}
}

// TestNashShardedRecoversLostReports: only the root retries the
// root↔leader link. It re-sends the down it gets no report for, and the
// leader answers a down of a round it already reported with the report
// it sent. Losing shard 1's first hier.partial and its first hier.rows
// therefore costs exactly one re-sent hier.down and one replayed report
// each, on top of the fault-free run's traffic, and the run stays
// bit-identical to the oracle.
func TestNashShardedRecoversLostReports(t *testing.T) {
	t.Parallel()
	const m, shards, localSweeps = 12, 3, 2
	sys := shardTestSystem(t, m)
	want, err := game.ShardedBestReply(sys, game.PlanShards(m, shards), 1e-9, 0, game.ShardedOpts{LocalSweeps: localSweeps})
	if err != nil {
		t.Fatal(err)
	}
	opts := ShardOptions{
		Shards:       shards,
		LocalSweeps:  localSweeps,
		Watchdog:     250 * time.Millisecond,
		ProbeTimeout: 5 * time.Second,
		Deadline:     30 * time.Second,
		Seed:         1,
	}
	run := func(netw *tapNetwork) map[string]int {
		t.Helper()
		got, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ejected) != 0 || len(got.EjectedShards) != 0 {
			t.Errorf("Ejected = %v, EjectedShards = %v; want none", got.Ejected, got.EjectedShards)
		}
		if got.Rounds != want.Rounds || got.Sweeps != want.Sweeps || got.Norm != want.Norm {
			t.Errorf("rounds/sweeps/norm = %d/%d/%g, oracle %d/%d/%g",
				got.Rounds, got.Sweeps, got.Norm, want.Rounds, want.Sweeps, want.Norm)
		}
		for j := range want.Profile.S {
			for i := range want.Profile.S[j] {
				if got.Profile.S[j][i] != want.Profile.S[j][i] {
					t.Fatalf("profile[%d][%d] = %v, oracle %v (not bit-identical)",
						j, i, got.Profile.S[j][i], want.Profile.S[j][i])
				}
			}
		}
		netw.mu.Lock()
		defer netw.mu.Unlock()
		return maps.Clone(netw.kinds)
	}

	base := run(newTapNetwork(NewMemNetwork()))
	lossy := newTapNetwork(NewMemNetwork())
	lost := map[string]bool{} // guarded by the tap's lock
	lossy.drop = func(from string, m Message) bool {
		if from != shardName(1) || (m.Kind != hierKindPartial && m.Kind != hierKindRows) || lost[m.Kind] {
			return false
		}
		lost[m.Kind] = true
		return true
	}
	got := run(lossy)
	if !lost[hierKindPartial] || !lost[hierKindRows] {
		t.Fatalf("lost %v; want one hier.partial and one hier.rows", lost)
	}
	// The tap counts a dropped message as sent, so each loss adds its
	// replay to the sent reports and its re-sent down to the downs.
	base[hierKindDown] += 2
	base[hierKindPartial]++
	base[hierKindRows]++
	if !maps.Equal(got, base) {
		t.Errorf("messages by kind: %v; want %v (the fault-free run's plus one re-sent down and one replay per loss)", got, base)
	}
}

// TestNashShardedMessagePattern pins the ring's message count: a sweep
// over k members costs k+1 hier.token messages (leader to the first
// member, member to member, the last back to the leader), and every
// other kind keeps the count the leader↔member star sent for the same
// fault-free run. It also pins the payload bytes per kind, so a field
// added to a payload or a change of its layout shows. The timeouts are
// far above a run's length, so no retry or re-request adds traffic.
func TestNashShardedMessagePattern(t *testing.T) {
	t.Parallel()
	const m, shards, localSweeps = 12, 3, 2
	sys := shardTestSystem(t, m)
	plan := game.PlanShards(m, shards)
	netw := newTapNetwork(NewMemNetwork())
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, ShardOptions{
		Shards:       shards,
		LocalSweeps:  localSweeps,
		Watchdog:     10 * time.Second,
		ProbeTimeout: 5 * time.Second,
		Deadline:     30 * time.Second,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	netw.mu.Lock()
	defer netw.mu.Unlock()

	tokens, sweeps := 0, 0
	for _, p := range netw.partials {
		tokens += p.Sweeps * (len(plan[p.Shard]) + 1)
		sweeps += p.Sweeps
	}
	if sweeps != res.Sweeps {
		t.Fatalf("partials report %d sweeps, result %d", sweeps, res.Sweeps)
	}
	want := map[string]int{
		hierKindToken:   tokens,
		hierKindDown:    141,
		hierKindPartial: 138,
		hierKindSync:    12,
		hierKindRow:     12,
		hierKindRows:    3,
		hierKindStop:    15,
	}
	for kind, n := range want {
		if netw.kinds[kind] != n {
			t.Errorf("%s: %d messages, want %d", kind, netw.kinds[kind], n)
		}
	}
	for kind, n := range netw.kinds {
		if _, ok := want[kind]; !ok {
			t.Errorf("%s: %d unexpected messages", kind, n)
		}
	}
	wantBytes := map[string]int{
		hierKindToken:   97241,
		hierKindDown:    9897,
		hierKindPartial: 7665,
		hierKindSync:    125,
		hierKindRow:     444,
		hierKindRows:    432,
		hierKindStop:    0,
	}
	for kind, n := range wantBytes {
		if netw.bytes[kind] != n {
			t.Errorf("%s: %d payload bytes, want %d", kind, netw.bytes[kind], n)
		}
	}
}

// TestNashShardedOneMemberSweepsOnce: a one-member shard sweeps once
// per activation whatever its budget, since a lone member's second
// sweep replies to its own move and reads a norm of 0. With every shard
// a single member, a LocalSweeps: 4 run is therefore the LocalSweeps: 1
// run message for message, bit-identical to the oracle at either
// budget, and it certifies on its first final gather (one hier.rows
// per shard). A second sweep would make every cycle norm read about 0
// and end each cycle in a gather that fails the certificate.
func TestNashShardedOneMemberSweepsOnce(t *testing.T) {
	t.Parallel()
	const m, eps = 12, 1e-9
	sys := shardTestSystem(t, m)
	plan := game.PlanShards(m, m)
	run := func(localSweeps int) (NashShardedResult, map[string]int) {
		want, err := game.ShardedBestReply(sys, plan, eps, 0, game.ShardedOpts{LocalSweeps: localSweeps})
		if err != nil {
			t.Fatal(err)
		}
		netw := newTapNetwork(NewMemNetwork())
		got, err := RunNashShardedWith(netw, sys, nil, eps, 0, ShardOptions{
			Shards:       m,
			LocalSweeps:  localSweeps,
			Watchdog:     10 * time.Second,
			ProbeTimeout: 5 * time.Second,
			Deadline:     30 * time.Second,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != want.Rounds || got.Sweeps != want.Sweeps || got.Norm != want.Norm {
			t.Errorf("LocalSweeps %d: rounds/sweeps/norm = %d/%d/%g, oracle %d/%d/%g",
				localSweeps, got.Rounds, got.Sweeps, got.Norm, want.Rounds, want.Sweeps, want.Norm)
		}
		for j := range want.Profile.S {
			for i := range want.Profile.S[j] {
				if got.Profile.S[j][i] != want.Profile.S[j][i] {
					t.Fatalf("LocalSweeps %d: profile[%d][%d] = %v, oracle %v (not bit-identical)",
						localSweeps, j, i, got.Profile.S[j][i], want.Profile.S[j][i])
				}
			}
		}
		netw.mu.Lock()
		defer netw.mu.Unlock()
		return got, netw.kinds
	}
	four, fourKinds := run(4)
	one, oneKinds := run(1)
	if four.Rounds != one.Rounds || four.Sweeps != one.Sweeps || four.Norm != one.Norm {
		t.Errorf("rounds/sweeps/norm = %d/%d/%g at LocalSweeps 4, %d/%d/%g at 1",
			four.Rounds, four.Sweeps, four.Norm, one.Rounds, one.Sweeps, one.Norm)
	}
	if !maps.Equal(fourKinds, oneKinds) {
		t.Errorf("messages by kind: %v at LocalSweeps 4, %v at 1", fourKinds, oneKinds)
	}
	if n := fourKinds[hierKindRows]; n != m {
		t.Errorf("%d hier.rows messages, want %d (one final gather)", n, m)
	}
}

// recvSignalConn reports the kind of every message its owner receives.
type recvSignalConn struct {
	Conn
	got chan string
}

func (c recvSignalConn) Recv() (Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.got <- m.Kind
	}
	return m, err
}

// TestShardUserTakesSyncsOnlyFromLeader: a higher-epoch sync from a
// node other than the member's leader neither fences the member off nor
// rewires its successor, so the member still plays the leader's next
// token and forwards it along the ring. Over TCP the broker stamps From
// with the sender's registered name, so the check covers real sockets.
func TestShardUserTakesSyncsOnlyFromLeader(t *testing.T) {
	t.Parallel()
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			t.Parallel()
			var netw Network = NewMemNetwork()
			if transport == "tcp" {
				tcp, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					_ = closeFn() // test teardown
				}()
				netw = tcp
			}
			join := func(name string) Conn {
				c, err := netw.Join(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					_ = c.Close() // test teardown
				})
				return c
			}
			leader, mallory := join(shardName(0)), join("mallory")
			// Room for every message the test sends the member, so its
			// receive loop never blocks on a report.
			uc := recvSignalConn{Conn: join(userName(0)), got: make(chan string, 3)}
			mu := []float64{30, 20}
			errCh := make(chan error, 1)
			u := &shardUser{
				conn: uc, id: 0, phi: 2,
				leader: shardName(0), next: shardName(0),
				row:       []float64{0.6, 0.4},
				stepper:   noncoop.NewStepper(mu, 1),
				lastEpoch: -1, lastHop: -1,
				errCh: errCh,
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				u.run()
			}()

			send := func(from Conn, kind string, v WireEncoder) {
				msg := Message{To: userName(0), Kind: kind}
				if err := msg.Encode(v); err != nil {
					t.Fatal(err)
				}
				if err := from.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			send(mallory, hierKindSync, hierSyncPayload{Epoch: 7, Next: "mallory"})
			if kind := <-uc.got; kind != hierKindSync {
				t.Fatalf("member received %q first, want the forged sync", kind)
			}
			send(leader, hierKindToken, &hierTokenPayload{Epoch: 0, Hop: 1, Loads: []float64{1.2, 0.8}})

			r, err := leader.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("leader got no token back: %v", err)
			}
			var tok hierTokenPayload
			if r.Kind != hierKindToken || r.Decode(&tok) != nil {
				t.Fatalf("leader got %q, want a token", r.Kind)
			}
			if tok.Epoch != 0 || tok.Hop != 2 {
				t.Errorf("forwarded token (Epoch, Hop) = (%d, %d), want (0, 2)", tok.Epoch, tok.Hop)
			}
			if r, err := mallory.RecvTimeout(50 * time.Millisecond); err == nil {
				t.Errorf("the forging node received %q", r.Kind)
			}
			if err := leader.Send(Message{To: userName(0), Kind: hierKindStop}); err != nil {
				t.Fatal(err)
			}
			<-done
			select {
			case err := <-errCh:
				t.Fatalf("member failed: %v", err)
			default:
			}
		})
	}
}

// TestShardUserStepAllocs gates the member hot path end to end: one
// shardUser on the mem transport takes a token, plays its best reply and
// forwards the token, re-encoded into its cached forward, with no
// allocation per step. The count covers the test's leader side too: its
// re-encode, Send, receive and decode. Hop starts where its varint is
// three bytes wide and stays so, so the token never outgrows a buffer.
// Not parallel, so no other test's allocations land in the count.
func TestShardUserStepAllocs(t *testing.T) {
	netw := NewMemNetwork()
	leader := mustJoin(t, netw, shardName(0))
	uc := mustJoin(t, netw, userName(0))
	errCh := make(chan error, 1)
	u := &shardUser{
		conn: uc, id: 0, phi: 2,
		leader: shardName(0), next: shardName(0),
		row:       []float64{0.5, 0.3, 0.2},
		stepper:   noncoop.NewStepper([]float64{30, 20, 10}, 1),
		lastEpoch: -1, lastHop: -1,
		errCh: errCh,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		u.run()
	}()
	tok := hierTokenPayload{Hop: 10_000, Loads: []float64{1, 0.6, 0.4}}
	msg := Message{To: userName(0), Kind: hierKindToken}
	steps := 0
	allocGate(t, "member step", 0, func() {
		tok.Hop++ // the member forwarded Hop+1; this is newer still
		tok.Norm = 0
		if err := msg.Encode(&tok); err != nil {
			t.Fatal(err)
		}
		if err := leader.Send(msg); err != nil {
			t.Fatal(err)
		}
		r, err := leader.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Decode(&tok); err != nil {
			t.Fatal(err)
		}
		steps++
	})
	if err := leader.Send(Message{To: userName(0), Kind: hierKindStop}); err != nil {
		t.Fatal(err)
	}
	<-done
	select {
	case err := <-errCh:
		t.Fatalf("member failed: %v", err)
	default:
	}
	if want := 10_000 + 2*steps; tok.Hop != want || u.lastHop != want-1 {
		t.Errorf("after %d steps: token Hop %d, member lastHop %d; want %d and %d", steps, tok.Hop, u.lastHop, want, want-1)
	}
}

// TestNashShardedSolveAllocs gates a whole solve's allocations: one
// fault-free mem solve of the repository benchmark's system (m=1000,
// eps=1e-3, 32 shards, 19,878 messages), set-up and teardown included.
// The members are built in slabs and decode into and encode from
// buffers sized at set-up, and the teardown lets the leaders forward the
// stop before it closes the members, so a solve allocates about eight
// objects per node (its endpoint, wake-up channel and goroutine, its
// mailbox's first arena and queue, the runtime's record of a parked
// goroutine) where it allocated about 37. The ceiling leaves room for
// what the runtime varies from run to run. Not parallel, so no other
// test's allocations land in the count; skipped under -race, whose
// instrumentation allocates.
func TestNashShardedSolveAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under -race")
	}
	const ceiling = 9_000
	sys := jitteredSystem(t, 1000, 1)
	solve := func() {
		t.Helper()
		if _, err := RunNashShardedWith(NewMemNetwork(), sys, nil, 1e-3, 0, ShardOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	solve() // fills the pools a first solve in a process fills
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("one solve allocated %d objects, %d B", n, after.TotalAlloc-before.TotalAlloc)
	if n > ceiling {
		t.Errorf("one solve allocated %d objects, want <= %d", n, ceiling)
	}
}

// TestHierDownPartialAllocs gates the activation round trip the way
// TestShardUserStepAllocs gates the member step: the root re-encodes
// each down into its one down buffer and the leader each partial into
// its one report buffer, so neither allocates per activation, and the
// receive and decode on the other side allocate nothing either. The
// buffers hold only the latest down and report, which is all a replay
// ever needs: the root re-sending the down of a round the leader already
// reported gets that round's cached partial back. Not parallel, so no
// other test's allocations land in the count.
func TestHierDownPartialAllocs(t *testing.T) {
	netw := NewMemNetwork()
	sched := game.NewSchedule(1, 4, [][]int{{0}}, 1e-9, 0, 0)
	sched.Rebuild([][]float64{{0.1, 0.2, 0.3, 0.4}}, []float64{10})
	sched.BeginRound()
	rt := &rootNode{
		conn: mustJoin(t, netw, rootName), numShards: 1, n: 4,
		leaders: []string{shardName(0)}, leaderG: map[string]int{shardName(0): 0},
		sched: sched,
		owes:  []bool{false}, tries: []int{0},
		watchdog: 5 * time.Second, attemptsN: 1,
	}
	l := &shardLeader{
		conn: mustJoin(t, netw, shardName(0)), g: 0, n: 4,
		sh:      &game.Shard{Local: []float64{0.25, 0.5, 0.75, 1}, Norm: 0.5, EndNorm: 0.25, Sweeps: 2},
		ejected: []int32{},
	}
	allocGate(t, "down and partial", 0, func() {
		if err := rt.sendDown(0); err != nil {
			t.Fatal(err)
		}
		down, err := l.awaitDown()
		if err != nil || down.Shard != 0 || len(down.End) != 4 {
			t.Fatalf("leader got %+v, %v; want an activation of shard 0 with End", down, err)
		}
		if err := l.sendUp(); err != nil {
			t.Fatal(err)
		}
		if err := rt.await(); err != nil || rt.owes[0] {
			t.Fatalf("root got no partial: %v", err)
		}
	})
	if p := rt.part; p.EndNorm != 0.25 || p.Norm != 0.5 || p.Sweeps != 2 || !slices.Equal(rt.sched.Global(), l.sh.Local) {
		t.Errorf("root read norm %g, end norm %g, %d sweeps, global %v; want 0.5, 0.25, 2 and the leader's loads %v",
			p.Norm, p.EndNorm, p.Sweeps, rt.sched.Global(), l.sh.Local)
	}

	// The root re-sends the cached down, as on a timeout, then stops the
	// cycles. The leader answers the duplicate with its cached partial
	// and serves the stop.
	if err := rt.conn.Send(Message{To: shardName(0), Kind: hierKindDown, Data: rt.cachedDown}); err != nil {
		t.Fatal(err)
	}
	if err := rt.broadcastStop(); err != nil {
		t.Fatal(err)
	}
	stop, err := l.awaitDown()
	if err != nil || !stop.Stop {
		t.Fatalf("leader got %+v, %v; want the stop", stop, err)
	}
	r, err := rt.conn.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var replay hierPartialPayload
	if r.Kind != hierKindPartial || !bytes.Equal(r.Data, l.report.Data) || r.Decode(&replay) != nil || replay.Round != rt.downRound-1 {
		t.Errorf("root got %q %+v; want the cached partial of round %d", r.Kind, replay, rt.downRound-1)
	}
}

// TestNashShardedCrashedLeaderEjectsShard: a crashed shard leader takes
// its whole shard out — the root's failure detector ejects the shard,
// and the surviving shards converge.
func TestNashShardedCrashedLeaderEjectsShard(t *testing.T) {
	t.Parallel()
	const m = 9
	sys := shardTestSystem(t, m)
	ctr := obs.NewRegistry()
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{shardName(1): 5}}, ctr)
	opts := fastShardOptions(5)
	opts.Shards = 3
	opts.Observer = ctr
	opts.Watchdog = 150 * time.Millisecond
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EjectedShards) != 1 || res.EjectedShards[0] != 1 {
		t.Fatalf("EjectedShards = %v, want [1]", res.EjectedShards)
	}
	// Shard 1 held users 3..5 (contiguous plan over 9 users in 3 shards).
	if len(res.Ejected) != 3 || res.Ejected[0] != 3 || res.Ejected[1] != 4 || res.Ejected[2] != 5 {
		t.Fatalf("Ejected = %v, want [3 4 5]", res.Ejected)
	}
	if ctr.Get("hier.shard.ejected") != 1 {
		t.Errorf("hier.shard.ejected = %d, want 1", ctr.Get("hier.shard.ejected"))
	}
	if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
		t.Error(err)
	}
}

// TestNashShardedAllEjectedInGather: a final gather whose rows never
// reach the root ejects every shard there. That ends the run in
// ErrStalled, as an ejection of every shard in the cycles does, not in
// a result with no survivor, whose empty certificate passes vacuously.
// The gather counts its timeouts as the cycles do: 1 + MaxAttempts
// nash.timeout, and a nash.retry per re-sent stop. The leaders' waits
// are far above a resync, so the timeouts counted from the first stop
// on are the root's alone.
func TestNashShardedAllEjectedInGather(t *testing.T) {
	t.Parallel()
	const m, shards = 9, 3
	sys := shardTestSystem(t, m)
	netw := newTapNetwork(NewMemNetwork())
	ctr := obs.NewRegistry()
	var stopped bool                         // guarded by the tap's lock
	var timeoutsBefore, retriesBefore uint64 // at the first stop
	netw.drop = func(from string, m Message) bool {
		var p hierDownPayload
		if !stopped && from == rootName && m.Kind == hierKindDown && m.Decode(&p) == nil && p.Stop {
			stopped = true
			timeoutsBefore, retriesBefore = ctr.Get("nash.timeout"), ctr.Get("nash.retry")
		}
		return m.Kind == hierKindRows
	}
	opts := fastShardOptions(23)
	opts.Shards = shards
	opts.Watchdog, opts.ProbeTimeout = 50*time.Millisecond, 5*time.Second
	opts.Observer = ctr
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled (Ejected %v, EjectedShards %v)", err, res.Ejected, res.EjectedShards)
	}
	if want := "dist: all 3 shards ejected: " + ErrStalled.Error(); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	netw.mu.Lock()
	defer netw.mu.Unlock()
	timeouts, retries := ctr.Get("nash.timeout")-timeoutsBefore, ctr.Get("nash.retry")-retriesBefore
	if timeouts != uint64(1+opts.MaxAttempts) || retries != uint64(shards*opts.MaxAttempts) {
		t.Errorf("the gather counted %d nash.timeout and %d nash.retry, want %d and %d",
			timeouts, retries, 1+opts.MaxAttempts, shards*opts.MaxAttempts)
	}
}

// TestNashShardedRetryCounts pins what MaxAttempts (3 here) counts on
// each link. The root sends a shard its down 1 + MaxAttempts times: the
// first send, then one re-send on each timeout but the last, which
// ejects the shard. So losing every hier.rows costs each leader 4
// stops. A leader sends a member MaxAttempts syncs and ejects it when
// none is answered, so losing user-4's hier.row answers costs it 3
// syncs.
func TestNashShardedRetryCounts(t *testing.T) {
	t.Parallel()
	const m, shards = 9, 3
	sys := shardTestSystem(t, m)
	opts := fastShardOptions(29)
	opts.Shards = shards

	// Every hier.rows is lost.
	netw := newTapNetwork(NewMemNetwork())
	stops := map[string]int{} // guarded by the tap's lock
	netw.drop = func(from string, m Message) bool {
		var p hierDownPayload
		if from == rootName && m.Kind == hierKindDown && m.Decode(&p) == nil && p.Stop {
			stops[m.To]++
		}
		return m.Kind == hierKindRows
	}
	ropts := opts
	ropts.Watchdog = 100 * time.Millisecond
	if _, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, ropts); !errors.Is(err, ErrStalled) {
		t.Fatalf("every hier.rows lost: err = %v, want ErrStalled", err)
	}
	netw.mu.Lock()
	for g := 0; g < shards; g++ {
		if n := stops[shardName(g)]; n != 1+opts.MaxAttempts {
			t.Errorf("every hier.rows lost: the root sent %s %d stops, want %d", shardName(g), n, 1+opts.MaxAttempts)
		}
	}
	netw.mu.Unlock()

	// user-4 (shard 1) answers no sync.
	netw = newTapNetwork(NewMemNetwork())
	syncs := 0 // guarded by the tap's lock
	netw.drop = func(from string, m Message) bool {
		if m.Kind == hierKindSync && m.To == userName(4) {
			syncs++
		}
		return from == userName(4) && m.Kind == hierKindRow
	}
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ejected) != 1 || res.Ejected[0] != 4 || len(res.EjectedShards) != 0 {
		t.Errorf("Ejected = %v, EjectedShards = %v; want [4] and none", res.Ejected, res.EjectedShards)
	}
	netw.mu.Lock()
	defer netw.mu.Unlock()
	if syncs != opts.MaxAttempts {
		t.Errorf("the leader sent %s %d syncs, want %d", userName(4), syncs, opts.MaxAttempts)
	}
}

// TestNashShardedTCP: the hierarchical protocol runs over the TCP
// transport end to end.
func TestNashShardedTCP(t *testing.T) {
	t.Parallel()
	const m = 8
	sys := shardTestSystem(t, m)
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = closeFn() // test teardown
	}()
	opts := fastShardOptions(17)
	opts.Shards = 2
	res, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := survivorsAtBestReply(sys, res, 1e-6); err != nil {
		t.Error(err)
	}

	// Same seed in-memory: the TCP run reaches the identical profile.
	memRes, err := RunNashShardedWith(NewMemNetwork(), sys, nil, 1e-9, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Profile.S {
		for i := range res.Profile.S[j] {
			if res.Profile.S[j][i] != memRes.Profile.S[j][i] {
				t.Fatalf("TCP and mem profiles diverge at [%d][%d]", j, i)
			}
		}
	}
}

// TestNashShardedStalled: on a network that eats everything the run
// ends in ErrStalled. The root ejects every shard (in about 0.3 s here,
// before the 0.7 s run deadline); TestNashRingStalled covers the
// deadline itself.
func TestNashShardedStalled(t *testing.T) {
	t.Parallel()
	const m = 4
	sys := shardTestSystem(t, m)
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Drop: 1}, nil)
	opts := fastShardOptions(19)
	opts.Shards = 2
	opts.Watchdog = 30 * time.Millisecond
	opts.ProbeTimeout = 10 * time.Millisecond
	opts.Deadline = 700 * time.Millisecond
	_, err := RunNashShardedWith(netw, sys, nil, 1e-9, 0, opts)
	if err == nil {
		t.Fatal("total message loss converged")
	}
	if !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want ErrStalled", err)
	}
}
