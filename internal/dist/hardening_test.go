package dist

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"gtlb/internal/mechanism"
	"gtlb/internal/metrics"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
)

// brokenRecvNetwork wraps a Network and makes receives on one named
// node fail immediately — a node whose process dies right after joining.
type brokenRecvNetwork struct {
	Network
	victim string
}

type brokenRecvConn struct {
	Conn
	err error
}

func (n *brokenRecvNetwork) Join(name string) (Conn, error) {
	c, err := n.Network.Join(name)
	if err != nil {
		return nil, err
	}
	if name == n.victim {
		return &brokenRecvConn{Conn: c, err: errors.New("stub: receiver broken")}, nil
	}
	return c, nil
}

func (c *brokenRecvConn) Recv() (Message, error)                     { return Message{}, c.err }
func (c *brokenRecvConn) RecvTimeout(time.Duration) (Message, error) { return Message{}, c.err }

func fastLBMOptions() LBMOptions {
	return LBMOptions{
		BidDeadline: 50 * time.Millisecond,
		MaxAttempts: 2,
		Backoff:     5 * time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
		AgentBudget: time.Second,
	}
}

// TestLBMAgentFailsBeforeBid: an agent that dies before bidding must
// surface as an excluded computer, not deadlock the dispatcher's bid
// collection (regression: the dispatcher used to read agent errors only
// after Phase I, which could never finish).
func TestLBMAgentFailsBeforeBid(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	policies := make([]BidPolicy, len(trueVals))
	netw := &brokenRecvNetwork{Network: NewMemNetwork(), victim: computerName(3)}
	ctr := obs.NewRegistry()
	opts := fastLBMOptions()
	opts.Observer = ctr
	res, err := RunLBMWith(netw, trueVals, policies, 0.5*0.663, opts)
	if err != nil {
		t.Fatalf("degraded round failed: %v", err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 3 {
		t.Fatalf("Excluded = %v, want [3]", res.Excluded)
	}
	if res.Outcome.Loads[3] != 0 || res.Outcome.Payments[3] != 0 {
		t.Errorf("excluded computer was awarded load %v payment %v", res.Outcome.Loads[3], res.Outcome.Payments[3])
	}
	var total float64
	for _, l := range res.Outcome.Loads {
		total += l
	}
	if math.Abs(total-0.5*0.663) > 1e-9 {
		t.Errorf("degraded allocation carries %v, want phi", total)
	}
	if ctr.Get("lbm.excluded") != 1 {
		t.Errorf("lbm.excluded = %d, want 1", ctr.Get("lbm.excluded"))
	}
}

// TestLBMInsufficientCapacity: when the surviving capacity cannot carry
// Φ the dispatcher degrades to a typed error instead of a bad outcome.
func TestLBMInsufficientCapacity(t *testing.T) {
	t.Parallel()
	trueVals := []float64{1 / 0.13, 1 / 0.13}
	policies := make([]BidPolicy, 2)
	// Kill one of two computers and ask for more than the survivor has.
	netw := &brokenRecvNetwork{Network: NewMemNetwork(), victim: computerName(1)}
	res, err := RunLBMWith(netw, trueVals, policies, 0.2, fastLBMOptions())
	if !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("err = %v, want ErrInsufficientCapacity", err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 1 {
		t.Errorf("Excluded = %v, want [1]", res.Excluded)
	}
}

// TestLBMCrashedComputerExcluded: the same degradation driven end to end
// by a ChaosNetwork crash fault rather than a stubbed transport.
func TestLBMCrashedComputerExcluded(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	policies := make([]BidPolicy, len(trueVals))
	ctr := obs.NewRegistry()
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{computerName(5): 0}}, ctr)
	opts := fastLBMOptions()
	opts.Observer = ctr
	phi := 0.5 * 0.663
	res, err := RunLBMWith(netw, trueVals, policies, phi, opts)
	if err != nil {
		t.Fatalf("degraded round failed: %v", err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 5 {
		t.Fatalf("Excluded = %v, want [5]", res.Excluded)
	}
	// The outcome must equal the mechanism run on the responsive subset.
	var subBids, subTrue []float64
	for i, v := range trueVals {
		if i != 5 {
			subBids = append(subBids, v)
			subTrue = append(subTrue, v)
		}
	}
	want, err := mechanism.Mechanism{Phi: phi}.Run(subBids, subTrue)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for i := range trueVals {
		if i == 5 {
			continue
		}
		if math.Abs(res.Outcome.Loads[i]-want.Loads[k]) > 1e-12 ||
			math.Abs(res.Outcome.Payments[i]-want.Payments[k]) > 1e-12 {
			t.Errorf("computer %d outcome differs from subset mechanism", i)
		}
		k++
	}
	if ctr.Get("chaos.crash") != 1 || ctr.Get("lbm.retry") == 0 {
		t.Errorf("counters = %s, want a crash and retries", ctr)
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

// survivorsAtEquilibrium checks that every non-ejected user's strategy
// is (within tol, in expected-time terms) a best reply to the published
// profile — the equilibrium of the system reduced by the ejected users.
func survivorsAtEquilibrium(t *testing.T, sys noncoop.System, res NashRingResult, tol float64) {
	t.Helper()
	ejected := make(map[int]bool, len(res.Ejected))
	for _, j := range res.Ejected {
		ejected[j] = true
	}
	for j := range sys.Phi {
		if ejected[j] {
			for i, s := range res.Profile.S[j] {
				if s != 0 {
					t.Errorf("ejected user %d keeps load fraction %v on computer %d", j, s, i)
				}
			}
			continue
		}
		avail := sys.Available(res.Profile, j)
		br, err := noncoop.BestReply(avail, sys.Phi[j])
		if err != nil {
			t.Fatalf("user %d best reply: %v", j, err)
		}
		have := noncoop.BestReplyTime(avail, res.Profile.S[j], sys.Phi[j])
		want := noncoop.BestReplyTime(avail, br, sys.Phi[j])
		if math.Abs(have-want) > tol {
			t.Errorf("user %d is %v from its best reply (tol %v)", j, have-want, tol)
		}
	}
}

// TestNashRingCrashedUserEjected: a user that crashes mid-run is
// detected by user 0's watchdog, ejected, and the survivors converge to
// the reduced system's equilibrium.
func TestNashRingCrashedUserEjected(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ctr := obs.NewRegistry()
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{userName(2): 4}}, ctr)
	opts := NashOptions{
		Watchdog:     60 * time.Millisecond,
		ProbeTimeout: 15 * time.Millisecond,
		MaxAttempts:  3,
		Deadline:     10 * time.Second,
		Observer:     ctr,
	}
	res, err := RunNashRingWith(netw, sys, 1e-9, 0, opts)
	if err != nil {
		t.Fatalf("survivors failed to converge: %v (counters %s)", err, ctr)
	}
	if len(res.Ejected) != 1 || res.Ejected[0] != 2 {
		t.Fatalf("Ejected = %v, want [2]", res.Ejected)
	}
	survivorsAtEquilibrium(t, sys, res, 1e-6)
	if ctr.Get("nash.token.regenerated") == 0 || ctr.Get("nash.ejected") != 1 {
		t.Errorf("counters = %s, want a regeneration and one ejection", ctr)
	}
}

// TestNashRingTokenLossRegenerated: a pure token loss (no node died) is
// repaired by regeneration alone — nobody gets ejected and the full
// ring still reaches the fault-free equilibrium.
func TestNashRingTokenLossRegenerated(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ctr := obs.NewRegistry()
	// Drop the first message into user 0 on every link: the injected
	// token dies; first pings/pongs die too and are retried.
	plan := FaultPlan{Partition: &PartitionPlan{Nodes: []string{userName(0)}, From: 0, To: 1}}
	netw := NewChaosNetwork(NewMemNetwork(), plan, ctr)
	opts := NashOptions{
		Watchdog:     60 * time.Millisecond,
		ProbeTimeout: 15 * time.Millisecond,
		MaxAttempts:  3,
		Deadline:     10 * time.Second,
		Observer:     ctr,
	}
	res, err := RunNashRingWith(netw, sys, 1e-9, 0, opts)
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

// holdTokenNetwork makes every user but the last hold the n-th token
// it forwards until it forwards the next one, then deliver both in
// order, the second after a pause that lets the successor finish its
// step on the first (a token arriving mid-step is dropped as stale
// traffic). The held token stalls user 0's watchdog into regenerating a
// token while the old one is still alive; as the two travel together,
// each user best-replies on the old token and then, on an unchanged
// profile, on the new one.
type holdTokenNetwork struct {
	Network
	m, n int
}

func (h holdTokenNetwork) Join(name string) (Conn, error) {
	c, err := h.Network.Join(name)
	if err != nil || name == "state" || name == userName(h.m-1) {
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
	if m.Kind != kindToken || m.To == c.Name() { // a regenerated token goes to its creator first
		return c.Conn.Send(m)
	}
	if c.seen++; c.seen == c.n {
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
// not lost, circulates alongside its regenerated replacement for one
// round, so every user best-replies twice on the same profile and that
// round's norm reads zero. The ring must not accept that round: it has
// to converge to the fault-free equilibrium, not stop a sweep early.
func TestNashRingRegenerationWithLiveToken(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	ref, err := RunNashRing(NewMemNetwork(), sys, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 10} {
		ctr := obs.NewRegistry()
		opts := NashOptions{
			Watchdog:     30 * time.Millisecond,
			ProbeTimeout: 15 * time.Millisecond,
			Deadline:     10 * time.Second,
			Observer:     ctr,
		}
		res, err := RunNashRingWith(holdTokenNetwork{NewMemNetwork(), sys.NumUsers(), n}, sys, 1e-9, 0, opts)
		if err != nil {
			t.Fatalf("hold token %d: %v (counters %s)", n, err, ctr)
		}
		if ctr.Get("nash.token.regenerated") == 0 {
			t.Fatalf("hold token %d: counters = %s, want a regeneration", n, ctr)
		}
		if d := metrics.LInfNorm(sys.Loads(res.Profile), sys.Loads(ref.Profile)); d > 1e-6 {
			t.Errorf("hold token %d: loads %g from the fault-free equilibrium after %d rounds (reference %d); counters %s",
				n, d, res.Iterations, ref.Iterations, ctr)
		}
	}
}

// TestNashRingStalled: when not even the watchdog can act (it is set
// far beyond the driver deadline) the run ends in ErrStalled with the
// checkpoint profile instead of hanging.
func TestNashRingStalled(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	plan := FaultPlan{Partition: &PartitionPlan{Nodes: []string{userName(0)}, From: 0, To: 1}}
	netw := NewChaosNetwork(NewMemNetwork(), plan, nil)
	opts := NashOptions{
		Watchdog: 10 * time.Second, // never fires before the deadline
		Deadline: 80 * time.Millisecond,
	}
	res, err := RunNashRingWith(netw, sys, 1e-9, 0, opts)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if len(res.Profile.S) != sys.NumUsers() {
		t.Error("stalled run lost the checkpoint profile")
	}
}

// TestNashRingUserZeroCrash: user 0 crashing kills the watchdog itself;
// the run must still end promptly with a typed error.
func TestNashRingUserZeroCrash(t *testing.T) {
	t.Parallel()
	sys := soakNashSystem(t)
	netw := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{userName(0): 0}}, nil)
	opts := NashOptions{
		Watchdog:     50 * time.Millisecond,
		ProbeTimeout: 10 * time.Millisecond,
		Deadline:     2 * time.Second,
	}
	_, err := RunNashRingWith(netw, sys, 1e-9, 0, opts)
	if err == nil {
		t.Fatal("run with a crashed user 0 succeeded")
	}
	if !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want a typed fault error", err)
	}
}

// TestTCPClosedErrorCarriesCause: a TCP receive that fails because the
// stream died must report the underlying cause, not a bare ErrClosed
// (regression: the decode error used to be swallowed).
func TestTCPClosedErrorCarriesCause(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = closeFn()
	}()
	conn, err := netw.Join("x")
	if err != nil {
		t.Fatal(err)
	}
	tc := conn.(*tcpConn)
	// Sever the raw socket under the endpoint: the receive's own read
	// sees the failure while the endpoint itself is still open.
	if err := tc.c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = conn.RecvTimeout(2 * time.Second)
	if err == nil {
		t.Fatal("Recv on a severed stream succeeded")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, does not match ErrClosed", err)
	}
	if err.Error() == ErrClosed.Error() {
		t.Errorf("err = %q carries no underlying cause", err)
	}
	if !strings.Contains(err.Error(), "closed") && !strings.Contains(err.Error(), "EOF") {
		t.Errorf("err = %q does not mention the transport failure", err)
	}
}

// TestLBMServiceWithOptions: the long-running service threads the
// hardened options through its rounds.
func TestLBMServiceWithOptions(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	svc, err := NewLBMService(func() Network { return NewMemNetwork() }, trueVals, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctr := obs.NewRegistry()
	opts := fastLBMOptions()
	opts.Observer = ctr
	svc.SetOptions(opts)
	if _, err := svc.Start(0.5 * 0.663); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := svc.Current(); !ok {
		t.Error("service has no current allocation after Start")
	}
}
