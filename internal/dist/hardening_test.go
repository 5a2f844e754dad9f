package dist

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"gtlb/internal/mechanism"
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
