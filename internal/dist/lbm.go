package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gtlb/internal/mechanism"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The §5.4 LBM protocol has two phases. Bidding: the dispatcher sends a
// request-for-bids (ReqBid) to every computer, which answers with its
// bid b_i. Completion: the dispatcher computes the optimal allocation
// and the truthful payments, and sends each computer its load and
// payment; the computer evaluates its profit.
//
// The dispatcher is hardened against the transport faults ChaosNetwork
// injects: bid collection runs under a deadline with
// bounded-exponential-backoff re-requests, and computers that stay
// silent past the retry budget are excluded — the mechanism then runs on
// the responsive subset, provided the survivors' capacity still covers
// the total arrival rate Φ (otherwise ErrInsufficientCapacity).

// Message kinds used by the LBM protocol.
const (
	kindReqBid  = "lbm.reqbid"  // dispatcher → computer (re-sent on retry)
	kindBid     = "lbm.bid"     // computer → dispatcher
	kindAward   = "lbm.award"   // dispatcher → computer: load and payment
	kindRelease = "lbm.release" // dispatcher → excluded computer: round over, no award
)

type reqBidPayload struct {
	Computer int
	Attempt  int
}

type bidPayload struct {
	Computer int
	Bid      float64
}

type awardPayload struct {
	Load    float64
	Payment float64
}

// ErrInsufficientCapacity is returned when the computers that answered
// within the retry budget cannot carry the total arrival rate: the
// protocol degrades to the responsive subset only while Σ 1/b_i > Φ
// holds over that subset.
var ErrInsufficientCapacity = errors.New("dist: responsive capacity insufficient for arrival rate")

// BidPolicy decides what a computer agent reports given its true value.
// The identity policy is truthful; the experiments use scaled policies.
type BidPolicy func(trueValue float64) float64

// Truthful reports the true value unchanged.
func Truthful(t float64) float64 { return t }

// ScaledBid reports factor × the true value (factor > 1 overbids —
// claims to be slower; factor < 1 underbids).
func ScaledBid(factor float64) BidPolicy {
	return func(t float64) float64 { return t * factor }
}

// ComputerReport is what each computer agent knows at the end of an LBM
// round. For an excluded or crashed computer only Bid (if it got that
// far) is meaningful.
type ComputerReport struct {
	Bid     float64
	Load    float64
	Payment float64
	Cost    float64 // true value × load
	Profit  float64 // payment − cost
}

// LBMResult is the dispatcher-side outcome plus every agent's own view.
// Bids, Outcome slices and Computers are indexed by computer over the
// full system; entries for Excluded computers are zero.
type LBMResult struct {
	Bids      []float64
	Outcome   mechanism.Outcome
	Computers []ComputerReport
	// Excluded lists computers (ascending) that stayed silent past the
	// retry budget and were left out of the mechanism.
	Excluded []int
}

// LBMOptions tunes the hardened dispatcher runtime. The zero value gets
// production-safe defaults.
type LBMOptions struct {
	// BidDeadline is how long the dispatcher waits on a quiet network
	// for outstanding bids before re-requesting (default 2s).
	BidDeadline time.Duration
	// MaxAttempts bounds bid request rounds per computer (default 3).
	MaxAttempts int
	// Backoff and BackoffCap bound the exponential re-request backoff:
	// min(BackoffCap, Backoff·2^attempt) plus seeded jitter
	// (defaults 50ms, 1s).
	Backoff    time.Duration
	BackoffCap time.Duration
	// Seed drives the jitter stream, so replays back off identically.
	Seed uint64
	// AgentBudget bounds a computer agent's wait for any message, so an
	// orphaned agent always terminates (default: generous multiple of
	// the dispatcher's total deadline).
	AgentBudget time.Duration
	// Observer, when non-nil, receives lbm.* protocol events:
	// fault/retry counts (retry, timeout, excluded, badmsg,
	// agent.error — the historical Counters keys), one LBMRound per
	// bid-collection attempt, one LBMBid per accepted bid and one
	// LBMAward per load award.
	Observer obs.Observer
}

func (o LBMOptions) withDefaults() LBMOptions {
	if o.BidDeadline <= 0 {
		o.BidDeadline = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	if o.AgentBudget <= 0 {
		o.AgentBudget = time.Duration(o.MaxAttempts)*(o.BidDeadline+o.BackoffCap) + 5*time.Second
	}
	return o
}

// agentDone is one computer agent's terminal report.
type agentDone struct {
	index int
	err   error
}

// computerAgent runs one computer's side of the protocol. It answers
// every ReqBid (re-requests included), finishes on an award or a
// release, and gives up after budget of silence so it can never leak.
func computerAgent(conn Conn, index int, trueValue float64, policy BidPolicy, out *ComputerReport, wg *sync.WaitGroup, done chan<- agentDone, budget time.Duration) {
	defer wg.Done()
	finish := func(err error) { done <- agentDone{index: index, err: err} }
	for {
		m, err := conn.RecvTimeout(budget)
		if err != nil {
			finish(err)
			return
		}
		switch m.Kind {
		case kindReqBid:
			var req reqBidPayload
			if err := m.Decode(&req); err != nil {
				finish(err)
				return
			}
			bid := policy(trueValue)
			reply := Message{To: m.From, Kind: kindBid}
			if err := reply.Encode(bidPayload{Computer: index, Bid: bid}); err != nil {
				finish(err)
				return
			}
			if err := conn.Send(reply); err != nil {
				finish(err)
				return
			}
			out.Bid = bid
		case kindAward:
			var a awardPayload
			if err := m.Decode(&a); err != nil {
				finish(err)
				return
			}
			out.Load = a.Load
			out.Payment = a.Payment
			out.Cost = trueValue * a.Load
			out.Profit = a.Payment - out.Cost
			finish(nil)
			return
		case kindRelease:
			finish(nil)
			return
		default:
			// Stale or duplicated traffic from an earlier attempt; drop.
		}
	}
}

// RunLBMWith executes the LBM protocol over the network: n computer
// agents with the given true values and bid policies, one dispatcher
// running the mechanism with total arrival rate phi, hardened by the
// fault-tolerance options (the zero value gets the defaults). It
// returns the dispatcher's outcome evaluated against the true values
// together with each agent's own report.
func RunLBMWith(netw Network, trueValues []float64, policies []BidPolicy, phi float64, opts LBMOptions) (LBMResult, error) {
	n := len(trueValues)
	if n == 0 {
		return LBMResult{}, fmt.Errorf("dist: LBM needs at least one computer")
	}
	if len(policies) != n {
		return LBMResult{}, fmt.Errorf("dist: %d policies for %d computers", len(policies), n)
	}
	opts = opts.withDefaults()
	o := opts.Observer

	disp, err := netw.Join("dispatcher")
	if err != nil {
		return LBMResult{}, err
	}
	//lint:ignore errcheck dispatcher teardown at return; the result is already decided
	defer disp.Close()

	reports := make([]ComputerReport, n)
	done := make(chan agentDone, n)
	var wg sync.WaitGroup
	conns := make([]Conn, n)
	for i := 0; i < n; i++ {
		c, err := netw.Join(computerName(i))
		if err != nil {
			return LBMResult{}, err
		}
		conns[i] = c
		pol := policies[i]
		if pol == nil {
			pol = Truthful
		}
		wg.Add(1)
		go computerAgent(c, i, trueValues[i], pol, &reports[i], &wg, done, opts.AgentBudget)
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close() // teardown after the agents exited
		}
	}()

	// Agent failures are drained concurrently with Phase I: an agent
	// that dies before bidding surfaces as a missing bid at the
	// deadline, never as a deadlocked collection loop.
	agentErrs := make([]error, n)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for k := 0; k < n; k++ {
			d := <-done
			agentErrs[d.index] = d.err
		}
	}()

	// Phase I: bidding under a deadline with bounded-exponential-backoff
	// re-requests.
	rng := queueing.NewRNG(opts.Seed).Split(0)
	bids := make([]float64, n)
	got := make([]bool, n)
	remaining := n
	for attempt := 0; attempt < opts.MaxAttempts && remaining > 0; attempt++ {
		obs.Emit(o, obs.Event{Kind: obs.LBMRound, Time: float64(attempt)})
		if attempt > 0 {
			obs.CountN(o, obs.LBMRetry, int64(remaining))
			time.Sleep(backoffDelay(opts.Backoff, opts.BackoffCap, attempt-1, rng))
		}
		reqs := make([]Message, 0, remaining)
		for i := 0; i < n; i++ {
			if got[i] {
				continue
			}
			req := Message{To: computerName(i), Kind: kindReqBid}
			if err := req.Encode(reqBidPayload{Computer: i, Attempt: attempt}); err != nil {
				return LBMResult{}, err
			}
			reqs = append(reqs, req)
		}
		// One coalesced burst: the TCP transport writes a single frame
		// batch, the mem transport amortizes recipient lookups.
		if err := SendAll(disp, reqs); err != nil {
			return LBMResult{}, err
		}
		for remaining > 0 {
			m, err := disp.RecvTimeout(opts.BidDeadline)
			if err != nil {
				if errors.Is(err, ErrTimeout) {
					obs.Count(o, obs.LBMTimeout)
					break // quiet network: next attempt (or degrade)
				}
				return LBMResult{}, err
			}
			if m.Kind != kindBid {
				continue // stale traffic
			}
			var b bidPayload
			if m.Decode(&b) != nil {
				obs.Count(o, obs.LBMBadMsg)
				continue
			}
			if b.Computer < 0 || b.Computer >= n || got[b.Computer] {
				continue // unknown index or duplicated bid
			}
			bids[b.Computer] = b.Bid
			got[b.Computer] = true
			obs.Emit(o, obs.Event{Kind: obs.LBMBid, Time: float64(attempt), A: int32(b.Computer), V: b.Bid, Node: computerName(b.Computer)})
			remaining--
		}
	}

	// Graceful degradation: computers silent past the retry budget are
	// excluded and the mechanism runs on the responsive subset.
	var included, excluded []int
	for i := 0; i < n; i++ {
		if got[i] {
			included = append(included, i)
		} else {
			excluded = append(excluded, i)
		}
	}
	if len(excluded) > 0 {
		obs.CountN(o, obs.LBMExcluded, int64(len(excluded)))
	}

	// Feasibility of Φ against the surviving capacity Σ 1/b_i.
	var capacity float64
	for _, i := range included {
		if bids[i] > 0 {
			capacity += 1 / bids[i]
		}
	}
	if capacity <= phi {
		return LBMResult{Excluded: excluded},
			fmt.Errorf("dist: %d of %d computers responsive, capacity %.6g vs phi %.6g: %w",
				len(included), n, capacity, phi, ErrInsufficientCapacity)
	}

	// Phase II: completion on the responsive subset, mapped back to the
	// full index space (excluded computers get zero load and payment).
	subBids := make([]float64, len(included))
	subTrue := make([]float64, len(included))
	for k, i := range included {
		subBids[k] = bids[i]
		subTrue[k] = trueValues[i]
	}
	mech := mechanism.Mechanism{Phi: phi}
	subOut, err := mech.Run(subBids, subTrue)
	if err != nil {
		if errors.Is(err, mechanism.ErrInfeasible) {
			err = fmt.Errorf("%w: %w", ErrInsufficientCapacity, err)
		}
		return LBMResult{Excluded: excluded}, err
	}
	outcome := mechanism.Outcome{
		Loads:    make([]float64, n),
		Payments: make([]float64, n),
		Costs:    make([]float64, n),
		Profits:  make([]float64, n),
	}
	for k, i := range included {
		outcome.Loads[i] = subOut.Loads[k]
		outcome.Payments[i] = subOut.Payments[k]
		outcome.Costs[i] = subOut.Costs[k]
		outcome.Profits[i] = subOut.Profits[k]
	}
	awards := make([]Message, 0, len(included))
	for _, i := range included {
		award := Message{To: computerName(i), Kind: kindAward}
		if err := award.Encode(awardPayload{Load: outcome.Loads[i], Payment: outcome.Payments[i]}); err != nil {
			return LBMResult{}, err
		}
		awards = append(awards, award)
		obs.Emit(o, obs.Event{Kind: obs.LBMAward, A: int32(i), V: outcome.Loads[i], Node: computerName(i)})
	}
	if err := SendAll(disp, awards); err != nil {
		return LBMResult{}, err
	}
	for _, i := range excluded {
		rel := Message{To: computerName(i), Kind: kindRelease}
		_ = disp.Send(rel) // best-effort: the excluded computer may be crashed or gone
	}
	wg.Wait()
	drainWG.Wait()
	for i := 0; i < n; i++ {
		if agentErrs[i] == nil {
			continue
		}
		if len(excluded) == 0 {
			// Fault-free semantics: with every bid in, an agent failure
			// still fails the round, as before the hardening.
			return LBMResult{}, agentErrs[i]
		}
		obs.Count(o, obs.LBMAgentError) // degraded round: record and carry on
	}
	return LBMResult{Bids: bids, Outcome: outcome, Computers: reports, Excluded: excluded}, nil
}

func computerName(i int) string { return fmt.Sprintf("computer-%d", i) }
