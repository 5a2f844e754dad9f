package dist

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// ChaosNetwork is a fault-injecting decorator over any Network. It
// subjects every message to a seeded schedule of drop, delay,
// duplication, reorder and partition faults, and can crash nodes after a
// configured number of sends — the fault regime the distributed
// load-balancing literature studies (selfish rebalancing under lossy,
// concurrent, imperfect information) and the one the hardened protocol
// runtimes in this package must survive.
//
// Determinism contract: every fault decision for the k-th message on a
// directed link (from, to) is a pure function of (Seed, from, to, k).
// Each link owns an independent queueing.RNG stream derived statelessly
// from the seed and the link name, and decisions are drawn under the
// link's lock in sequence order, so goroutine interleaving across links
// cannot perturb the schedule: replaying a seed reproduces the identical
// fault schedule. No wall clock and no global math/rand are consulted
// for any decision (delays are executed with timers, but which messages
// are delayed, and by how much, comes from the seeded stream).
//
// ErrCrashed is returned from Recv by a crashed node's endpoint, so the
// node's goroutine observes its own death the way a supervised process
// would.

// FaultPlan is one seeded fault schedule. The zero value injects
// nothing: a ChaosNetwork with a zero plan is message-for-message
// identical to the network it wraps. Probabilities are per message in
// [0, 1].
type FaultPlan struct {
	// Seed selects the deterministic fault schedule.
	Seed uint64
	// Drop is the probability a message is silently lost.
	Drop float64
	// Delay is the probability a message is held back; the hold
	// duration is uniform in (0, MaxDelay], drawn from the seeded
	// stream. MaxDelay <= 0 disables delays.
	Delay    float64
	MaxDelay time.Duration
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held until the next
	// message on the same link, which then overtakes it. A held message
	// with no successor is flushed when the sender closes its endpoint.
	Reorder float64
	// Crash maps a node name to the send count at which the node dies:
	// its crashing send and every later one is swallowed, and every
	// later receive fails with ErrCrashed. Nodes not listed never crash.
	Crash map[string]int
	// Partition, when non-nil, isolates a set of nodes from the rest
	// for a window of each link's traffic.
	Partition *PartitionPlan
}

// PartitionPlan cuts the network in two for a while: messages crossing
// the boundary between Nodes and the rest are dropped while the link's
// per-link sequence number lies in [From, To). Sequence-counted windows
// (rather than wall-clock ones) keep the partition schedule
// deterministic under any goroutine interleaving.
type PartitionPlan struct {
	Nodes    []string
	From, To int
}

// ErrCrashed is returned by a crashed node's Recv: the injected
// equivalent of the process dying.
var ErrCrashed = errors.New("dist: node crashed (injected fault)")

type chaosNetwork struct {
	inner Network
	plan  FaultPlan
	obs   obs.Observer
	part  map[string]bool

	mu    sync.Mutex
	links map[linkKey]*chaosLink
	nodes map[string]*chaosNode
}

type linkKey struct{ from, to string }

// chaosLink is the per-directed-link fault state: an independent RNG
// stream, the message sequence counter the schedule is keyed on, and
// the reorder stash.
type chaosLink struct {
	mu   sync.Mutex
	rng  *queueing.RNG
	seq  int
	held []Message
}

// chaosNode tracks one node's send count toward its crash step.
type chaosNode struct {
	mu      sync.Mutex
	sends   int
	crashAt int // -1: never crashes
	crashed bool
}

// NewChaosNetwork wraps inner with the seeded fault schedule of plan.
// Fault events are reported to o (which may be nil) under the obs
// Chaos* kinds; an *obs.Registry observer reproduces the historical
// "chaos.*" counters.
func NewChaosNetwork(inner Network, plan FaultPlan, o obs.Observer) Network {
	n := &chaosNetwork{
		inner: inner,
		plan:  plan,
		obs:   o,
		links: make(map[linkKey]*chaosLink),
		nodes: make(map[string]*chaosNode),
	}
	if plan.Partition != nil {
		n.part = make(map[string]bool, len(plan.Partition.Nodes))
		for _, name := range plan.Partition.Nodes {
			n.part[name] = true
		}
	}
	return n
}

// linkStreamSeed derives the per-link RNG seed as FNV-1a of the link
// name folded into the plan seed; queueing.NewRNG's SplitMix64
// expansion decorrelates nearby results.
func linkStreamSeed(seed uint64, from, to string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * 1099511628211
	}
	h = (h ^ 0x1f) * 1099511628211 // separator: "a","bc" vs "ab","c"
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * 1099511628211
	}
	return seed ^ h
}

func (n *chaosNetwork) link(from, to string) *chaosLink {
	key := linkKey{from, to}
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[key]
	if !ok {
		l = &chaosLink{rng: queueing.NewRNG(linkStreamSeed(n.plan.Seed, from, to))}
		n.links[key] = l
	}
	return l
}

func (n *chaosNetwork) node(name string) *chaosNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[name]
	if !ok {
		nd = &chaosNode{crashAt: -1}
		if at, found := n.plan.Crash[name]; found {
			nd.crashAt = at
		}
		n.nodes[name] = nd
	}
	return nd
}

func (n *chaosNetwork) Join(name string) (Conn, error) {
	inner, err := n.inner.Join(name)
	if err != nil {
		return nil, err
	}
	return &chaosConn{net: n, inner: inner, node: n.node(name)}, nil
}

type chaosConn struct {
	net   *chaosNetwork
	inner Conn
	node  *chaosNode
}

func (c *chaosConn) Name() string { return c.inner.Name() }

// Send runs the seeded fault schedule for this message and delivers (or
// withholds) it accordingly.
//
//lint:ignore drawdiscipline the zero-draw path is a crashed sender whose messages vanish before the link stream is consulted; decision k stays a pure function of (seed, link, k)
func (c *chaosConn) Send(m Message) error {
	m.From = c.inner.Name()
	// Crash check: the node's own sends count toward its crash step, so
	// the crash point is deterministic in the node's sequential send
	// stream regardless of scheduling elsewhere.
	c.node.mu.Lock()
	if !c.node.crashed && c.node.crashAt >= 0 && c.node.sends >= c.node.crashAt {
		c.node.crashed = true
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosCrash, Node: m.From})
	}
	crashed := c.node.crashed
	c.node.sends++
	c.node.mu.Unlock()
	if crashed {
		return nil // a dead process's sends vanish without error
	}

	plan := c.net.plan
	l := c.net.link(m.From, m.To)
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.seq
	l.seq++
	// Draw the full decision vector for every message, whatever the
	// outcome, so decision k is a pure function of (seed, link, k).
	uDrop := l.rng.Float64()
	uDup := l.rng.Float64()
	uReorder := l.rng.Float64()
	uDelay := l.rng.Float64()
	uDelayAmt := l.rng.Float64()

	if p := plan.Partition; p != nil && seq >= p.From && seq < p.To && c.net.part[m.From] != c.net.part[m.To] {
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosPartition, Node: m.From})
		return nil // dropped at the partition boundary
	}
	if uDrop < plan.Drop {
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosDrop, Node: m.From})
		return nil
	}
	if uReorder < plan.Reorder {
		// Hold until the next message on this link overtakes it.
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosReorder, Node: m.From})
		m.Data = bytes.Clone(m.Data) // outlives this Send (the send rule)
		l.held = append(l.held, m)
		return nil
	}

	dup := uDup < plan.Duplicate
	var delay time.Duration
	if plan.MaxDelay > 0 && uDelay < plan.Delay {
		delay = time.Duration(uDelayAmt * float64(plan.MaxDelay))
		if delay <= 0 {
			delay = 1
		}
	}
	if err := c.deliver(m, delay, dup); err != nil {
		return err
	}
	// Release anything this message overtook.
	if len(l.held) > 0 {
		held := l.held
		l.held = nil
		for _, h := range held {
			if err := c.deliver(h, 0, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver hands a message to the wrapped network, late and/or twice if
// the schedule says so.
func (c *chaosConn) deliver(m Message, delay time.Duration, dup bool) error {
	if dup {
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosDuplicate, Node: m.From})
	}
	if delay > 0 {
		obs.Emit(c.net.obs, obs.Event{Kind: obs.ChaosDelay, Node: m.From})
		m.Data = bytes.Clone(m.Data) // outlives this Send (the send rule)
		//lint:ignore leakcheck delay-bounded fire-and-forget by design; a late delivery must be able to outlive the recipient
		go func() {
			time.Sleep(delay)
			// Late delivery is best-effort: the recipient may have left.
			_ = c.inner.Send(m)
			if dup {
				// Late delivery is best-effort: the recipient may have left.
				_ = c.inner.Send(m)
			}
		}()
		return nil
	}
	if err := c.inner.Send(m); err != nil {
		return err
	}
	if dup {
		// The duplicate is best-effort; the original was delivered.
		_ = c.inner.Send(m)
	}
	return nil
}

func (c *chaosConn) isCrashed() bool {
	c.node.mu.Lock()
	defer c.node.mu.Unlock()
	return c.node.crashed
}

func (c *chaosConn) Recv() (Message, error) {
	if c.isCrashed() {
		return Message{}, fmt.Errorf("dist: recv on %q: %w", c.inner.Name(), ErrCrashed)
	}
	return c.inner.Recv()
}

func (c *chaosConn) RecvTimeout(d time.Duration) (Message, error) {
	if c.isCrashed() {
		return Message{}, fmt.Errorf("dist: recv on %q: %w", c.inner.Name(), ErrCrashed)
	}
	return c.inner.RecvTimeout(d)
}

// Close flushes this sender's reorder stashes (a held message whose
// successor never came is otherwise lost) and closes the endpoint.
func (c *chaosConn) Close() error {
	name := c.inner.Name()
	c.net.mu.Lock()
	var stranded []*chaosLink
	for key, l := range c.net.links {
		if key.from == name {
			stranded = append(stranded, l)
		}
	}
	c.net.mu.Unlock()
	for _, l := range stranded {
		l.mu.Lock()
		held := l.held
		l.held = nil
		l.mu.Unlock()
		for _, h := range held {
			// Flush at teardown is best-effort; the recipient may have left.
			_ = c.inner.Send(h)
		}
	}
	return c.inner.Close()
}
