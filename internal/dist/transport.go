// Package dist provides the simulated distributed runtime the protocols
// of Chapters 4 and 5 execute on: named nodes exchanging messages over a
// pluggable transport. Two transports are provided — an in-memory one
// built on per-node unbounded FIFO mailboxes (deterministic, used by
// tests and examples) and a TCP loopback one (shows the protocols
// running across real sockets).
//
// The two protocols implemented on top are:
//
//   - the NASH distributed load-balancing algorithm of §4.3, in which m
//     user nodes compute best replies round-robin, circulating a token
//     that accumulates the convergence norm; and
//   - the LBM bidding protocol of §5.4, in which a dispatcher collects
//     bids from computer agents, computes the optimal allocation and
//     truthful payments, and hands them back.
package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one unit of communication between nodes.
type Message struct {
	From string // sender node name
	To   string // recipient node name
	Kind string // protocol-defined message type
	Data []byte // encoded payload (the binary wire codec; see codec.go)
}

// Encode serializes a payload value into the message's Data. A Data
// with capacity is written in place, once, and keeps any capacity the
// payload outgrows it by (a reused Message stops allocating once it has
// held its largest payload). An empty one gets one new slice of exactly
// the encoded length, built in a pooled scratch buffer. Whoever else
// holds the old Data sees it overwritten, so a Message is re-encoded only
// by its owner; Send keeps no reference to Data (the Conn send rule).
func (m *Message) Encode(p WireEncoder) error {
	if cap(m.Data) > 0 {
		m.Data = p.AppendWire(append(m.Data[:0], codecMagic, p.WireID()))
		return nil
	}
	scratch := wireEncPool.Get().(*[]byte)
	b := p.AppendWire(append((*scratch)[:0], codecMagic, p.WireID()))
	m.Data = make([]byte, len(b))
	copy(m.Data, b)
	*scratch = b
	wireEncPool.Put(scratch)
	return nil
}

// wireEncPool recycles Encode's scratch buffers, keeping the capacity
// they grew to; a buffer stored as a pointer goes in and out of the
// pool without an allocation. A fresh one has room for a typical
// payload, so it does not grow while it is first filled.
var wireEncPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// wireDecPool recycles decoder states: the *WireDec handed to the
// payload's DecodeWire escapes through the interface call, so a fresh
// one per message would cost an allocation on every protocol receive.
var wireDecPool = sync.Pool{New: func() any { return new(WireDec) }}

// Decode deserializes the message's Data into p, reusing p's slice
// capacity. A payload of another wire type, or any malformed input, is
// an error — never a panic.
func (m *Message) Decode(p WireDecoder) error {
	d := wireDecPool.Get().(*WireDec)
	err := m.decodeWith(d, p)
	wireDecPool.Put(d)
	return err
}

// decodeWith is Decode with the caller's decoder state, which it leaves
// zeroed: a node that decodes on every receive keeps one of its own and
// skips the pool.
func (m *Message) decodeWith(d *WireDec, p WireDecoder) error {
	if len(m.Data) < 2 || m.Data[0] != codecMagic {
		return fmt.Errorf("dist: decode %s payload: not a wire-codec payload", m.Kind)
	}
	if m.Data[1] != p.WireID() {
		return fmt.Errorf("dist: decode %s payload: wire type %d does not match target %T", m.Kind, m.Data[1], p)
	}
	*d = WireDec{b: m.Data, off: 2}
	p.DecodeWire(d)
	if d.err == nil && d.off != len(d.b) {
		d.fail("trailing bytes")
	}
	err := d.err
	*d = WireDec{}
	if err != nil {
		return fmt.Errorf("dist: decode %s payload: %w", m.Kind, err)
	}
	return nil
}

// Conn is one node's endpoint on a transport. Recv/RecvTimeout are
// called only by the goroutine that owns the Conn; Send is safe for
// concurrent use. The TCP conn reads frames on that receiving goroutine,
// and the mem conn parks it on a one-slot wake-up channel, which a send
// signals only while it is parked, and reuses one timer across
// receives, both relying on there being a single receiver. Close may
// come from any goroutine.
//
// A received Message's Data is valid only until the next Recv or
// RecvTimeout on the same Conn: the TCP conn hands out the frame in
// place in its read buffer, and the mem conn in place in its mailbox's
// byte arena, both of which the next receive reuses. A caller decodes or
// compares Data before it receives again, or keeps a copy. Data is
// read-only to the receiver. From, To and Kind stay valid.
//
// Send keeps no reference to the sent Data once it returns: the TCP conn
// frames it into its send buffer, the mem conn copies it into the
// recipient's arena, and a fault-injecting wrapper that delivers late
// sends a copy. The sender may overwrite Data or re-encode into it
// straight away. A send addresses a node by name: the mem conn keeps
// the mailbox it last resolved and resolves the name again once that
// mailbox is closed, so a send to a node that left fails and one to a
// name that re-joined reaches the new node.
type Conn interface {
	// Name returns the node name this endpoint joined as.
	Name() string
	// Send delivers the message to its recipient. It is safe for
	// concurrent use and keeps no reference to m.Data after it returns.
	Send(m Message) error
	// Recv blocks until a message addressed to this node arrives. It
	// returns an error once the connection is closed and drained.
	Recv() (Message, error)
	// RecvTimeout behaves like Recv but gives up after d, returning an
	// error wrapping ErrTimeout. A non-positive d means block forever.
	// Deadline-aware receives are what let the hardened protocols retry
	// or degrade instead of deadlocking on a lost message.
	RecvTimeout(d time.Duration) (Message, error)
	// Close releases the endpoint; pending Recv calls return an error.
	Close() error
}

// Network creates endpoints for named nodes.
type Network interface {
	// Join registers a node and returns its endpoint. Node names must
	// be unique on a network.
	Join(name string) (Conn, error)
}

// BatchSender is implemented by transports that can coalesce several
// outbound messages into one frame/syscall (the TCP conn writes one
// buffer; the mem conn has nothing to coalesce and takes SendAll's
// sequential path). Fault-injecting wrappers deliberately do not
// implement it, so every message still receives its own fault draw.
type BatchSender interface {
	// SendBatch delivers the messages in order. It stops at the first
	// send error. Like Send, it keeps no reference to any Data.
	SendBatch(ms []Message) error
}

// SendAll delivers the messages through the connection's batch path
// when available, falling back to sequential Sends.
func SendAll(c Conn, ms []Message) error {
	if b, ok := c.(BatchSender); ok {
		return b.SendBatch(ms)
	}
	for _, m := range ms {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// ErrClosed is returned by Recv after Close. Transport-level failures
// (broker EOF, corrupt stream) wrap both ErrClosed and the underlying
// error, so errors.Is(err, ErrClosed) still matches while the root cause
// stays diagnosable.
var ErrClosed = errors.New("dist: connection closed")

// ErrTimeout is returned (wrapped) by RecvTimeout when no message
// arrives within the deadline.
var ErrTimeout = errors.New("dist: receive timeout")

// memNetwork is the in-memory transport: a mailbox per node.
type memNetwork struct {
	mu    sync.Mutex
	boxes map[string]*mailbox
}

// mailbox is one node's message queue: a FIFO slice of message headers
// and a byte arena holding their payloads, both grown on demand, so a
// node costs a few hundred bytes until messages actually queue up. The
// queue is unbounded — Send never blocks — which is what keeps protocol
// fan-out (a dispatcher messaging n computers) from deadlocking.
//
// The single receiver (the Conn contract) parks on wake, a one-slot
// channel. A take that finds the queue empty marks the receiver parked,
// since it waits on wake next; the first put after that clears the mark
// and leaves a token, and a put into a queue whose receiver is busy
// touches no channel. A token left by a put that raced the receiver's
// way from its empty take to the channel keeps that wake-up from being
// lost; a receiver that gave up waiting (a receive timeout) may find a
// stale token later, which costs one empty re-check. Close always
// leaves a token.
//
// put copies Data into the arena, so the sender may reuse its buffer
// (the send rule), and take hands Data out in place (the receive rule).
// The Data the previous take handed out is dead at the next take, so a
// take that finds the queue empty starts the arena over from the front.
// put never writes over that Data: it appends past the pending payloads,
// and when the arena is full it slides them into a new one.
type mailbox struct {
	mu     sync.Mutex
	q      []queued // q[head:] is pending; q[:head] is consumed and zeroed
	head   int
	data   []byte // the arena; q[i]'s payload is data[q[i].off:][:q[i].n]
	closed bool
	parked bool // the receiver found the queue empty and waits on wake
	wake   chan struct{}
	name   string // the node name the box was joined under
}

// queued is one pending message: its header, with Data nil, and where
// its payload lies in the arena.
type queued struct {
	m      Message
	off, n int
}

// put copies m's payload into the arena, queues m and wakes the
// receiver if it is parked. It fails once the mailbox is closed.
func (b *mailbox) put(m Message) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	n := len(m.Data)
	if len(b.data)+n > cap(b.data) {
		// A new arena: the old one may still hold the Data the last take
		// handed out.
		b.slide(make([]byte, 0, max(2*(len(b.data)-b.pendingOff()+n), 64)))
	}
	e := queued{m: m, off: len(b.data), n: n}
	e.m.Data = nil
	b.data = append(b.data, m.Data...)
	b.q = append(b.q, e)
	wake := b.parked
	b.parked = false
	b.mu.Unlock()
	if wake {
		b.signal()
	}
	return true
}

// pendingOff is where the pending payloads start in the arena.
func (b *mailbox) pendingOff() int {
	if b.head < len(b.q) {
		return b.q[b.head].off
	}
	return len(b.data)
}

// slide moves the pending payloads to the front of dst, which has room
// for them and may be the arena itself, and makes dst the arena.
func (b *mailbox) slide(dst []byte) {
	off := b.pendingOff()
	n := copy(dst[:cap(dst)], b.data[off:])
	for i := b.head; i < len(b.q); i++ {
		b.q[i].off -= off
	}
	b.data = dst[:n]
}

// close refuses further puts and wakes the receiver, which drains what
// is queued and then gets ErrClosed.
func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signal()
}

// signal leaves a wake-up token unless one is already pending.
func (b *mailbox) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// take pops the oldest message (ok), its Data in place in the arena.
// With the queue empty it returns ErrClosed once the mailbox is closed,
// and neither while the receiver must wait, which marks it parked.
// Messages queued before the close are returned first.
func (b *mailbox) take() (m Message, ok bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// From here on the Data the previous take handed out is dead, so the
	// arena's consumed prefix may be written over.
	if b.head == len(b.q) {
		b.data = b.data[:0]
		if b.closed {
			return Message{}, false, ErrClosed
		}
		b.parked = true // the caller waits on wake next
		return Message{}, false, nil
	}
	if off := b.q[b.head].off; off > 0 && 2*off >= len(b.data) {
		// A queue that never drains must not keep its consumed bytes:
		// slide the pending payloads down once they are no more than
		// half. A put grows the arena to twice the pending bytes, so a
		// steady flow slides here just before it would fill the arena.
		b.slide(b.data)
	}
	e := b.q[b.head]
	m = e.m
	if e.n > 0 {
		m.Data = b.data[e.off : e.off+e.n : e.off+e.n]
	}
	b.q[b.head] = queued{}
	b.head++
	switch {
	case b.head == len(b.q):
		// Drained: start over at the front of the same array.
		b.q, b.head = b.q[:0], 0
	case 2*b.head > len(b.q):
		// Likewise for the headers: slide the pending tail down once it
		// is the smaller half.
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q, b.head = b.q[:n], 0
	}
	return m, true, nil
}

// NewMemNetwork returns an in-memory Network. Each mailbox is an
// unbounded FIFO, so Send never blocks and protocol fan-out cannot
// deadlock; per-sender order is preserved.
func NewMemNetwork() Network {
	return &memNetwork{boxes: make(map[string]*mailbox)}
}

func (n *memNetwork) Join(name string) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.boxes[name]; dup {
		return nil, fmt.Errorf("dist: node %q already joined", name)
	}
	// The endpoint and its mailbox share one allocation.
	node := &struct {
		conn memConn
		box  mailbox
	}{}
	node.box.wake = make(chan struct{}, 1)
	node.box.name = name
	node.conn = memConn{net: n, name: name, box: &node.box}
	n.boxes[name] = &node.box
	return &node.conn, nil
}

func (n *memNetwork) lookup(name string) (*mailbox, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	box, ok := n.boxes[name]
	return box, ok
}

func (n *memNetwork) leave(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if box, ok := n.boxes[name]; ok {
		box.close()
		delete(n.boxes, name)
	}
}

type memConn struct {
	net  *memNetwork
	name string
	box  *mailbox

	// peer is the mailbox the last Send resolved, so a node that keeps
	// sending to one peer (a ring member to its successor) looks its
	// name up once. A closed box refuses the put, and the name is
	// resolved again: a node that left is gone from the network, and one
	// that re-joined under the name has a new box.
	peer atomic.Pointer[mailbox]

	// timer is reused across RecvTimeout calls. A Conn is received from
	// by its owning node goroutine only (the Conn contract), so no lock
	// is needed; reusing the timer keeps the protocol hot paths free of
	// per-call timer allocations.
	timer *time.Timer

	closeOnce sync.Once
}

func (c *memConn) Name() string { return c.name }

func (c *memConn) Send(m Message) error {
	m.From = c.name
	if box := c.peer.Load(); box != nil && box.name == m.To && box.put(m) {
		return nil
	}
	box, ok := c.net.lookup(m.To)
	if !ok {
		return fmt.Errorf("dist: unknown node %q", m.To)
	}
	c.peer.Store(box)
	if !box.put(m) {
		return fmt.Errorf("dist: node %q closed", m.To)
	}
	return nil
}

func (c *memConn) Recv() (Message, error) {
	for {
		if m, ok, err := c.box.take(); ok || err != nil {
			return m, err
		}
		<-c.box.wake
	}
}

func (c *memConn) RecvTimeout(d time.Duration) (Message, error) {
	if d <= 0 {
		return c.Recv()
	}
	if m, ok, err := c.box.take(); ok || err != nil {
		return m, err
	}
	t := c.timer
	if t == nil {
		t = time.NewTimer(d)
		c.timer = t
	} else {
		t.Reset(d)
	}
	// Stop and drain on every exit so the next Reset starts clean (the
	// module targets the pre-1.23 timer semantics).
	defer func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}()
	for {
		select {
		case <-c.box.wake:
			if m, ok, err := c.box.take(); ok || err != nil {
				return m, err
			}
		case <-t.C:
			return Message{}, fmt.Errorf("dist: recv on %q after %v: %w", c.name, d, ErrTimeout)
		}
	}
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { c.net.leave(c.name) })
	return nil
}
