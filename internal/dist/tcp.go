package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TCP wire format. Every frame on a connection, in either direction, is
//
//	u32 little-endian body length (at most maxFrame), then the body:
//	uvarint len(From) | From | uvarint len(To) | To | uvarint len(Kind) | Kind | Data
//
// Data runs to the end of the body and is carried verbatim: it is the
// payload codec's output (codec.go), which no TCP hop decodes. The
// first frame a node sends is a hello whose Data is the single
// wireVersion byte; the broker answers hello.ok with its own version
// byte once the node is registered, or hello.bad and a close when the
// versions differ.
const (
	wireVersion byte = 1
	// maxFrame bounds a frame body. A larger length prefix is a corrupt
	// or hostile stream: the reader drops the connection without
	// allocating, and Send refuses a message that would need one.
	maxFrame = 16 << 20
	frameHdr = 4
	// frameBufInit is a frame reader's first buffer: most frames are
	// under 100 bytes, and larger ones grow the buffer.
	frameBufInit = 256
	// maxInterned bounds a receiver's name table (later names allocate).
	maxInterned = 4096

	helloKind    = "hello"
	helloOKKind  = "hello.ok"
	helloBadKind = "hello.bad"
)

var (
	// ErrWireVersion is returned (wrapped) by Join when the broker
	// speaks a different frame version.
	ErrWireVersion = errors.New("dist: tcp wire version mismatch")
	// ErrFrameTooLarge is returned (wrapped) by Send for a message whose
	// frame body would exceed maxFrame, and ends a read loop that meets
	// such a length prefix.
	ErrFrameTooLarge = errors.New("dist: tcp frame too large")
	errBadFrame      = errors.New("dist: tcp malformed frame")

	versionData = []byte{wireVersion}
)

// nameSize is the encoded size of one uvarint-prefixed name.
func nameSize(s string) int { return (bits.Len64(uint64(len(s))|1)+6)/7 + len(s) }

// frameSize is the full size of the frame putFrame writes.
func frameSize(from, to, kind string, data []byte) int {
	return frameHdr + nameSize(from) + nameSize(to) + nameSize(kind) + len(data)
}

// putName writes one uvarint-prefixed name and returns its size.
//
//lb:hotpath
func putName(dst []byte, s string) int {
	w := binary.PutUvarint(dst, uint64(len(s)))
	return w + copy(dst[w:], s)
}

// putFrame writes one frame into dst, which must hold frameSize bytes,
// and returns the bytes written.
//
//lb:hotpath
func putFrame(dst []byte, from, to, kind string, data []byte) int {
	off := frameHdr + putName(dst[frameHdr:], from)
	off += putName(dst[off:], to)
	off += putName(dst[off:], kind)
	off += copy(dst[off:], data)
	binary.LittleEndian.PutUint32(dst, uint32(off-frameHdr))
	return off
}

// putRelay writes a relayed frame into dst: From becomes the sender's
// registered name, and rest — the original body after its From field
// (To, Kind and Data) — is copied through untouched. dst must hold
// frameHdr+nameSize(from)+len(rest) bytes.
//
//lb:hotpath
func putRelay(dst []byte, from string, rest []byte) int {
	off := frameHdr + putName(dst[frameHdr:], from)
	off += copy(dst[off:], rest)
	binary.LittleEndian.PutUint32(dst, uint32(off-frameHdr))
	return off
}

// cutName splits one uvarint-prefixed name off b. Non-minimal varints
// are rejected so that every accepted frame has exactly one encoding.
func cutName(b []byte) (name, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || (w > 1 && b[w-1] == 0) || n > uint64(len(b)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return b[w:end], b[end:], true
}

// frame is one parsed frame body. afterFrom is the body past the From
// field (To, Kind and Data), which the broker relays as is.
type frame struct{ from, to, kind, data, afterFrom []byte }

func splitFrame(body []byte) (f frame, ok bool) {
	if f.from, f.afterFrom, ok = cutName(body); !ok {
		return
	}
	if f.to, f.data, ok = cutName(f.afterFrom); !ok {
		return
	}
	f.kind, f.data, ok = cutName(f.data)
	return
}

// frameReader reads frames off one stream for the broker's serve loop,
// Join's handshake and a node's receives. It owns one buffer, sized to
// the traffic: it starts at frameBufInit bytes on the first read and
// grows — by at most doubling, and only when a frame is incomplete and
// the buffer is full — so a length prefix on a stream that dies early
// costs at most frameBufInit plus twice the bytes that arrived. A read error
// part-way through a frame — a receive deadline expiring — consumes
// nothing: the partial length prefix or body stays buffered, and the
// next call resumes it, so the stream never desynchronises. A length
// prefix past maxFrame, a malformed body or any other read error ends
// the stream.
type frameReader struct {
	r    io.Reader
	buf  []byte // buf[off:] is read but not yet consumed
	off  int
	done int // size of the last frame returned; the next call consumes it
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: r} }

// next returns the next frame. Its fields alias the reader's buffer and
// are valid only until the following call.
func (r *frameReader) next() (frame, error) {
	r.off += r.done
	r.done = 0
	if r.off == len(r.buf) {
		r.buf, r.off = r.buf[:0], 0
	}
	body, err := r.body()
	if err != nil {
		return frame{}, err
	}
	f, ok := splitFrame(body)
	if !ok {
		return frame{}, errBadFrame
	}
	return f, nil
}

// body returns the next frame body, in place in buf.
func (r *frameReader) body() ([]byte, error) {
	need := frameHdr
	for {
		if have := r.buf[r.off:]; len(have) >= frameHdr {
			n := binary.LittleEndian.Uint32(have)
			if n > maxFrame {
				return nil, fmt.Errorf("%w: length prefix %d", ErrFrameTooLarge, n)
			}
			if need = frameHdr + int(n); len(have) >= need {
				r.done = need
				return have[frameHdr:need], nil
			}
		}
		if err := r.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill reads more of the stream into buf for a frame of need bytes. The
// unconsumed bytes move to the front first; the buffer grows only if
// they fill it.
func (r *frameReader) fill(need int) error {
	if r.off > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
		r.off = 0
	}
	if len(r.buf) == cap(r.buf) {
		grown := make([]byte, len(r.buf), max(frameBufInit, min(2*cap(r.buf), need)))
		r.buf = grown[:copy(grown, r.buf)]
	}
	k, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+k]
	if k > 0 {
		return nil // an error that came with bytes recurs on the next read
	}
	return err
}

// nameTable interns the names a receiver sees. A node hears from a
// fixed set of peers in a fixed set of kinds, so in steady state every
// From/To/Kind is a map hit and costs no allocation.
type nameTable map[string]string

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < maxInterned {
		t[s] = s
	}
	return s
}

// message reads one frame as a Message. Its Data aliases the reader's
// buffer, like the frame it came from, and is valid only until the
// following call; it is capped at its length, so an append by the
// caller cannot run into the next frame.
func (r *frameReader) message(names nameTable) (Message, error) {
	f, err := r.next()
	if err != nil {
		return Message{}, err
	}
	return Message{From: names.intern(f.from), To: names.intern(f.to), Kind: names.intern(f.kind), Data: f.data[:len(f.data):len(f.data)]}, nil
}

// tcpNetwork is a hub-and-spoke TCP transport: a broker listens on a
// loopback port; every node dials in, announces its name, and the broker
// relays frames between them without decoding their payloads. It exists
// to demonstrate the protocols running over real sockets; the in-memory
// transport is preferred for tests.
type tcpNetwork struct {
	ln    net.Listener
	mu    sync.Mutex
	peers map[string]*tcpPeer
	socks map[net.Conn]struct{} // live node sockets, closed on shutdown
	wg    sync.WaitGroup        // accept loop + one serve per socket
}

// tcpPeer is the broker's write side of one registered node. Each
// relayed frame is built in buf and written under mu as it arrives, so a
// slow recipient slows its senders down instead of queueing in the broker.
type tcpPeer struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte // under mu; reused across frames
}

// resize returns buf resized to n bytes, reusing its capacity.
func resize(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// NewTCPNetwork starts a broker on addr ("127.0.0.1:0" picks a free
// port) and returns the network together with the address nodes connect
// to. Closing the returned closer shuts the broker down and joins every
// broker goroutine: the listener stops accepting, live node sockets are
// closed (unblocking their serve loops), and the closer returns only
// after all of them have exited.
func NewTCPNetwork(addr string) (Network, string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("dist: broker listen: %w", err)
	}
	n := &tcpNetwork{
		ln:    ln,
		peers: make(map[string]*tcpPeer),
		socks: make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.acceptLoop()
	}()
	closer := func() error {
		err := ln.Close()
		n.mu.Lock()
		for c := range n.socks {
			_ = c.Close() // unblocks the serve loop's read and any relay write
		}
		n.mu.Unlock()
		n.wg.Wait()
		return err
	}
	return n, ln.Addr().String(), closer, nil
}

func (n *tcpNetwork) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // broker closed
		}
		n.mu.Lock()
		n.socks[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(c)
		}()
	}
}

// serve handles one node connection: the first frame is the hello that
// names the node; every later frame is relayed to its recipient. A
// malformed or oversize frame drops this connection only.
func (n *tcpNetwork) serve(c net.Conn) {
	defer func() {
		n.mu.Lock()
		delete(n.socks, c)
		n.mu.Unlock()
		_ = c.Close() // broker teardown; the peer sees EOF either way
	}()
	rd := newFrameReader(c)
	hello, err := rd.message(nameTable{})
	if err != nil || hello.Kind != helloKind {
		return // bad handshake; the deferred close drops the connection
	}
	self := &tcpPeer{c: c}
	if !bytes.Equal(hello.Data, versionData) {
		_ = self.post(helloBadKind, hello.From) // best effort: the close that follows ends the handshake either way
		return
	}
	name := hello.From
	// Register and ack under the peer's lock: Join blocks on the ack, so
	// once it returns, messages sent to the node cannot be dropped as
	// "recipient unknown", and no relayed frame can overtake the ack.
	self.mu.Lock()
	n.mu.Lock()
	n.peers[name] = self
	n.mu.Unlock()
	err = self.post(helloOKKind, name)
	self.mu.Unlock()
	defer func() {
		n.mu.Lock()
		if n.peers[name] == self {
			delete(n.peers, name)
		}
		n.mu.Unlock()
	}()
	if err != nil {
		return // ack failed; the peer sees a read error
	}
	for {
		f, err := rd.next()
		if err != nil {
			return // EOF, a broken socket or a bad frame: drop this connection only
		}
		n.relay(name, f)
	}
}

// post writes one handshake frame to the peer. Callers hold p.mu once
// the peer is registered.
func (p *tcpPeer) post(kind, to string) error {
	p.buf = resize(p.buf, frameSize("", to, kind, versionData))
	putFrame(p.buf, "", to, kind, versionData)
	_, err := p.c.Write(p.buf)
	return err
}

// relay writes frame f from the node registered as from to its
// recipient, with From rewritten to that name (a node cannot speak for
// another) and the rest of the body copied through without decoding the
// payload. Frames for an unknown or departed recipient are dropped: the
// protocols tolerate loss on shutdown.
func (n *tcpNetwork) relay(from string, f frame) {
	size := frameHdr + nameSize(from) + len(f.afterFrom)
	if size-frameHdr > maxFrame {
		return // the rewritten frame would be refused downstream
	}
	n.mu.Lock()
	p := n.peers[string(f.to)]
	n.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = resize(p.buf, size)
	putRelay(p.buf, from, f.afterFrom)
	_, _ = p.c.Write(p.buf) // best-effort relay; loss surfaces as a receiver timeout
}

// Join dials the broker and announces the node name.
func (n *tcpNetwork) Join(name string) (Conn, error) { return n.join(name, wireVersion) }

// join is Join announcing an explicit wire version.
func (n *tcpNetwork) join(name string, version byte) (Conn, error) {
	c, err := net.Dial("tcp", n.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dist: dial broker: %w", err)
	}
	tc := newTCPConn(name, c)
	if err := tc.Send(Message{Kind: helloKind, Data: []byte{version}}); err != nil {
		_ = c.Close() // already failing; the handshake error wins
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	// Wait for the broker's registration ack (see serve); without it a
	// message addressed to this node could race ahead of its registration
	// and be dropped.
	ack, err := tc.rd.message(tc.names)
	switch {
	case err != nil:
		err = fmt.Errorf("dist: no hello ack for %q: %w", name, err)
	case ack.Kind != helloOKKind || !bytes.Equal(ack.Data, []byte{version}):
		err = fmt.Errorf("%w: node %q speaks version %d, broker answered %s %v",
			ErrWireVersion, name, version, ack.Kind, ack.Data)
	}
	if err != nil {
		_ = c.Close() // already failing; the handshake error wins
		return nil, err
	}
	return tc, nil
}

// tcpConn is one node's socket to the broker. Receives read frames on
// the caller's goroutine — the Conn contract gives a connection a single
// receiver — under a socket read deadline; the frame reader keeps a frame
// cut short by the deadline for the next receive. A received Data is
// the frame in place in the reader's buffer, not a copy: the Conn
// contract makes it valid only until the next receive. The kernel socket
// buffer is the node's only receive queue.
type tcpConn struct {
	name   string
	c      net.Conn
	rd     *frameReader // receiver-owned
	names  nameTable    // receiver-owned
	err    error        // terminal read error; receiver-owned
	closed atomic.Bool  // set by Close before the socket closes
	sendMu sync.Mutex
	wbuf   []byte // under sendMu; reused across sends
}

func newTCPConn(name string, c net.Conn) *tcpConn {
	return &tcpConn{name: name, c: c, rd: newFrameReader(c), names: nameTable{}}
}

func (t *tcpConn) Name() string { return t.name }

func (t *tcpConn) Send(m Message) error { return t.SendBatch([]Message{m}) }

// SendBatch coalesces a burst into one write: every message is framed
// into the reused send buffer and the socket sees a single Write, so an
// n-message fan-out costs one syscall instead of n. A message too large
// for one frame fails the whole batch before anything is written.
func (t *tcpConn) SendBatch(ms []Message) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	buf, err := t.frameBatch(ms)
	if err != nil {
		return err
	}
	if _, err := t.c.Write(buf); err != nil {
		return fmt.Errorf("dist: tcp send: %w", err)
	}
	return nil
}

// frameBatch frames ms, From set to the conn's name, into the reused
// send buffer. Callers hold sendMu.
func (t *tcpConn) frameBatch(ms []Message) ([]byte, error) {
	size := 0
	for i := range ms {
		n := frameSize(t.name, ms[i].To, ms[i].Kind, ms[i].Data)
		if n-frameHdr > maxFrame {
			return nil, fmt.Errorf("%w: %s message to %q needs %d bytes", ErrFrameTooLarge, ms[i].Kind, ms[i].To, n-frameHdr)
		}
		size += n
	}
	t.wbuf = resize(t.wbuf, size)
	off := 0
	for i := range ms {
		off += putFrame(t.wbuf[off:], t.name, ms[i].To, ms[i].Kind, ms[i].Data)
	}
	return t.wbuf, nil
}

func (t *tcpConn) Recv() (Message, error) { return t.RecvTimeout(0) }

// RecvTimeout returns the next frame, buffered or read under a deadline
// d from now. Once the stream dies it still returns the complete frames
// already read, then ErrClosed joined with the cause, so callers can tell
// a clean shutdown (EOF) from a corrupt stream or a reset.
func (t *tcpConn) RecvTimeout(d time.Duration) (Message, error) {
	if t.closed.Load() {
		return Message{}, ErrClosed
	}
	if t.err != nil {
		return Message{}, errors.Join(ErrClosed, t.err)
	}
	var deadline time.Time // zero: block forever
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	_ = t.c.SetReadDeadline(deadline) // fails only on a closed socket, which the read reports
	m, err := t.rd.message(t.names)
	switch {
	case err == nil:
		return m, nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return Message{}, fmt.Errorf("dist: recv on %q after %v: %w", t.name, d, ErrTimeout)
	case t.closed.Load():
		return Message{}, ErrClosed
	}
	t.err = err
	return Message{}, errors.Join(ErrClosed, err)
}

func (t *tcpConn) Close() error {
	t.closed.Store(true)
	return t.c.Close()
}
