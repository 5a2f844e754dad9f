package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"gtlb/internal/noncoop"
)

func TestMemNetworkBasic(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, err := n.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	m := Message{To: "b", Kind: "ping"}
	if err := m.Encode(hierSyncPayload{Next: "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Kind != "ping" {
		t.Errorf("got %+v", got)
	}
	var p hierSyncPayload
	if err := got.Decode(&p); err != nil || p.Next != "hello" {
		t.Errorf("payload = %+v, err=%v", p, err)
	}
}

func TestMemNetworkDuplicateJoin(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	if _, err := n.Join("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("x"); err == nil {
		t.Error("duplicate join accepted")
	}
}

func TestMemNetworkUnknownRecipient(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, _ := n.Join("a")
	if err := a.Send(Message{To: "ghost", Kind: "x"}); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

func TestMemNetworkClose(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, _ := n.Join("a")
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
	// Closing twice is safe.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// recvKeepRecv holds a transport to the Conn receive rule: c receives
// the three payloads in want, sent by from, in order. The first Data is
// checked when its receive returns, the last moment the rule keeps it
// valid, and must be capped at its length; the second and third must
// arrive intact after it. It returns the first Data so a caller can see
// what the later receives did to it.
func recvKeepRecv(t *testing.T, c Conn, from string, want [3][]byte) []byte {
	t.Helper()
	recv := func(i int) Message {
		t.Helper()
		m, err := c.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if m.From != from || !bytes.Equal(m.Data, want[i]) {
			t.Fatalf("receive %d: %d bytes from %q, want %d bytes from %q", i, len(m.Data), m.From, len(want[i]), from)
		}
		return m
	}
	first := recv(0) // intact up to the next receive
	if cap(first.Data) != len(first.Data) {
		t.Errorf("received Data has cap %d for %d bytes; an append could run into the next message", cap(first.Data), len(first.Data))
	}
	recv(1)
	recv(2)
	return first.Data
}

// recvRulePayloads are three distinct payloads for recvKeepRecv, each
// filled with its own byte and together larger than a frame reader's
// initial buffer, so receiving the second compacts that buffer over
// the first frame.
func recvRulePayloads() [3][]byte {
	return [3][]byte{
		bytes.Repeat([]byte{0x11}, 150),
		bytes.Repeat([]byte{0x22}, 150),
		bytes.Repeat([]byte{0x33}, 150),
	}
}

// sendScribbled holds a transport to the Conn send rule: c sends the
// returned payloads, one per fill byte, to to, all from one buffer that
// is overwritten with 0xEE as soon as each Send returns, the way a node
// re-encodes into its cached message. The receiver must still see the
// payloads as they were sent.
func sendScribbled(t *testing.T, c Conn, to string, fills ...byte) [][]byte {
	t.Helper()
	var sent [][]byte
	buf := make([]byte, 0, 64)
	for _, f := range fills {
		buf = append(buf[:0], bytes.Repeat([]byte{f}, 40)...)
		sent = append(sent, bytes.Clone(buf))
		if err := c.Send(Message{To: to, Kind: "ping", Data: buf}); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	}
	return sent
}

// recvSent receives len(sent) messages on c and checks they carry the
// payloads sendScribbled returned, in order.
func recvSent(t *testing.T, c Conn, sent [][]byte) {
	t.Helper()
	for i, want := range sent {
		m, err := c.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if !bytes.Equal(m.Data, want) {
			t.Fatalf("receive %d: Data %x, want %x as it was sent", i, m.Data, want)
		}
	}
}

// TestMemNetworkContract pins what the mem mailbox promises on top of
// the Conn interface: per-sender FIFO under concurrent senders, the
// send rule (sendScribbled) and the receive rule for Data (recvKeepRecv),
// both of which the TCP conn passes too, queued messages outlive Close,
// sends to departed nodes fail, an empty mailbox times out, and a send
// or Close mid-wait wakes the receiver.
func TestMemNetworkContract(t *testing.T) {
	t.Parallel()
	t.Run("per-sender FIFO", func(t *testing.T) {
		const senders, each = 8, 10_000
		n := NewMemNetwork()
		sink, _ := n.Join("sink")
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			c, err := n.Join(fmt.Sprintf("s%d", s))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := uint64(0); k < each; k++ {
					if err := c.Send(Message{To: "sink", Data: binary.LittleEndian.AppendUint64(nil, k)}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		next := make(map[string]uint64, senders)
		for i := 0; i < senders*each; i++ {
			m, err := sink.RecvTimeout(10 * time.Second)
			if err != nil {
				t.Fatalf("after %d messages: %v", i, err)
			}
			if k := binary.LittleEndian.Uint64(m.Data); k != next[m.From] {
				t.Fatalf("from %s: got #%d, want #%d", m.From, k, next[m.From])
			}
			next[m.From]++
		}
		wg.Wait()
	})
	t.Run("queued before Close outlive it", func(t *testing.T) {
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		for _, k := range []string{"1", "2", "3", "4"} {
			if err := a.Send(Message{To: "b", Kind: k}); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		for i, k := range []string{"1", "2", "3", "4"} {
			var m Message
			var err error
			if i%2 == 0 {
				m, err = b.Recv()
			} else {
				m, err = b.RecvTimeout(time.Second)
			}
			if err != nil || m.Kind != k {
				t.Fatalf("receive %d after Close = %q, %v; want %q", i, m.Kind, err, k)
			}
		}
		if _, err := b.Recv(); err != ErrClosed {
			t.Errorf("drained Recv = %v, want ErrClosed", err)
		}
		if _, err := b.RecvTimeout(time.Second); err != ErrClosed {
			t.Errorf("drained RecvTimeout = %v, want ErrClosed", err)
		}
	})
	t.Run("Data valid until the next receive", func(t *testing.T) {
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		for _, d := range recvRulePayloads() {
			if err := a.Send(Message{To: "b", Kind: "ping", Data: d}); err != nil {
				t.Fatal(err)
			}
		}
		recvKeepRecv(t, b, "a", recvRulePayloads())
	})
	t.Run("Send keeps no reference to Data", func(t *testing.T) {
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		recvSent(t, b, sendScribbled(t, a, "b", 0x11, 0x22, 0x33))
	})
	t.Run("sends leave the received Data intact", func(t *testing.T) {
		// A Data stays valid until its receiver's next receive, however
		// many sends land meanwhile: the third payload fills the arena,
		// which must move the pending second one rather than slide it
		// down over the first.
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		want := recvRulePayloads()
		if err := a.Send(Message{To: "b", Kind: "ping", Data: want[0]}); err != nil {
			t.Fatal(err)
		}
		m, err := b.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range want[1:] {
			if err := a.Send(Message{To: "b", Kind: "ping", Data: d}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(m.Data, want[0]) {
			t.Fatal("sends overwrote a received Data before its receiver received again")
		}
		for i := 1; i < 3; i++ {
			m, err := b.RecvTimeout(5 * time.Second)
			if err != nil || !bytes.Equal(m.Data, want[i]) {
				t.Fatalf("receive %d: %d bytes, %v", i, len(m.Data), err)
			}
		}
	})
	t.Run("a drained arena is reused", func(t *testing.T) {
		// The mailbox copies each payload into its arena and hands it
		// out in place. A receive that finds the queue drained ends the
		// previous Data's validity, so the arena starts over and the
		// next payload lands on the first one's bytes.
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		want := recvRulePayloads()
		send := func(d []byte) {
			t.Helper()
			if err := a.Send(Message{To: "b", Kind: "ping", Data: d}); err != nil {
				t.Fatal(err)
			}
		}
		send(want[0])
		m, err := b.RecvTimeout(5 * time.Second)
		if err != nil || !bytes.Equal(m.Data, want[0]) {
			t.Fatalf("first receive: %d bytes, %v", len(m.Data), err)
		}
		first := m.Data
		if _, err := b.RecvTimeout(time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("receive on the drained queue = %v, want ErrTimeout", err)
		}
		send(want[1])
		send(want[2])
		for i := 1; i < 3; i++ {
			m, err := b.RecvTimeout(5 * time.Second)
			if err != nil || !bytes.Equal(m.Data, want[i]) {
				t.Fatalf("receive %d: %d bytes, %v", i, len(m.Data), err)
			}
			if i == 1 && !bytes.Equal(first, want[1]) {
				t.Error("the second payload did not reuse the first one's bytes; the arena did not start over")
			}
		}
	})
	t.Run("send to a departed node fails", func(t *testing.T) {
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		box := b.(*memConn).box // a sender that looked b up before it left
		b.Close()
		if err := a.Send(Message{To: "b"}); err == nil {
			t.Error("send to a node that left succeeded")
		}
		if box.put(Message{To: "b"}) {
			t.Error("put into a closed mailbox succeeded")
		}
	})
	t.Run("empty mailbox times out", func(t *testing.T) {
		n := NewMemNetwork()
		a, _ := n.Join("a")
		for i := 0; i < 2; i++ { // the second wait reuses the timer
			if _, err := a.RecvTimeout(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("RecvTimeout on empty mailbox = %v, want ErrTimeout", err)
			}
		}
	})
	t.Run("send mid-wait wakes the receiver", func(t *testing.T) {
		// Ping-pong: each side parks on an empty mailbox until the
		// other's send, so a lost wake-up stalls a round into the
		// timeout.
		const rounds = 5_000
		n := NewMemNetwork()
		a, _ := n.Join("a")
		b, _ := n.Join("b")
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < rounds; i++ {
				var err error
				if i%2 == 0 {
					_, err = b.Recv()
				} else {
					_, err = b.RecvTimeout(10 * time.Second)
				}
				if err == nil {
					err = b.Send(Message{To: "a"})
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		for i := 0; i < rounds; i++ {
			if err := a.Send(Message{To: "b"}); err != nil {
				t.Fatal(err)
			}
			if _, err := a.RecvTimeout(10 * time.Second); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		// A Close mid-wait wakes the receiver too.
		go func() {
			time.Sleep(5 * time.Millisecond)
			b.Close()
		}()
		if _, err := b.RecvTimeout(10 * time.Second); err != ErrClosed {
			t.Errorf("RecvTimeout across Close = %v, want ErrClosed", err)
		}
	})
}

// TestMemNetworkRejoinedPeer pins the sender's peer cache: a memConn
// resolves a recipient's mailbox once and keeps it, so a send to a peer
// that left must still fail with the unknown-node error, and a send
// after the name re-joined must reach the new node, not the old box.
func TestMemNetworkRejoinedPeer(t *testing.T) {
	t.Parallel()
	t.Run("departed and re-joined", func(t *testing.T) {
		n := NewMemNetwork()
		a := mustJoin(t, n, "a")
		old := mustJoin(t, n, "b")
		if err := a.Send(Message{To: "b", Kind: "1"}); err != nil { // a resolves b
			t.Fatal(err)
		}
		if m, err := old.RecvTimeout(5 * time.Second); err != nil || m.Kind != "1" {
			t.Fatalf("first receive = %q, %v", m.Kind, err)
		}
		old.Close()
		if err := a.Send(Message{To: "b", Kind: "2"}); err == nil || err.Error() != `dist: unknown node "b"` {
			t.Fatalf("send to a departed peer = %v, want the unknown-node error", err)
		}
		b := mustJoin(t, n, "b")
		if err := a.Send(Message{To: "b", Kind: "3"}); err != nil {
			t.Fatalf("send to the re-joined peer: %v", err)
		}
		if m, err := b.RecvTimeout(5 * time.Second); err != nil || m.Kind != "3" || m.From != "a" {
			t.Fatalf("re-joined peer received %q from %q, %v; want 3 from a", m.Kind, m.From, err)
		}
	})
	t.Run("re-joined while cached", func(t *testing.T) {
		// The old box is closed but a still has it cached when the name
		// re-joins: the refused put sends a to the new box.
		n := NewMemNetwork()
		a := mustJoin(t, n, "a")
		old := mustJoin(t, n, "b")
		if err := a.Send(Message{To: "b"}); err != nil {
			t.Fatal(err)
		}
		old.Close()
		b := mustJoin(t, n, "b")
		if err := a.Send(Message{To: "b", Kind: "new"}); err != nil {
			t.Fatalf("send after the re-join: %v", err)
		}
		if m, err := b.RecvTimeout(5 * time.Second); err != nil || m.Kind != "new" {
			t.Fatalf("re-joined peer received %q, %v", m.Kind, err)
		}
	})
	t.Run("senders race Close and re-Join", func(t *testing.T) {
		// Each sender sends to b while b leaves and re-joins; a send
		// either lands in some incarnation of b or fails. Once the last
		// incarnation is up, every sender's next send must reach it.
		const senders, rejoins = 4, 200
		n := NewMemNetwork()
		b := mustJoin(t, n, "b")
		done := make(chan struct{}) // closed once the last incarnation has joined
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			c := mustJoin(t, n, fmt.Sprintf("s%d", s))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						if err := c.Send(Message{To: "b", Kind: "final"}); err != nil {
							t.Errorf("%s: send to the last incarnation: %v", c.Name(), err)
						}
						return
					default:
						_ = c.Send(Message{To: "b", Kind: "x"}) // may race a Close; either outcome is fine
					}
				}
			}()
		}
		for r := 0; r < rejoins; r++ {
			b.Close()
			b = mustJoin(t, n, "b")
		}
		close(done)
		finals := 0
		for finals < senders {
			m, err := b.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("after %d final messages: %v", finals, err)
			}
			if m.Kind == "final" {
				finals++
			}
		}
		wg.Wait()
	})
}

// TestMailboxBoundedBacking: a queue that never drains must not keep
// its consumed prefix, so its header array and its payload arena stay
// bounded however many messages pass through, and every payload still
// arrives intact and in order. Single-goroutine and deterministic, so it
// is named outside the mem transport race shake-out CI repeats.
func TestMailboxBoundedBacking(t *testing.T) {
	t.Parallel()
	const pairs = 1_000_000
	n := NewMemNetwork()
	a, _ := n.Join("a")
	box := a.(*memConn).box
	data := make([]byte, 8)
	send := func(k uint64) {
		t.Helper()
		binary.LittleEndian.PutUint64(data, k)
		if err := a.Send(Message{To: "a", Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 3; k++ { // never lets the queue drain
		send(k)
	}
	for k := uint64(0); k < pairs; k++ {
		send(k + 3)
		m, err := a.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(m.Data); got != k {
			t.Fatalf("receive %d carried payload %d", k, got)
		}
	}
	box.mu.Lock()
	c, pending, arena := cap(box.q), len(box.q)-box.head, cap(box.data)
	box.mu.Unlock()
	if pending != 3 || c > 16 || arena > 1024 {
		t.Errorf("after %d send/recv pairs: %d pending, cap %d, arena cap %d B; want 3 pending in cap <= 16 and arena <= 1024 B",
			pairs, pending, c, arena)
	}
}

// TestMemConnAllocs gates the mem transport's cost: a node that joins
// and leaves allocates at most 1 KiB, since a mailbox grows only when
// messages queue, and a steady-state Send and Recv allocate nothing:
// on a queue that drains, on one that never does, and after a re-encode
// into a reused Message. An m=1000 solve joins about 1,040 nodes. Not
// parallel, so other tests' allocations stay out of the byte count.
func TestMemConnAllocs(t *testing.T) {
	const nodes = 1000
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("user-%d", i)
	}
	n := NewMemNetwork()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conns := make([]Conn, 0, nodes)
	for _, name := range names {
		c, err := n.Join(name)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.Close()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / nodes; per > 1024 {
		t.Errorf("Join+Close allocate %d B per node, want <= 1024", per)
	}

	a, _ := n.Join("a")
	b, _ := n.Join("b")
	m := Message{To: "b", Kind: hierKindToken}
	tok := hierTokenPayload{Epoch: 1, Loads: []float64{1, 2}}
	if err := m.Encode(&tok); err != nil {
		t.Fatal(err)
	}
	// Send and Recv touch no pool, so this gate holds under -race too.
	allocs := testing.AllocsPerRun(1000, func() {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Send+Recv costs %.1f allocs/op, want 0", allocs)
	}
	// A queue that never drains reuses its arena too: the consumed
	// bytes are slid over rather than left for a new arena. A growth
	// every few pairs would average under one allocation per pair,
	// which AllocsPerRun truncates to 0, so each run makes 64 pairs.
	for i := 0; i < 3; i++ {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			if err := a.Send(m); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("64 Send+Recv pairs on a queue that never drains cost %.1f allocs, want 0", allocs)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "steady-state re-encode, Send and Recv", 0, func() {
		tok.Norm++
		if err := m.Encode(&tok); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMessageDecodeError(t *testing.T) {
	t.Parallel()
	m := Message{Kind: "x", Data: []byte{0xff, 0x01}}
	var p hierReqPayload
	if err := m.Decode(&p); err == nil {
		t.Error("garbage decoded")
	}
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	a, err := netw.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netw.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m := Message{To: "b", Kind: "ping"}
	if err := m.Encode(hierReqPayload{Round: 42}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var v hierReqPayload
	if err := got.Decode(&v); err != nil || v.Round != 42 || got.From != "a" {
		t.Errorf("got %+v payload %d err %v", got, v.Round, err)
	}
}

func paperSystem(t *testing.T, rho float64) noncoop.System {
	t.Helper()
	mu := []float64{
		10, 10, 10, 10, 10, 10,
		20, 20, 20, 20, 20,
		50, 50, 50,
		100, 100,
	}
	fractions := []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}
	total := rho * 510
	phi := make([]float64, len(fractions))
	for j, f := range fractions {
		phi[j] = f * total
	}
	sys, err := noncoop.NewSystem(mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func table51Values() []float64 {
	mus := []float64{
		0.13, 0.13,
		0.065, 0.065, 0.065,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
	}
	t := make([]float64, len(mus))
	for i, m := range mus {
		t[i] = 1 / m
	}
	return t
}

// TestLBMTruthfulRound runs the full bidding protocol with truthful
// agents and checks that every computer's own report matches the
// dispatcher's outcome and that nobody loses money.
func TestLBMTruthfulRound(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	policies := make([]BidPolicy, len(trueVals))
	res, err := RunLBMWith(NewMemNetwork(), trueVals, policies, 0.5*0.663, LBMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range res.Computers {
		if math.Abs(rep.Load-res.Outcome.Loads[i]) > 1e-12 {
			t.Errorf("computer %d sees load %v, dispatcher computed %v", i, rep.Load, res.Outcome.Loads[i])
		}
		if math.Abs(rep.Payment-res.Outcome.Payments[i]) > 1e-12 {
			t.Errorf("computer %d sees payment %v, dispatcher computed %v", i, rep.Payment, res.Outcome.Payments[i])
		}
		if rep.Profit < -1e-9 {
			t.Errorf("truthful computer %d has negative profit %v", i, rep.Profit)
		}
		if math.Abs(rep.Bid-trueVals[i]) > 1e-15 {
			t.Errorf("computer %d bid %v, want true value %v", i, rep.Bid, trueVals[i])
		}
	}
}

// TestLBMLyingAgentPenalized: an agent that overbids via its policy ends
// with a lower profit than in the truthful round (Theorem 5.2 through
// the protocol).
func TestLBMLyingAgentPenalized(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	phi := 0.5 * 0.663

	truthRes, err := RunLBMWith(NewMemNetwork(), trueVals, make([]BidPolicy, len(trueVals)), phi, LBMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	policies := make([]BidPolicy, len(trueVals))
	policies[0] = ScaledBid(1.33)
	liarRes, err := RunLBMWith(NewMemNetwork(), trueVals, policies, phi, LBMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if liarRes.Computers[0].Profit > truthRes.Computers[0].Profit+1e-9 {
		t.Errorf("liar profit %v exceeds truthful profit %v",
			liarRes.Computers[0].Profit, truthRes.Computers[0].Profit)
	}
	if math.Abs(liarRes.Bids[0]-1.33*trueVals[0]) > 1e-12 {
		t.Errorf("bid = %v, want %v", liarRes.Bids[0], 1.33*trueVals[0])
	}
}

func TestLBMOverTCP(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	trueVals := []float64{1, 2, 4}
	res, err := RunLBMWith(netw, trueVals, make([]BidPolicy, 3), 1.0, LBMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range res.Outcome.Loads {
		total += l
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("loads sum to %v, want 1", total)
	}
}

func TestLBMValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunLBMWith(NewMemNetwork(), nil, nil, 1, LBMOptions{}); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := RunLBMWith(NewMemNetwork(), []float64{1}, make([]BidPolicy, 2), 0.5, LBMOptions{}); err == nil {
		t.Error("policy length mismatch accepted")
	}
}

func TestConcurrentSends(t *testing.T) {
	t.Parallel()
	// The in-memory transport must tolerate many concurrent senders.
	n := NewMemNetwork()
	sink, _ := n.Join("sink")
	const workers = 16
	const each = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c, err := n.Join(string(rune('a' + w)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if err := c.Send(Message{To: "sink", Kind: "n"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		for got < workers*each {
			if _, err := sink.Recv(); err != nil {
				return
			}
			got++
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if got != workers*each {
		t.Errorf("received %d messages, want %d", got, workers*each)
	}
}
