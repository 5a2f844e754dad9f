package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// rawFrame frames one message the way a node would.
func rawFrame(from, to, kind string, data []byte) []byte {
	b := make([]byte, frameSize(from, to, kind, data))
	putFrame(b, from, to, kind, data)
	return b
}

// rawJoin dials the broker on a bare socket and completes the hello
// handshake by hand, for tests that need to write arbitrary bytes.
func rawJoin(t *testing.T, addr, name string) (net.Conn, *frameReader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(rawFrame(name, "", helloKind, versionData)); err != nil {
		t.Fatal(err)
	}
	rd := newFrameReader(c)
	ack, err := rd.message(nameTable{})
	if err != nil || ack.Kind != helloOKKind {
		t.Fatalf("raw hello for %q: ack %+v, err %v", name, ack, err)
	}
	return c, rd
}

// socketPair returns a tcpConn over one end of a loopback socket and the
// raw other end, standing in for the broker, for tests that write the
// stream a receiver sees byte by byte.
func socketPair(t *testing.T) (raw net.Conn, tc *tcpConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw, err = ln.Accept()
	if err != nil {
		_ = c.Close()
		t.Fatal(err)
	}
	tc = newTCPConn("node", c)
	t.Cleanup(func() {
		_ = raw.Close()
		_ = tc.Close()
	})
	return raw, tc
}

func tcpPair(t *testing.T) (addr string, a, b Conn) {
	t.Helper()
	netw, addr, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = closeFn() })
	a = mustJoin(t, netw, "a")
	b = mustJoin(t, netw, "b")
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return addr, a, b
}

// expectPing receives one ping and checks its sender and sequence.
func expectPing(t *testing.T, c Conn, from string, seq int) {
	t.Helper()
	m, err := c.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("recv seq %d: %v", seq, err)
	}
	var p hierReqPayload
	if err := m.Decode(&p); err != nil || m.From != from || p.Round != seq {
		t.Fatalf("got %+v (seq %d, err %v), want ping %d from %q", m, p.Round, err, seq, from)
	}
}

func sendPing(t *testing.T, c Conn, to string, seq int) {
	t.Helper()
	m := Message{To: to, Kind: "ping"}
	if err := m.Encode(hierReqPayload{Round: seq}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
}

// TestTCPBrokerDropsBadFrames: a peer that sends an oversize length
// prefix or a malformed body loses its own connection, and the broker
// keeps relaying for everyone else.
func TestTCPBrokerDropsBadFrames(t *testing.T) {
	t.Parallel()
	addr, a, b := tcpPair(t)
	oversize := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	garbage := binary.LittleEndian.AppendUint32(nil, 3)
	garbage = append(garbage, 0x7f, 'x', 'y') // From claims 127 bytes of a 3-byte body
	for i, bad := range [][]byte{oversize, garbage} {
		c, rd := rawJoin(t, addr, "rogue")
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := rd.next(); err != io.EOF {
			t.Errorf("case %d: broker kept the rogue connection (read err %v, want EOF)", i, err)
		}
		_ = c.Close()
		sendPing(t, a, "b", i)
		expectPing(t, b, "a", i)
	}
}

// TestTCPBrokerRelaysSplitFrames: a sender whose every write ends partway
// into the next frame still has each completed frame relayed while its
// stream runs on; the broker does not wait for a write boundary.
func TestTCPBrokerRelaysSplitFrames(t *testing.T) {
	t.Parallel()
	addr, _, b := tcpPair(t)
	c, _ := rawJoin(t, addr, "streamer")
	defer c.Close()
	const frames = 60
	var stream []byte
	ends := make([]int, frames)
	for i := range ends {
		m := Message{Kind: "ping"}
		if err := m.Encode(hierReqPayload{Round: i}); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, rawFrame("streamer", "b", m.Kind, m.Data)...)
		ends[i] = len(stream)
	}
	off := 0
	for i, end := range ends {
		// Frame i and the first 1..6 bytes of frame i+1: the cut lands
		// in the next length prefix or just past it.
		cut := min(end+i%(frameHdr+2)+1, len(stream))
		if _, err := c.Write(stream[off:cut]); err != nil {
			t.Fatal(err)
		}
		off = cut
		expectPing(t, b, "streamer", i)
	}
}

// TestTCPBrokerRewritesFrom: a node cannot speak for another; the broker
// stamps every relayed frame with the sender's registered name.
func TestTCPBrokerRewritesFrom(t *testing.T) {
	t.Parallel()
	addr, _, b := tcpPair(t)
	c, _ := rawJoin(t, addr, "mallory")
	defer c.Close()
	m := Message{Kind: "ping"}
	if err := m.Encode(hierReqPayload{Round: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(rawFrame("a", "b", m.Kind, m.Data)); err != nil {
		t.Fatal(err)
	}
	expectPing(t, b, "mallory", 7)
}

// TestTCPJoinWrongVersion: a node speaking another frame version is
// turned away at the handshake with a typed error.
func TestTCPJoinWrongVersion(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()
	c, err := netw.(*tcpNetwork).join("x", wireVersion+1)
	if err == nil {
		_ = c.Close()
		t.Fatal("join with a foreign wire version succeeded")
	}
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
	// The broker is unharmed: a node on the right version still joins.
	ok := mustJoin(t, netw, "x")
	_ = ok.Close()
}

// TestTCPRecvResumesSplitFrame: a receive deadline that expires part-way
// through a frame — in its length prefix, in its body, or in a body
// larger than the initial read buffer — tears nothing out of the stream:
// once the rest arrives, the next receive returns the frame intact.
func TestTCPRecvResumesSplitFrame(t *testing.T) {
	t.Parallel()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name string
		data []byte
		cut  int
	}{
		{"length prefix", []byte{1, 2, 3}, 2},
		{"body", []byte{1, 2, 3}, frameHdr + 5},
		{"large body", big, frameHdr + 8<<10 + 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			raw, conn := socketPair(t)
			wire := rawFrame("broker-said", "node", "ping", tc.data)
			if _, err := raw.Write(wire[:tc.cut]); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("half a frame: err = %v, want ErrTimeout", err)
			}
			// The buffer grows with what arrived, not with the length prefix.
			if c := cap(conn.rd.buf); c > 2*tc.cut+frameBufInit {
				t.Errorf("%d of %d bytes arrived but the buffer holds %d", tc.cut, len(wire), c)
			}
			if _, err := raw.Write(wire[tc.cut:]); err != nil {
				t.Fatal(err)
			}
			guard := time.AfterFunc(5*time.Second, func() { _ = conn.Close() })
			defer guard.Stop()
			m, err := conn.Recv()
			if err != nil || m.From != "broker-said" || m.To != "node" || m.Kind != "ping" || !bytes.Equal(m.Data, tc.data) {
				t.Fatalf("resumed frame: got %s/%s/%s with %d bytes (err %v)", m.From, m.To, m.Kind, len(m.Data), err)
			}
		})
	}
}

// TestTCPCloseUnblocksRecv: Close from another goroutine wakes a receive
// blocked with no deadline, and every later receive reports ErrClosed.
func TestTCPCloseUnblocksRecv(t *testing.T) {
	t.Parallel()
	_, _, b := tcpPair(t)
	got := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Recv with nothing sent returned %v", err)
	case <-time.After(20 * time.Millisecond): // blocked, as it should be
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock Recv within 1s")
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close returned %v, want ErrClosed", err)
	}
}

// TestTCPRecvDrainsBeforeClosed: frames the broker wrote before it shut
// down are all delivered, then the receive fails with ErrClosed carrying
// the EOF that ended the stream.
func TestTCPRecvDrainsBeforeClosed(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJoin(t, netw, "a"), mustJoin(t, netw, "b")
	defer a.Close()
	defer b.Close()
	const n = 50
	for i := 0; i < n; i++ {
		sendPing(t, a, "b", i)
	}
	// The broker relays a's frames in order, so once a hears its own
	// ping, every frame for b has been written to b's socket.
	sendPing(t, a, "a", n)
	expectPing(t, a, "a", n)
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		expectPing(t, b, "a", i)
	}
	_, err = b.RecvTimeout(5 * time.Second)
	if !errors.Is(err, ErrClosed) || !errors.Is(err, io.EOF) {
		t.Fatalf("after the drain: err = %v, want ErrClosed carrying io.EOF", err)
	}
}

// TestTCPSendBatchOrder: consecutive SendBatch bursts arrive end to end
// in send order, each frame intact.
func TestTCPSendBatchOrder(t *testing.T) {
	t.Parallel()
	_, a, b := tcpPair(t)
	const batches, per = 20, 50
	seq := 0
	go func() {
		for i := 0; i < batches; i++ {
			ms := make([]Message, per)
			for j := range ms {
				ms[j] = Message{To: "b", Kind: "ping"}
				_ = ms[j].Encode(hierReqPayload{Round: seq})
				seq++
			}
			if err := SendAll(a, ms); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for want := 0; want < batches*per; want++ {
		expectPing(t, b, "a", want)
	}
}

// TestTCPSendOversize: a message too large for one frame is refused at
// the sender, before anything reaches the wire.
func TestTCPSendOversize(t *testing.T) {
	t.Parallel()
	_, a, _ := tcpPair(t)
	err := a.Send(Message{To: "b", Kind: "big", Data: make([]byte, maxFrame)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestTCPFramingAllocs: framing a burst into the conn's reused send
// buffer allocates nothing, and neither does the broker's relay framing.
func TestTCPFramingAllocs(t *testing.T) {
	tc := &tcpConn{name: "shard-3/member-17"}
	ms := make([]Message, 8)
	for i := range ms {
		ms[i] = Message{To: "shard-3/leader", Kind: "hier.row"}
		if err := ms[i].Encode(hierRowPayload{User: i, S: []float64{0.25, 0.75}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tc.frameBatch(ms); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tc.frameBatch(ms) }); n != 0 {
		t.Errorf("frameBatch allocates %.1f per burst, want 0", n)
	}
	body := rawFrame("x", ms[0].To, ms[0].Kind, ms[0].Data)[frameHdr:]
	f, _ := splitFrame(body)
	dst := make([]byte, frameHdr+nameSize("shard-3/member-17")+len(f.afterFrom))
	if n := testing.AllocsPerRun(100, func() { putRelay(dst, "shard-3/member-17", f.afterFrom) }); n != 0 {
		t.Errorf("putRelay allocates %.1f per frame, want 0", n)
	}
}

// TestTCPInternAllocs: once a receiver has seen a name, later frames
// carrying it cost no allocation for it, and a whole read costs none:
// Data is the frame in place in the read buffer.
func TestTCPInternAllocs(t *testing.T) {
	names := nameTable{}
	frames := [][]byte{[]byte("shard-3/leader"), []byte("hier.token"), []byte("")}
	for _, f := range frames {
		names.intern(f)
	}
	n := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			_ = names.intern(f)
		}
	})
	if n != 0 {
		t.Errorf("steady-state interning allocates %.1f per frame set, want 0", n)
	}
	if s := names.intern([]byte("hier.token")); s != "hier.token" {
		t.Errorf("intern = %q", s)
	}
	// A steady-state timed receive allocates nothing: no timer, no
	// channel hop, no read buffer and no copy of Data, both in the
	// initial buffer and once one large frame has grown it.
	// AllocsPerRun calls recv runs+1 times.
	raw, conn := socketPair(t)
	const runs = 100
	wire := rawFrame("shard-3/leader", "node", "hier.token", []byte{1, 2, 3})
	large := rawFrame("shard-3/leader", "node", "hier.rows", make([]byte, 4*frameBufInit))
	stream := bytes.Repeat(wire, runs+2)
	stream = append(stream, large...)
	stream = append(stream, bytes.Repeat(wire, runs+2)...)
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	recv := func() {
		if _, err := conn.RecvTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recv() // interns the names
	if n := testing.AllocsPerRun(runs, recv); n != 0 {
		t.Errorf("a steady-state RecvTimeout allocates %.1f, want 0", n)
	}
	if c := cap(conn.rd.buf); c != frameBufInit {
		t.Fatalf("small frames left the buffer at %d bytes, want %d", c, frameBufInit)
	}
	recv() // the large frame grows the buffer
	recv()
	if n := testing.AllocsPerRun(runs, recv); n != 0 {
		t.Errorf("a RecvTimeout after the buffer grew allocates %.1f, want 0", n)
	}
	if c := cap(conn.rd.buf); c <= frameBufInit {
		t.Fatalf("the large frame left the buffer at %d bytes; it should have grown", c)
	}
}

// TestTCPRecvDataValidUntilNextRecv: a received Data is valid until the
// next receive and no longer. Three frames written in one Write do not
// fit the initial read buffer; the first is handed out in place and
// stays intact until the next call, whose compaction then reuses its
// bytes for the second and third, which read back correctly.
func TestTCPRecvDataValidUntilNextRecv(t *testing.T) {
	t.Parallel()
	raw, conn := socketPair(t)
	want := recvRulePayloads()
	var stream []byte
	for _, d := range want {
		stream = append(stream, rawFrame("peer", "node", "ping", d)...)
	}
	if len(stream) <= frameBufInit {
		t.Fatalf("the three frames take %d bytes; they must overflow the %d-byte initial buffer", len(stream), frameBufInit)
	}
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	first := recvKeepRecv(t, conn, "peer", want)
	// The receive copies nothing: the first frame's bytes were reused.
	if bytes.Equal(first, want[0]) {
		t.Error("the first Data survived two more receives; it should alias the read buffer, not be a copy")
	}
}

// TestTCPSendDoesNotRetainData: the TCP conn meets the Conn send rule,
// since Send frames Data into the conn's own send buffer before it
// returns; a sender that overwrites its buffer straight away changes
// nothing on the wire.
func TestTCPSendDoesNotRetainData(t *testing.T) {
	t.Parallel()
	_, a, b := tcpPair(t)
	recvSent(t, b, sendScribbled(t, a, "b", 0x11, 0x22, 0x33))
}

// TestTCPConnAllocs bounds the bytes one TCP node costs to Join and
// Close, counting its own side and the broker's: the dial, the hello
// handshake and one frame reader on each side, sized to the frames the
// handshake carries rather than to the largest frame a protocol might
// send. Not parallel, so no other test's allocations land in the count.
func TestTCPConnAllocs(t *testing.T) {
	// About 3.2 KiB per node measured; two 8 KiB read buffers per node
	// came to 19 KiB.
	const nodes, budget = 64, 4 << 10
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("user-%d", i)
	}
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conns := make([]Conn, 0, nodes)
	for _, name := range names {
		conns = append(conns, mustJoin(t, netw, name))
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if err := closeFn(); err != nil { // joins every broker serve loop
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / nodes; per > budget {
		t.Errorf("Join+Close allocate %d B per node, node and broker side together, want <= %d", per, budget)
	}
}

// stallReader hands out data in chunks of cuts[i]+1 bytes (all of it
// when cuts is empty) and fails with an expired deadline before each
// chunk, the way a socket under a receive deadline does when the rest of
// a frame is late.
type stallReader struct {
	data, cuts []byte
	n          int
	stalled    bool
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.stalled = !r.stalled; r.stalled {
		return 0, os.ErrDeadlineExceeded
	}
	k := len(r.data)
	if len(r.cuts) > 0 {
		k = min(k, int(r.cuts[r.n%len(r.cuts)])+1)
		r.n++
	}
	k = copy(p, r.data[:k])
	r.data = r.data[k:]
	return k, nil
}

// FuzzTCPFrame: arbitrary bytes never panic the frame reader that the
// broker and the receivers share, a length prefix past maxFrame is
// refused before any body is read, every frame accepted re-encodes byte
// for byte, and the broker's From rewrite keeps To, Kind and Data intact.
// Delivered in fuzzer-chosen chunks with a deadline expiring between
// them, the stream reads as the same messages and the same terminal
// error as in one piece.
func FuzzTCPFrame(f *testing.F) {
	tok := Message{Kind: hierKindToken}
	if err := tok.Encode(&hierTokenPayload{Epoch: 1, Hop: 3, Norm: 0.5, Loads: []float64{1.5, 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(rawFrame("user-1", "", helloKind, versionData), []byte(nil))
	f.Add(rawFrame("user-1", "user-2", tok.Kind, tok.Data), []byte{0})
	f.Add(append(rawFrame("", "", "", nil), rawFrame("a", "b", "c", []byte{1, 2, 3})...), []byte{2, 0, 6})
	// One byte past the initial buffer, so the reader must grow it.
	f.Add(rawFrame("a", "b", "big", make([]byte, frameBufInit+1-frameSize("a", "b", "big", nil))), []byte{200, 3})
	// Small frames, a large one, small ones again: compaction after growth.
	var mixed []byte
	for _, n := range []int{3, 40, 3 * frameBufInit, 5, 60, 7} {
		mixed = append(mixed, rawFrame("a", "b", "c", bytes.Repeat([]byte{byte(n)}, n))...)
	}
	f.Add(mixed, []byte(nil))
	f.Add(mixed, []byte{90, 7, 250, 31})
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame+1), []byte{1})
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame), []byte{0})
	f.Add([]byte{3, 0, 0, 0, 0x80, 0x00, 0x00}, []byte{4}) // non-minimal varint
	f.Add([]byte{0xff, 0x00, 0x13}, []byte(nil))

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		rd := newFrameReader(bytes.NewReader(data))
		var whole []Message
		off := 0
		var err error
		for {
			var fr frame
			if fr, err = rd.next(); err != nil {
				break
			}
			m := Message{From: string(fr.from), To: string(fr.to), Kind: string(fr.kind), Data: bytes.Clone(fr.data)}
			size := frameSize(m.From, m.To, m.Kind, m.Data)
			re := make([]byte, size)
			putFrame(re, m.From, m.To, m.Kind, m.Data)
			if !bytes.Equal(re, data[off:off+size]) {
				t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data[off:off+size], re)
			}
			off += size
			whole = append(whole, m)

			relayed := make([]byte, frameHdr+nameSize("broker-said")+len(fr.afterFrom))
			putRelay(relayed, "broker-said", fr.afterFrom)
			r, err := newFrameReader(bytes.NewReader(relayed)).message(nameTable{})
			if err != nil || r.From != "broker-said" || r.To != m.To || r.Kind != m.Kind || !bytes.Equal(r.Data, m.Data) {
				t.Fatalf("relay of %+v read back as %+v (err %v)", m, r, err)
			}
		}
		if len(data)-off >= frameHdr && binary.LittleEndian.Uint32(data[off:]) > maxFrame &&
			!errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("length prefix past maxFrame gave %v, want ErrFrameTooLarge", err)
		}

		rd = newFrameReader(&stallReader{data: data, cuts: cuts})
		names := nameTable{}
		for i := 0; ; {
			m, cerr := rd.message(names)
			if errors.Is(cerr, os.ErrDeadlineExceeded) {
				continue
			}
			if cerr != nil {
				if i != len(whole) || cerr.Error() != err.Error() {
					t.Fatalf("chunked read ended after %d frames with %v; in one piece, %d frames and %v", i, cerr, len(whole), err)
				}
				break
			}
			if i >= len(whole) || m.From != whole[i].From || m.To != whole[i].To || m.Kind != whole[i].Kind || !bytes.Equal(m.Data, whole[i].Data) {
				t.Fatalf("chunked frame %d = %+v, want %+v", i, m, whole[min(i, len(whole)-1)])
			}
			i++
		}
	})
}
