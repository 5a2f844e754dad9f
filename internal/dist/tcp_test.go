package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
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
func rawJoin(t *testing.T, addr, name string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(rawFrame(name, "", helloKind, versionData)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	ack, err := readMessage(br, nameTable{})
	if err != nil || ack.Kind != helloOKKind {
		t.Fatalf("raw hello for %q: ack %+v, err %v", name, ack, err)
	}
	return c, br
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
	var p pingPayload
	if err := m.Decode(&p); err != nil || m.From != from || p.Seq != seq {
		t.Fatalf("got %+v (seq %d, err %v), want ping %d from %q", m, p.Seq, err, seq, from)
	}
}

func sendPing(t *testing.T, c Conn, to string, seq int) {
	t.Helper()
	m := Message{To: to, Kind: "ping"}
	if err := m.Encode(pingPayload{Seq: seq}); err != nil {
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
		c, br := rawJoin(t, addr, "rogue")
		if _, err := c.Write(bad); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := br.ReadByte(); err != io.EOF {
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
		if err := m.Encode(pingPayload{Seq: i}); err != nil {
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
	if err := m.Encode(pingPayload{Seq: 7}); err != nil {
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
				_ = ms[j].Encode(pingPayload{Seq: seq})
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
// carrying it cost no allocation for it; a whole read costs only Data.
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
	// A whole steady-state read allocates only the message's copy of Data.
	wire := rawFrame("shard-3/leader", "", "hier.token", []byte{1, 2, 3})
	rd := bytes.NewReader(wire)
	br := bufio.NewReaderSize(rd, tcpBufSize)
	n = testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		br.Reset(rd)
		if _, err := readMessage(br, names); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("reading a steady-state frame allocates %.1f, want 1 (its Data)", n)
	}
}

// FuzzTCPFrame: arbitrary bytes never panic the frame reader that the
// broker and the receivers share, a length prefix past maxFrame is
// refused before any body is read, every frame accepted re-encodes byte
// for byte, and the broker's From rewrite keeps To, Kind and Data intact.
func FuzzTCPFrame(f *testing.F) {
	tok := Message{Kind: "nash.token"}
	if err := tok.Encode(tokenPayload{Iteration: 3, Norm: 0.5, Ejected: []bool{true, false}}); err != nil {
		f.Fatal(err)
	}
	f.Add(rawFrame("user-1", "", helloKind, versionData))
	f.Add(rawFrame("user-1", "user-2", tok.Kind, tok.Data))
	f.Add(append(rawFrame("", "", "", nil), rawFrame("a", "b", "c", []byte{1, 2, 3})...))
	f.Add(rawFrame("a", "b", "big", make([]byte, tcpBufSize))) // too large to parse in place
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame))
	f.Add([]byte{3, 0, 0, 0, 0x80, 0x00, 0x00}) // non-minimal varint
	f.Add([]byte{0xff, 0x00, 0x13})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), tcpBufSize)
		off := 0
		for {
			err := nextFrame(br, func(fr frame) {
				m := Message{From: string(fr.from), To: string(fr.to), Kind: string(fr.kind), Data: fr.data}
				size := frameSize(m.From, m.To, m.Kind, m.Data)
				re := make([]byte, size)
				putFrame(re, m.From, m.To, m.Kind, m.Data)
				if !bytes.Equal(re, data[off:off+size]) {
					t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data[off:off+size], re)
				}
				off += size

				relayed := make([]byte, frameHdr+nameSize("broker-said")+len(fr.afterFrom))
				putRelay(relayed, "broker-said", fr.afterFrom)
				r, err := readMessage(bufio.NewReader(bytes.NewReader(relayed)), nameTable{})
				if err != nil || r.From != "broker-said" || r.To != m.To || r.Kind != m.Kind || !bytes.Equal(r.Data, m.Data) {
					t.Fatalf("relay of %+v read back as %+v (err %v)", m, r, err)
				}
			})
			if err != nil {
				if len(data)-off >= frameHdr && binary.LittleEndian.Uint32(data[off:]) > maxFrame &&
					!errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("length prefix past maxFrame gave %v, want ErrFrameTooLarge", err)
				}
				return
			}
		}
	})
}
