package dist

import (
	"strconv"
	"sync"
	"testing"
	"time"
)

// Layer benchmarks for the parts of a sharded NASH solve: one transport
// hop and the token codec. Timing only; nothing is asserted. Run with
//
//	go test -run '^$' -bench 'MemHop|TokenCodec' -benchmem ./internal/dist/

// BenchmarkMemHop passes one token around a ring of mem-transport nodes,
// each forwarding what it receives to its successor, and reports the
// cost of one hop. The chan rings pass an empty struct around goroutines
// linked by one-slot channels: the floor a hop that parks and wakes a
// goroutine cannot go below. 33 nodes is one shard of the m=1000 solve
// and its leader; 1000 nodes touch as many mailboxes as the whole solve.
func BenchmarkMemHop(b *testing.B) {
	for _, k := range []int{33, 1000} {
		b.Run("mem/"+strconv.Itoa(k), func(b *testing.B) { benchMemRing(b, k) })
	}
	for _, k := range []int{33, 1000} {
		b.Run("chan/"+strconv.Itoa(k), func(b *testing.B) { benchChanRing(b, k) })
	}
}

// benchMemRing runs a ring of k nodes: node 0 is the benchmark
// goroutine, the others forward the received Message as it is, which
// the send rule allows. The payload is a hier.token's size at n=4.
func benchMemRing(b *testing.B, k int) {
	netw := NewMemNetwork()
	conns := make([]Conn, k)
	for i := range conns {
		c, err := netw.Join("node-" + strconv.Itoa(i))
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		c, next := conns[i], conns[(i+1)%k].Name()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := c.Recv()
				if err != nil {
					return // closed at the end of the benchmark
				}
				m.To = next
				if err := c.Send(m); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close() // benchmark teardown; ends the forwarders
		}
		wg.Wait()
	}()
	tok := Message{To: conns[1].Name(), Kind: hierKindToken, Data: make([]byte, 70)}
	lap := func() {
		if err := conns[0].Send(tok); err != nil {
			b.Fatal(err)
		}
		if _, err := conns[0].RecvTimeout(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	lap() // every node has run once
	laps := (b.N + k - 1) / k
	b.ResetTimer()
	for i := 0; i < laps; i++ {
		lap()
	}
	reportPerHop(b, laps*k)
}

// benchChanRing is benchMemRing over one-slot channels.
func benchChanRing(b *testing.B, k int) {
	chans := make([]chan struct{}, k)
	for i := range chans {
		chans[i] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		in, out := chans[i], chans[(i+1)%k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range in {
				out <- v
			}
		}()
	}
	defer func() {
		for _, c := range chans[1:] {
			close(c)
		}
		wg.Wait()
	}()
	lap := func() {
		chans[1] <- struct{}{}
		<-chans[0]
	}
	lap()
	laps := (b.N + k - 1) / k
	b.ResetTimer()
	for i := 0; i < laps; i++ {
		lap()
	}
	reportPerHop(b, laps*k)
}

func reportPerHop(b *testing.B, hops int) {
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
}

// BenchmarkTokenCodec encodes a first-sweep hier.token at n=4 (Loads and
// End) into a reused Message, and decodes it into a reused payload, as
// every member does once per step: "decode" through Message.Decode and
// its pooled decoder state, "decode-owned" with the decoder state a
// member keeps.
func BenchmarkTokenCodec(b *testing.B) {
	tok := hierTokenPayload{Epoch: 3, Hop: 517, Norm: 0.125, EndNorm: 0.0625,
		Loads: []float64{21.5, 14.25, 10.75, 7.125},
		End:   []float64{21.25, 14.5, 10.5, 7.25}}
	m := Message{To: "user-17", Kind: hierKindToken}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tok.Hop++
			if err := m.Encode(&tok); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := m.Encode(&tok); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		var dst hierTokenPayload
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Decode(&dst); err != nil {
				b.Fatal(err)
			}
		}
		if dst.Hop != tok.Hop {
			b.Fatalf("decoded Hop %d, want %d", dst.Hop, tok.Hop)
		}
	})
	b.Run("decode-owned", func(b *testing.B) {
		var dst hierTokenPayload
		var d WireDec
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.decodeWith(&d, &dst); err != nil {
				b.Fatal(err)
			}
		}
		if dst.Hop != tok.Hop {
			b.Fatalf("decoded Hop %d, want %d", dst.Hop, tok.Hop)
		}
	})
}
