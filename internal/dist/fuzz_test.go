package dist

import (
	"testing"
)

// FuzzMessageRoundTrip feeds arbitrary bytes through every payload
// decoder the protocols use. Malformed input must surface as an error —
// never a panic — because chaos-duplicated or truncated traffic reaches
// these decoders in production paths.
func FuzzMessageRoundTrip(f *testing.F) {
	// Seed with one valid encoding per payload type plus degenerate data.
	seedPayloads := []any{
		tokenPayload{Iteration: 3, Norm: 0.5, Epoch: 1, Hops: 2, Ejected: []bool{false, true}},
		queryPayload{User: 1, Seq: 7},
		ratesPayload{Avail: []float64{1, 2, 3}, Seq: 8},
		strategyPayload{User: 2, S: []float64{0.5, 0.5}, Seq: 9},
		pingPayload{Seq: 10},
		ejectPayload{User: 1, Seq: 11},
		ackPayload{Seq: 12},
		reqBidPayload{Computer: 4, Attempt: 1},
		bidPayload{Computer: 4, Bid: 7.7},
		awardPayload{Load: 0.3, Payment: 2.5},
	}
	seedPayloads = append(seedPayloads, hierCodecSamples()...)
	for _, p := range seedPayloads {
		m := Message{Kind: "seed"}
		if err := m.Encode(p); err != nil {
			f.Fatal(err)
		}
		f.Add(m.Data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := Message{From: "a", To: "b", Kind: "fuzz", Data: data}
		// Every decoder must reject or accept, never panic.
		var tok tokenPayload
		_ = m.Decode(&tok)
		var q queryPayload
		_ = m.Decode(&q)
		var r ratesPayload
		_ = m.Decode(&r)
		var s strategyPayload
		_ = m.Decode(&s)
		var pi pingPayload
		_ = m.Decode(&pi)
		var e ejectPayload
		_ = m.Decode(&e)
		var a ackPayload
		_ = m.Decode(&a)
		var rb reqBidPayload
		_ = m.Decode(&rb)
		var b bidPayload
		_ = m.Decode(&b)
		var aw awardPayload
		_ = m.Decode(&aw)
		var ht hierTokenPayload
		_ = m.Decode(&ht)
		var hp hierPartialPayload
		_ = m.Decode(&hp)
		var hd hierDownPayload
		_ = m.Decode(&hd)
		var hr hierRowsPayload
		_ = m.Decode(&hr)
		var hj hierJoinOKPayload
		_ = m.Decode(&hj)

		// A payload that decodes as a token must survive a re-encode
		// round trip unchanged in the fields the protocol fences on.
		if err := m.Decode(&tok); err == nil {
			again := Message{Kind: "fuzz"}
			if err := again.Encode(tok); err != nil {
				t.Fatalf("re-encode of decoded token failed: %v", err)
			}
			var tok2 tokenPayload
			if err := again.Decode(&tok2); err != nil {
				t.Fatalf("round trip decode failed: %v", err)
			}
			if tok2.Epoch != tok.Epoch || tok2.Hops != tok.Hops || tok2.Iteration != tok.Iteration {
				t.Fatalf("token fencing fields changed in round trip: %+v vs %+v", tok, tok2)
			}
		}
	})
}
