package dist

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// retiredWireIDs are the wire types of the retired state-node NASH ring
// (token, query, rates, strategy, ping, eject, ack) and of the retired
// mid-run join (hier.join, hier.join.ok). No live payload may claim
// them.
var retiredWireIDs = []byte{1, 2, 3, 4, 5, 6, 7, 18, 19}

// FuzzMessageRoundTrip feeds arbitrary bytes through every payload
// decoder the protocols use. Malformed input must surface as an error —
// never a panic — because chaos-duplicated or truncated traffic reaches
// these decoders in production paths. Every payload that decodes
// re-encodes into a Data slice of exactly its length, in place and to
// the same bytes over a longer buffer of junk, and to the same bytes
// after the input it was decoded from is overwritten.
func FuzzMessageRoundTrip(f *testing.F) {
	// Seed with one valid encoding per payload type, one frame per
	// retired wire type, plus degenerate data.
	seedPayloads := []WireEncoder{
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
		if cap(m.Data) != len(m.Data) {
			f.Fatalf("%T: Data has cap %d for %d bytes", p, cap(m.Data), len(m.Data))
		}
		f.Add(m.Data)
	}
	for _, id := range retiredWireIDs {
		f.Add([]byte{codecMagic, id, 0x02, 0x0e})
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := Message{From: "a", To: "b", Kind: "fuzz", Data: data}
		retired := len(data) >= 2 && data[0] == codecMagic && slices.Contains(retiredWireIDs, data[1])
		// Every decoder must reject or accept, never panic; none may
		// accept a retired wire type.
		for _, v := range []interface {
			WireEncoder
			WireDecoder
		}{
			&reqBidPayload{}, &bidPayload{}, &awardPayload{},
			&hierTokenPayload{}, &hierPartialPayload{}, &hierDownPayload{},
			&hierReqPayload{}, &hierSyncPayload{}, &hierRowPayload{},
			&hierRowsPayload{},
		} {
			in := Message{Kind: "fuzz", Data: bytes.Clone(data)}
			if err := in.Decode(v); err != nil {
				continue
			}
			if retired {
				t.Fatalf("%T accepted retired wire type %d", v, data[1])
			}
			again := Message{Kind: "fuzz"}
			if err := again.Encode(v); err != nil {
				t.Fatalf("re-encode of decoded %T failed: %v", v, err)
			}
			if cap(again.Data) != len(again.Data) {
				t.Fatalf("re-encoded %T has cap %d for %d bytes", v, cap(again.Data), len(again.Data))
			}
			// A re-encode into a reused Message writes in place over a
			// longer buffer of junk and must leave no stale tail.
			junk := Message{Kind: "fuzz", Data: bytes.Repeat([]byte{0x5A}, len(again.Data)+7)}
			if err := junk.Encode(v); err != nil || !bytes.Equal(junk.Data, again.Data) {
				t.Fatalf("re-encode of %T over junk (err %v): %x, want %x", v, err, junk.Data, again.Data)
			}
			if cap(junk.Data) != len(again.Data)+7 {
				t.Fatalf("re-encode of %T into a large enough buffer reallocated it", v)
			}
			// No decoder may keep a sub-slice of Data: a TCP receive's
			// Data is overwritten by the next receive (the Conn rule).
			for i := range in.Data {
				in.Data[i] = 0xA5
			}
			after := Message{Kind: "fuzz"}
			if err := after.Encode(v); err != nil || !bytes.Equal(after.Data, again.Data) {
				t.Fatalf("decoded %T changed when its input was overwritten (err %v): %x, was %x", v, err, after.Data, again.Data)
			}
		}

		// A payload that decodes as a token must survive a re-encode
		// round trip unchanged in the fields the protocol fences on and
		// in the end-of-round fields a member reads and adds to.
		var tok hierTokenPayload
		if err := m.Decode(&tok); err == nil {
			again := Message{Kind: "fuzz"}
			if err := again.Encode(&tok); err != nil {
				t.Fatalf("re-encode of decoded token failed: %v", err)
			}
			var tok2 hierTokenPayload
			if err := again.Decode(&tok2); err != nil {
				t.Fatalf("round trip decode failed: %v", err)
			}
			if tok2.Epoch != tok.Epoch || tok2.Hop != tok.Hop {
				t.Fatalf("token fencing fields changed in round trip: %+v vs %+v", tok, tok2)
			}
			if math.Float64bits(tok2.EndNorm) != math.Float64bits(tok.EndNorm) || !slices.Equal(f64bits(tok2.End), f64bits(tok.End)) {
				t.Fatalf("token end-of-round fields changed in round trip: %+v vs %+v", tok, tok2)
			}
		}
	})
}

// f64bits returns the bit patterns of fs, so NaNs compare equal to
// themselves.
func f64bits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}
