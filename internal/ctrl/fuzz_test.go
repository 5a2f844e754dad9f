package ctrl

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"gtlb/internal/dist"
)

// FuzzLoadEstimate hammers the wire-decoding surface: arbitrary bytes
// must never panic, and whatever decodes successfully must satisfy the
// Estimate validity contract (so a malicious or corrupted peer cannot
// smuggle NaN rates into the controller). Valid estimates round-trip,
// and re-encode the same after their input is overwritten. Decoding
// into a dirty, reused Estimate, as the daemon does, gives what a fresh
// decode gives, and the controller's one-pass check rejects exactly
// what Validate rejects.
func FuzzLoadEstimate(f *testing.F) {
	// Seed with a well-formed binary wire encoding and a few mutations
	// of it.
	seed := Estimate{Seq: 3, Time: 1.5, Phi: []float64{10, 5}, Mu: []float64{40, 0, 25}, Source: "lbgen"}
	m, err := EncodeMessage("lbd", seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Data)
	f.Add([]byte{})
	f.Add([]byte("not a wire payload"))
	if len(m.Data) > 4 {
		trunc := append([]byte(nil), m.Data[:len(m.Data)/2]...)
		f.Add(trunc)
		flipped := append([]byte(nil), m.Data...)
		flipped[len(flipped)-3] ^= 0xff
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg := dist.Message{Kind: EstimateKind, Data: data}
		var fresh Estimate
		freshErr := fresh.decode(msg)
		for _, dirty := range []Estimate{
			{Seq: 7, Time: 9, Phi: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Mu: make([]float64, 300), Source: "other"},
			{Phi: []float64{0}, Mu: []float64{math.NaN()}},
		} {
			err := dirty.decode(msg)
			if (err == nil) != (freshErr == nil) {
				t.Fatalf("decode into a dirty estimate: error %v, fresh decode: %v", err, freshErr)
			}
			if err == nil && !bytes.Equal(dirty.AppendWire(nil), fresh.AppendWire(nil)) {
				t.Fatalf("decode into a dirty estimate gave %+v, a fresh decode %+v", dirty, fresh)
			}
		}
		if freshErr == nil {
			_, ingestErr := mustController(t, Config{}).Ingest(fresh)
			if verr := fresh.Validate(); (ingestErr == nil) != (verr == nil) {
				t.Fatalf("Ingest error %v, Validate error %v for %+v", ingestErr, verr, fresh)
			}
		}

		in := bytes.Clone(data) // overwritten once decoded
		e, err := DecodeEstimate(dist.Message{Kind: EstimateKind, Data: in})
		if err != nil {
			return
		}
		// Decoded successfully: the validity contract must hold.
		if len(e.Phi) == 0 || len(e.Mu) == 0 {
			t.Fatalf("decoder accepted an empty estimate: %+v", e)
		}
		for _, p := range e.Phi {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("decoder accepted invalid user rate %g", p)
			}
		}
		for _, mu := range e.Mu {
			if math.IsNaN(mu) || math.IsInf(mu, 0) {
				t.Fatalf("decoder accepted invalid computer rate %g", mu)
			}
		}
		if e.Time < 0 || math.IsNaN(e.Time) {
			t.Fatalf("decoder accepted invalid time %g", e.Time)
		}
		// And a valid estimate survives a re-encode round trip.
		m, err := EncodeMessage("x", e)
		if err != nil {
			t.Fatalf("re-encoding a valid estimate failed: %v", err)
		}
		if cap(m.Data) != len(m.Data) {
			t.Fatalf("re-encoded estimate has cap %d for %d bytes", cap(m.Data), len(m.Data))
		}
		// The decoder keeps no sub-slice of its input: a TCP receive's
		// Data is overwritten by the next receive (the Conn rule).
		for i := range in {
			in[i] = 0xA5
		}
		if after, err := EncodeMessage("x", e); err != nil || !bytes.Equal(after.Data, m.Data) {
			t.Fatalf("decoded estimate changed when its input was overwritten (err %v): %x, was %x", err, after.Data, m.Data)
		}
		e2, err := DecodeEstimate(m)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if e2.Seq != e.Seq || e2.Time != e.Time || len(e2.Phi) != len(e.Phi) || len(e2.Mu) != len(e.Mu) {
			t.Fatalf("round trip changed the estimate: %+v -> %+v", e, e2)
		}
	})
}

// TestEstimateWireRoundTrip pins the estimate's binary encoding: it
// travels under the id dist reserves for it in a Data slice of exactly
// its length, and decodes back exactly.
func TestEstimateWireRoundTrip(t *testing.T) {
	in := Estimate{Seq: 9, Time: 2.5, Phi: []float64{10, 0, 5}, Mu: []float64{40, -1, 25}, Source: "lbgen"}
	m, err := EncodeMessage("lbd", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) < 2 || m.Data[1] != dist.WireEstimate {
		t.Fatalf("estimate not on its reserved wire id: % x", m.Data)
	}
	if cap(m.Data) != len(m.Data) {
		t.Errorf("encoded estimate has cap %d for %d bytes, want an exact-size Data", cap(m.Data), len(m.Data))
	}
	out, err := DecodeEstimate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}
