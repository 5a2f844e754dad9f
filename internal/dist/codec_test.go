package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// hierCodecSamples is one representative value per hierarchical payload
// type, with every slice field populated (the wire format must survive
// nil vs empty vs populated slices — the fuzz harness covers the
// degenerate shapes).
func hierCodecSamples() []WireEncoder {
	return []WireEncoder{
		hierTokenPayload{Epoch: 3, Hop: 17, Norm: 0.125, EndNorm: 0.0625,
			Loads: []float64{1.5, 2.25, 0, 3},
			End:   []float64{1.25, 2.5, 0.5, 2.75}},
		hierTokenPayload{Epoch: 3, Hop: 22, Norm: 0.5,
			Loads: []float64{1.5, 2.25, 0, 3}}, // a later sweep's token: no End
		hierPartialPayload{Round: 5, Shard: 3, Norm: 0.25, EndNorm: 0.375, Sweeps: 4,
			Loads:   []float64{1, 2, 3, 4},
			Ejected: []int32{7}},
		hierDownPayload{Round: 6, Shard: 5, Loads: []float64{5, 6, 7}, End: []float64{4.5, 6.5, 7.25}},
		hierDownPayload{Round: 7, Stop: true},
		hierReqPayload{Round: 4},
		hierSyncPayload{Epoch: 8, Next: "user-3"},
		hierRowPayload{User: 3, Epoch: 8, S: []float64{0.5, 0.5}},
		hierRowsPayload{Round: 9, Shard: 2, Users: []int32{4, 5}, Ejected: []int32{6},
			Rows: [][]float64{{0.25, 0.75}, {1, 0}}},
	}
}

// TestHierCodecRoundTrip pins the binary wire format of every
// hierarchical payload: encode → decode must reproduce the value
// exactly, the payload must open with the codec magic, and Data must be
// exactly as long as its capacity.
func TestHierCodecRoundTrip(t *testing.T) {
	for _, p := range hierCodecSamples() {
		m := Message{Kind: "t"}
		if err := m.Encode(p); err != nil {
			t.Fatalf("%T: encode: %v", p, err)
		}
		if len(m.Data) < 2 || m.Data[0] != codecMagic {
			t.Fatalf("%T: encoded without the binary codec (first byte %#x)", p, m.Data[0])
		}
		if cap(m.Data) != len(m.Data) {
			t.Errorf("%T: Data has cap %d for %d bytes, want exact size", p, cap(m.Data), len(m.Data))
		}
		out := reflect.New(reflect.TypeOf(p)) // a *T zero value
		if err := m.Decode(out.Interface().(WireDecoder)); err != nil {
			t.Fatalf("%T: decode: %v", p, err)
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, p) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", p, got, p)
		}
	}
}

// TestEncodeInPlace pins Encode's two paths. A Message whose Data has
// room is re-encoded in place, writing the payload once and allocating
// nothing; a fresh Message gets one Data of exactly the payload's
// length. Both hold the payload's wire encoding byte for byte, and a
// payload that outgrows the room it is given still encodes whole.
func TestEncodeInPlace(t *testing.T) {
	for _, p := range hierCodecSamples() {
		want := p.AppendWire([]byte{codecMagic, p.WireID()})
		var fresh Message
		if err := fresh.Encode(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh.Data, want) || cap(fresh.Data) != len(want) {
			t.Errorf("%T: fresh Data % x (cap %d), want % x (cap %d)", p, fresh.Data, cap(fresh.Data), want, len(want))
		}
		buf := make([]byte, 0, len(want))
		reused := Message{Data: buf}
		if err := reused.Encode(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reused.Data, want) || &reused.Data[0] != &buf[:1][0] {
			t.Errorf("%T: re-encode wrote % x elsewhere than its Data; want % x in place", p, reused.Data, want)
		}
		small := Message{Data: make([]byte, 0, 3)}
		if err := small.Encode(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(small.Data, want) {
			t.Errorf("%T: encode past the Data's room wrote % x, want % x", p, small.Data, want)
		}
	}

	tok := hierTokenPayload{Epoch: 1, Hop: 2, Norm: 0.5,
		Loads: []float64{1, 2, 3, 4}, End: []float64{0.5, 1.5, 2.5, 3.5}}
	m := Message{Data: make([]byte, 0, tokenBytes(len(tok.Loads)))}
	allocGate(t, "re-encode into a Data with room", 0, func() {
		tok.Hop++
		if err := m.Encode(&tok); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWireIDs pins every live payload's wire-type byte. The ids are
// wire-format constants: ids 1–7 and 18–19 stay retired
// (FuzzMessageRoundTrip checks no decoder accepts them) and nothing is
// renumbered.
func TestWireIDs(t *testing.T) {
	for _, c := range []struct {
		p  WireEncoder
		id byte
	}{
		{reqBidPayload{}, 8},
		{bidPayload{}, 9},
		{awardPayload{}, 10},
		{hierTokenPayload{}, 11},
		{hierPartialPayload{}, 12},
		{hierDownPayload{}, 13},
		{hierReqPayload{}, 14},
		{hierSyncPayload{}, 15},
		{hierRowPayload{}, 16},
		{hierRowsPayload{}, 17},
	} {
		if got := c.p.WireID(); got != c.id {
			t.Errorf("%T: wire id %d, want %d", c.p, got, c.id)
		}
	}
	if WireEstimate != 20 {
		t.Errorf("WireEstimate = %d, want 20", WireEstimate)
	}
	for _, id := range retiredWireIDs {
		if id >= wireReqBid && id <= wireHierRows || id == WireEstimate {
			t.Errorf("retired wire id %d is live", id)
		}
	}
}

// TestHierTokenAllocs gates the shard hot path: a fresh encode of a
// token costs one allocation (the Data slice), a re-encode into a reused
// Message costs none (the member and the leader keep their token
// Message from step to step), and decoding into a reused payload costs
// none. A regression here multiplies across every member step of every
// sweep — one message per step at n=10,000 scale.
func TestHierTokenAllocs(t *testing.T) {
	tok := hierTokenPayload{Epoch: 1, Hop: 2, Norm: 0.5,
		Loads: []float64{1, 2, 3, 4}, End: []float64{0.5, 1.5, 2.5, 3.5}}
	allocGate(t, "token encode", 1, func() {
		m := Message{Kind: hierKindToken}
		// Pointer-shaped, like the protocol call sites: a struct value
		// passed as a WireEncoder would box (a second allocation).
		if err := m.Encode(&tok); err != nil {
			t.Fatal(err)
		}
	})

	m := Message{Kind: hierKindToken}
	if err := m.Encode(&tok); err != nil {
		t.Fatal(err)
	}
	allocGate(t, "token re-encode into a reused Message", 0, func() {
		tok.Norm += 0.5
		tok.EndNorm += 0.25
		if err := m.Encode(&tok); err != nil {
			t.Fatal(err)
		}
	})
	reuse := hierTokenPayload{Loads: make([]float64, 0, 8), End: make([]float64, 0, 8)}
	allocGate(t, "token decode into a reused payload", 0, func() {
		if err := m.Decode(&reuse); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHierDownAllocs gates the root's activation path the same way: a
// down must be one allocation to encode and alloc-free to decode into a
// reused payload.
func TestHierDownAllocs(t *testing.T) {
	down := hierDownPayload{Round: 7, Shard: 2, Loads: []float64{1, 2, 3, 4}, End: []float64{0.5, 1.5, 2.5, 3.5}}
	allocGate(t, "down encode", 1, func() {
		m := Message{Kind: hierKindDown}
		if err := m.Encode(&down); err != nil {
			t.Fatal(err)
		}
	})

	m := Message{Kind: hierKindDown}
	if err := m.Encode(&down); err != nil {
		t.Fatal(err)
	}
	reuse := hierDownPayload{Loads: make([]float64, 0, 8), End: make([]float64, 0, 8)}
	allocGate(t, "down decode into a reused payload", 0, func() {
		if err := m.Decode(&reuse); err != nil {
			t.Fatal(err)
		}
	})
}

// allocGate fails the test if f costs more than limit allocations per
// call. Encode and Decode draw their scratch state from a sync.Pool,
// which in a -race build drops about a quarter of its Puts at random:
// there a fresh encode really averages about 1.5 allocations and a
// decode about 0.25, and testing.AllocsPerRun's truncated count would
// pass or fail by chance. The race build also allocates the zeroed
// extension AppendF64s appends, which a normal build does not, so an
// in-place token encode there costs two. So under -race the gate is off
// and the true mean is logged instead.
func allocGate(t *testing.T, what string, limit float64, f func()) {
	t.Helper()
	const runs = 1000
	if !raceEnabled() {
		if n := testing.AllocsPerRun(runs, f); n > limit {
			t.Errorf("%s costs %.1f allocs/op, want <= %.0f", what, n, limit)
		}
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	t.Logf("%s averages %.2f allocs/op under -race; the <= %.0f gate runs only without -race, since sync.Pool drops pooled items at random there",
		what, float64(after.Mallocs-before.Mallocs)/runs, limit)
}

// raceEnabled reports a -race build.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestF64sFixedBytes pins the float-slice wire format that
// AppendF64s and WireDec.F64s move in bulk: a uvarint length, then each
// float as 8 little-endian bytes, exactly what appending the elements
// one by one writes. Special values round-trip bit for bit, and a
// length prefix that overruns the payload fails before any slice is
// made.
func TestF64sFixedBytes(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with payload bits
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff4_0000_0000_0abc), // negative NaN with payload bits
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(1),                     // smallest subnormal
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		-math.Float64frombits(0x0000_0000_0001_0000),
	}
	prefix := []byte{0xB1, 0x7f}
	for _, n := range []int{0, 1, 4, 257} {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1.5*float64(i) - 100
		}
		if n > 1 {
			copy(s, special)
		}
		want := binary.AppendUvarint(bytes.Clone(prefix), uint64(n))
		for _, f := range s {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(f))
		}
		got := AppendF64s(bytes.Clone(prefix), s)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendF64s wrote % x, want % x", n, got, want)
		}
		// Decode into dst of every shape: nil, too short, long enough.
		for _, dst := range [][]float64{nil, make([]float64, 0, n/2), make([]float64, 3, n+5)} {
			d := WireDec{b: want, off: len(prefix)}
			out := d.F64s(dst)
			if d.err != nil || d.off != len(want) {
				t.Fatalf("n=%d: F64s stopped at %d of %d bytes: %v", n, d.off, len(want), d.err)
			}
			if len(out) != n {
				t.Fatalf("n=%d: F64s read %d floats", n, len(out))
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(s[i]) {
					t.Fatalf("n=%d: float %d decoded as %#x, want %#x", n, i, math.Float64bits(out[i]), math.Float64bits(s[i]))
				}
			}
		}
	}

	// A failed single-float read is the reference cost of a failure:
	// the error, and nothing else.
	failF64 := func() {
		d := WireDec{b: []byte{1, 2, 3}}
		if d.F64(); d.err == nil {
			t.Fatal("a 3-byte float64 decoded")
		}
	}
	ref := testing.AllocsPerRun(100, failF64)
	dst := make([]float64, 2, 4)
	for name, b := range map[string][]byte{
		"truncated":  binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 2), 0), // 2 floats, 1 present
		"oversized":  binary.AppendUvarint(nil, 1<<60),
		"max uint64": binary.AppendUvarint(nil, math.MaxUint64),
		"overflow":   bytes.Repeat([]byte{0xff}, 11),
	} {
		var out []float64
		allocs := testing.AllocsPerRun(100, func() {
			d := WireDec{b: b}
			if out = d.F64s(dst); d.err == nil {
				t.Fatalf("%s: F64s accepted % x", name, b)
			}
		})
		if len(out) != len(dst) || cap(out) != cap(dst) || &out[0] != &dst[0] {
			t.Errorf("%s: F64s returned len %d cap %d, want dst (len %d cap %d) untouched", name, len(out), cap(out), len(dst), cap(dst))
		}
		// Under -race, sync.Pool drops fmt's pooled printers at random,
		// so a failure's error costs a varying number of allocations.
		if allocs > ref && !raceEnabled() {
			t.Errorf("%s: a failed F64s costs %.0f allocs, a failed F64 %.0f", name, allocs, ref)
		}
	}
}
