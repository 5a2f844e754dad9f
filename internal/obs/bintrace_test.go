package obs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// tracedEvent is one step of a replayable trace script: the event plus
// the stream it goes to (rep -1 = the root stream).
type tracedEvent struct {
	rep int
	e   Event
}

// replay drives an identical script through any Sink, forking
// replication sinks on first use in script order.
func replay(t *testing.T, s Sink, script []tracedEvent) {
	t.Helper()
	forks := map[int]Observer{}
	for _, te := range script {
		if te.rep < 0 {
			s.Observe(te.e)
			continue
		}
		f, ok := forks[te.rep]
		if !ok {
			f = s.ForkRep(te.rep)
			forks[te.rep] = f
		}
		f.Observe(te.e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// jsonlOf is the reference output, built without the binary path:
// each scripted event through appendJSONLRecord in flush order — root
// first, then the replications in ascending order, each stream in
// script order.
func jsonlOf(t *testing.T, script []tracedEvent) []byte {
	t.Helper()
	reps := map[int]bool{}
	for _, te := range script {
		reps[te.rep] = true
	}
	order := make([]int, 0, len(reps))
	for rep := range reps {
		order = append(order, rep)
	}
	sort.Ints(order) // -1, the root, sorts first
	var out []byte
	for _, rep := range order {
		for _, te := range script {
			if te.rep == rep {
				out = appendJSONLRecord(out, te.e.Kind.Name(), te.e, rep)
			}
		}
	}
	return out
}

// decodedBinaryOf encodes the script with the binary tracer and decodes
// it back to JSONL.
func decodedBinaryOf(t *testing.T, script []tracedEvent) []byte {
	t.Helper()
	var bin bytes.Buffer
	replay(t, NewBinaryTracer(&bin), script)
	var out bytes.Buffer
	if err := DecodeTrace(&bin, &out); err != nil {
		t.Fatalf("DecodeTrace: %v", err)
	}
	return out.Bytes()
}

// scriptRNG is a tiny deterministic generator (splitmix64) so the
// property test needs no seed plumbing and no test-order coupling.
type scriptRNG uint64

func (r *scriptRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomScript generates an adversarial-ish event script: every kind,
// negative and large operands, batched counts, zero/negative/huge
// values, node labels shared and unshared, events interleaved across
// the root and several replications in scrambled order.
func randomScript(r *scriptRNG, n int) []tracedEvent {
	nodes := []string{"", "user-0", "user-12", "computer-3", "root", "a long node label that spans more than one varint byte"}
	script := make([]tracedEvent, n)
	clock := make(map[int]float64)
	for i := range script {
		rep := int(r.next()%5) - 1 // -1 (root) .. 3
		var e Event
		e.Kind = Kind(r.next() % uint64(kindCount+2)) // includes unknown and out-of-range
		switch r.next() % 4 {
		case 0: // monotone virtual clock, the common case
			clock[rep] += float64(r.next()%1000) / 64
			e.Time = clock[rep]
		case 1: // repeated timestamp (iteration index)
			e.Time = clock[rep]
		case 2: // arbitrary, including negative
			e.Time = float64(int64(r.next())) / 257
		case 3:
			e.Time = 0
		}
		e.A = int32(r.next())
		e.B = int32(r.next() % 7)
		if r.next()%3 == 0 {
			e.N = int64(r.next() % 100_000)
		}
		if r.next()%2 == 0 {
			e.V = float64(int64(r.next())) / 1024
		}
		e.Node = nodes[r.next()%uint64(len(nodes))]
		script[i] = tracedEvent{rep: rep, e: e}
	}
	return script
}

// TestBinaryRoundTripProperty is the format's core promise: for
// generated event scripts, decode(binary-encode(events)) is
// byte-identical to what the JSONL tracer flushes for the same events.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := scriptRNG(1)
	for trial := 0; trial < 40; trial++ {
		script := randomScript(&rng, 200+trial*13)
		want := jsonlOf(t, script)
		got := decodedBinaryOf(t, script)
		if !bytes.Equal(got, want) {
			line := 1 + bytes.Count(want[:commonPrefix(got, want)], []byte("\n"))
			t.Fatalf("trial %d: decoded binary diverges from JSONL at line %d\n got: %.200s\nwant: %.200s",
				trial, line, lineAt(got, line), lineAt(want, line))
		}
	}
}

func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func lineAt(b []byte, line int) []byte {
	lines := bytes.Split(b, []byte("\n"))
	if line-1 < len(lines) {
		return lines[line-1]
	}
	return []byte("<EOF>")
}

// TestBinaryTracerForkOrderIndependence pins the worker-count
// determinism mechanism at the sink level: forking and driving the
// replication streams in scrambled orders must flush identical bytes,
// because sections order by replication index, not observation order.
func TestBinaryTracerForkOrderIndependence(t *testing.T) {
	rng := scriptRNG(7)
	script := randomScript(&rng, 400)
	// Reference: script order as generated.
	var ref bytes.Buffer
	replay(t, NewBinaryTracer(&ref), script)
	// Scrambled: group per stream, then drive streams in reverse
	// order. Per-stream event order is preserved (each replication is
	// single-goroutine), only cross-stream interleaving changes — the
	// schedule freedom a worker pool actually has.
	streams := map[int][]tracedEvent{}
	var order []int
	for _, te := range script {
		if _, ok := streams[te.rep]; !ok {
			order = append(order, te.rep)
		}
		streams[te.rep] = append(streams[te.rep], te)
	}
	var scrambled []tracedEvent
	for i := len(order) - 1; i >= 0; i-- {
		scrambled = append(scrambled, streams[order[i]]...)
	}
	var got bytes.Buffer
	replay(t, NewBinaryTracer(&got), scrambled)
	if !bytes.Equal(ref.Bytes(), got.Bytes()) {
		t.Fatal("binary trace bytes depend on cross-stream drive order")
	}
}

// TestBinaryTracerMultiFlush: the header appears once per tracer, each
// flush appends the sections observed since the last, and the
// concatenated output decodes to the concatenated JSONL.
func TestBinaryTracerMultiFlush(t *testing.T) {
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin)
	bt.Observe(Event{Kind: NashSend, Time: 1, Node: "user-1"})
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	first := bin.Len()
	bt.Observe(Event{Kind: NashSend, Time: 2, Node: "user-1"})
	bt.ForkRep(0).Observe(Event{Kind: DESArrival, Time: 3, A: 1})
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bin.Bytes(), traceMagic[:]) {
		t.Fatal("missing trace magic")
	}
	if n := bytes.Count(bin.Bytes(), traceMagic[:3]); n != 1 {
		t.Errorf("header magic appears %d times, want once per tracer", n)
	}
	if bin.Len() <= first {
		t.Fatal("second flush wrote nothing")
	}
	var out bytes.Buffer
	if err := DecodeTrace(&bin, &out); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"nash.send","t":1,"a":0,"b":0,"node":"user-1"}
{"kind":"nash.send","t":2,"a":0,"b":0,"node":"user-1"}
{"rep":0,"kind":"des.arrival","t":3,"a":1,"b":0}
`
	if out.String() != want {
		t.Errorf("decoded multi-flush trace:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestBinaryTracerEmpty: a tracer that observed nothing flushes zero
// bytes (not even a header), matching the JSONL tracer, and zero bytes
// decode to zero bytes.
func TestBinaryTracerEmpty(t *testing.T) {
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin)
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	if bin.Len() != 0 {
		t.Fatalf("empty binary trace flushed %d bytes", bin.Len())
	}
	var out bytes.Buffer
	if err := DecodeTrace(&bin, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty trace decoded to %d bytes", out.Len())
	}
}

// TestBinaryTracerCompression sanity-checks the point of the format on
// a simulator-shaped stream: the binary encoding must be at least 4×
// smaller than the JSONL one (measured ~5× here, where half the
// records carry a fixed 8-byte value float; protocol streams without
// values compress further).
func TestBinaryTracerCompression(t *testing.T) {
	var script []tracedEvent
	clock := 0.0
	for i := 0; i < 20_000; i++ {
		clock += 0.001953125 // exactly representable step
		kind := DESArrival
		var v float64
		if i%2 == 1 {
			kind = DESDeparture
			v = clock / 7
		}
		script = append(script, tracedEvent{rep: i % 4, e: Event{Kind: kind, Time: clock, A: int32(i % 16), B: 1, V: v}})
	}
	jsonl := len(jsonlOf(t, script))
	var bin bytes.Buffer
	replay(t, NewBinaryTracer(&bin), script)
	if ratio := float64(jsonl) / float64(bin.Len()); ratio < 4 {
		t.Errorf("binary trace only %.1fx smaller than JSONL (%d vs %d bytes)", ratio, bin.Len(), jsonl)
	}
}

func TestBinaryTracerStickyError(t *testing.T) {
	sentinel := errors.New("disk full")
	bt := NewBinaryTracer(failWriter{err: sentinel})
	bt.Observe(Event{Kind: ChaosDrop})
	if err := bt.Flush(); !errors.Is(err, sentinel) {
		t.Errorf("Flush error = %v, want %v", err, sentinel)
	}
	if err := bt.Err(); !errors.Is(err, sentinel) {
		t.Errorf("Err() = %v, want sticky %v", err, sentinel)
	}
}

// TestDecodeTraceCorrupt: malformed inputs must fail with ErrBadTrace,
// never panic and never succeed.
func TestDecodeTraceCorrupt(t *testing.T) {
	// A valid small trace to mutate.
	var bin bytes.Buffer
	bt := NewBinaryTracer(&bin)
	bt.Observe(Event{Kind: DESArrival, Time: 1, A: 3, Node: "n"})
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := bin.Bytes()
	cases := map[string][]byte{
		"bad magic":       append([]byte("XXXX"), valid[4:]...),
		"truncated magic": valid[:3],
		"truncated body":  valid[:len(valid)-2],
		"garbage":         []byte("{\"kind\":\"des.arrival\"}\n"),
		"huge kind table": {'L', 'B', 'T', 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if err := DecodeTrace(bytes.NewReader(data), io.Discard); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
}

// TestTracerRootPageReuse is the root-buffer growth fix's regression
// gate, for both formats: a large non-forked (protocol-style) trace
// must recycle its pooled pages across runs instead of re-growing a
// fresh buffer chain every time. The old bytes.Buffer implementation
// re-allocated the full trace (plus doubling waste) per run — several
// megabytes here; the pooled steady state costs kilobytes.
func TestTracerRootPageReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Sink
	}{
		{"jsonl", func() Sink { return NewTracer(io.Discard) }},
		{"binary", func() Sink { return NewBinaryTracer(io.Discard) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				tr := tc.mk()
				for i := 0; i < 30_000; i++ {
					tr.Observe(Event{Kind: NashSend, Time: float64(i), A: 1, B: 2, V: 0.5, Node: "user-1"})
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the page pool
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			const runs = 5
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			perRun := (after.TotalAlloc - before.TotalAlloc) / runs
			// The JSONL trace is ~2 MB per run; pooled pages keep the
			// steady state to bookkeeping. The budget is far below one
			// trace's worth of buffer, so losing page reuse fails even
			// if a stray GC empties part of the pool mid-loop.
			if perRun > 1<<20 {
				t.Errorf("%s root tracing allocates %d bytes per run; pages are not being reused", tc.name, perRun)
			}
		})
	}
}

// TestBinaryObserveSteadyStateAllocs pins the hot encode path: after
// the stream's intern table and first pages exist, observing is
// allocation-free up to the amortized pooled-page fetch.
func TestBinaryObserveSteadyStateAllocs(t *testing.T) {
	bt := NewBinaryTracer(io.Discard)
	e := Event{Kind: DESDeparture, Time: 1, A: 3, B: 1, V: 0.25, Node: "user-1"}
	bt.Observe(e) // interns the node label, acquires the first page
	allocs := testing.AllocsPerRun(5000, func() {
		e.Time += 0.125
		bt.Observe(e)
	})
	if allocs > 0.01 {
		t.Errorf("binary Observe allocates %.3f times per event; the encode path must be allocation-free", allocs)
	}
	if err := bt.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONLObserveSteadyStateAllocs is the same gate for the JSONL
// root path (the scratch slice and pages must both be reused).
func TestJSONLObserveSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(io.Discard)
	e := Event{Kind: DESDeparture, Time: 1, A: 3, B: 1, V: 0.25, Node: "user-1"}
	tr.Observe(e)
	allocs := testing.AllocsPerRun(5000, func() {
		e.Time += 0.125
		tr.Observe(e)
	})
	if allocs > 0.01 {
		t.Errorf("JSONL Observe allocates %.3f times per event; scratch or pages are not being reused", allocs)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONLFlushAllocs pins the JSONL flush path, which decodes the
// buffered binary records in place: flushing ten times as many records
// costs no more allocations, so the per-record cost is zero. Only the
// Flush is counted; the Observe calls before it fetch pooled pages,
// which -race's sync.Pool drops at random. Mallocs counts the whole
// process, so each size reports the least of several flushes: one
// stray runtime allocation during a flush must not read as the flush's.
func TestJSONLFlushAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	flushAllocs := func(n int) uint64 {
		tr := NewTracer(io.Discard)
		fork := tr.ForkRep(0)
		var before, after runtime.MemStats
		least := ^uint64(0)
		for run := 0; run < 6; run++ {
			for i := 0; i < n/2; i++ {
				tr.Observe(Event{Kind: NashSend, Time: float64(i), A: 1, V: 0.5, Node: "user-1"})
				fork.Observe(Event{Kind: DESDeparture, Time: float64(i), A: 3, B: 1, V: 0.25})
			}
			runtime.ReadMemStats(&before)
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if run > 0 { // the first flush makes the writer and scratch
				least = min(least, after.Mallocs-before.Mallocs)
			}
		}
		return least
	}
	small, large := flushAllocs(2000), flushAllocs(20_000)
	if large > small {
		t.Errorf("JSONL Flush of 20000 records allocates %d times, of 2000 %d; decoding at flush must not allocate per record", large, small)
	}
}

// TestDecodeTraceValueAllocs pins the decode path: reading an event's
// value V costs no allocation, so a trace whose records all carry V
// decodes in as many allocations as the same trace without V (the
// fixed cost: buffers, the kind table, per-section state).
func TestDecodeTraceValueAllocs(t *testing.T) {
	decodeAllocs := func(v float64) float64 {
		var bin bytes.Buffer
		bt := NewBinaryTracer(&bin)
		for i := 0; i < 2000; i++ {
			bt.Observe(Event{Kind: DESDeparture, Time: float64(i), A: 3, V: v})
		}
		if err := bt.Flush(); err != nil {
			t.Fatal(err)
		}
		data := bin.Bytes()
		return testing.AllocsPerRun(5, func() {
			if err := DecodeTrace(bytes.NewReader(data), io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	without, with := decodeAllocs(0), decodeAllocs(0.25)
	if with > without {
		t.Errorf("decoding 2000 records with V allocates %.0f times, without V %.0f; reading V must not allocate", with, without)
	}
}

// TestSinkInterface: both tracers satisfy Sink through the facade's
// construction path, and a Sink used purely through the interface
// behaves like the concrete type.
func TestSinkInterface(t *testing.T) {
	var out strings.Builder
	var s Sink = NewTracer(&out)
	s.ForkRep(1).Observe(Event{Kind: DESArrival, Time: 2})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := "{\"rep\":1,\"kind\":\"des.arrival\",\"t\":2,\"a\":0,\"b\":0}\n"; out.String() != want {
		t.Errorf("Sink-driven tracer wrote %q, want %q", out.String(), want)
	}
	if err := s.Err(); err != nil {
		t.Errorf("Err() = %v, want nil", err)
	}
}
