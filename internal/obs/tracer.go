package obs

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Tracer is the event recorder behind every trace Sink. It records each
// event as one compact binary record (see binStream) and on Flush
// writes the buffered trace either as the binary trace format
// (NewBinaryTracer) or as JSON Lines (NewTracer), which it produces by
// decoding each buffered section with the decoder DecodeTrace uses. A
// decoded binary trace therefore equals the JSONL trace by
// construction: one record stream, one decoder, one JSON encoder
// (appendJSONLRecord).
//
// Determinism is the whole point: for a fixed seed the flushed bytes
// are identical at any simulator worker count, which is what makes
// traces diffable and golden-testable. Three mechanisms deliver that:
//
//  1. Per-replication streams. The simulator calls ForkRep once per
//     replication (see RepForker) before its worker pool starts; each
//     replication then appends to its own stream with no locking, and
//     Flush writes the root stream then the replication streams in
//     ascending replication order — the sequential order — regardless
//     of which worker ran which replication when.
//  2. Deterministic encoding. Records have a fixed layout, and the JSON
//     encoder a fixed field order, strconv shortest round-trip floats
//     and a field-omission rule that is a pure function of the event.
//  3. Events carry virtual time. Nothing in a record depends on when
//     it was written.
//
// Events observed directly on the Tracer (protocol traffic from
// concurrent goroutines, solver iterations) go to the root stream under
// a mutex in observation order, which for concurrent emitters is
// schedule-dependent: byte-identical output is guaranteed only for the
// forked streams and for single-goroutine emitters.
//
// Streams buffer on pooled pages (see pageBuf) that Flush returns to
// the pool. Write errors are sticky: the first one is kept and returned
// by Flush and Err.
type Tracer struct {
	mu         sync.Mutex
	w          io.Writer
	jsonl      bool // Flush decodes each section to JSON Lines
	root       binStream
	reps       map[int]*binStream
	err        error
	headerDone bool
	bw         *bufio.Writer // JSONL output buffer, made on the first flush
	scratch    []byte        // JSONL record scratch, reused across flushes
}

// BinaryTracer is the Tracer; the name is kept for callers that record
// the binary format.
type BinaryTracer = Tracer

// NewTracer returns a Sink writing the trace to w as JSON Lines on
// Flush, one line per event.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, jsonl: true, reps: map[int]*binStream{}}
}

// NewBinaryTracer returns a Sink writing the trace to w in the compact
// binary trace format on Flush. Decode with DecodeTrace (or
// `lbtrace -decode`), which reproduces NewTracer's output
// byte-for-byte.
func NewBinaryTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, reps: map[int]*binStream{}}
}

// Observe implements Observer: append one record to the root stream.
func (t *Tracer) Observe(e Event) {
	t.mu.Lock()
	t.root.Observe(e)
	t.mu.Unlock()
}

// ForkRep implements RepForker: return the replication's private sink,
// creating it on first use. Forks are handed out before the simulator's
// worker pool starts and each is then driven by one goroutine only, so
// their appends need no lock — each fork owns its page chain and
// encoder state until Flush collects them.
func (t *Tracer) ForkRep(rep int) Observer {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.reps[rep]
	if !ok {
		s = &binStream{}
		t.reps[rep] = s
	}
	return s
}

// Flush writes the buffered trace — the root section first, then each
// replication's section in ascending replication order — and returns
// the buffered pages to the pool. Empty streams write nothing, so a
// trace that observed nothing is zero bytes in either encoding (the
// binary header is written once per tracer, before its first section).
// It returns the first write error encountered (also sticky in Err).
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.writeSection(-1, &t.root)
	order := make([]int, 0, len(t.reps))
	for rep := range t.reps {
		order = append(order, rep)
	}
	sort.Ints(order)
	for _, rep := range order {
		t.writeSection(rep, t.reps[rep])
	}
	if t.err == nil && t.bw != nil {
		if err := t.bw.Flush(); err != nil {
			t.err = err
		}
	}
	return t.err
}

// Err returns the first write error encountered by Flush.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// writeSection writes one stream's records (root when rep < 0), then
// resets the stream. Skipped for empty streams and once a sticky error
// is set, but the pages recycle either way.
func (t *Tracer) writeSection(rep int, s *binStream) {
	if t.err == nil && s.pages.len() > 0 {
		if t.jsonl {
			t.writeJSONL(rep, s)
		} else {
			t.writeBinary(rep, s)
		}
	}
	s.reset()
}

// writeJSONL writes one stream as JSON Lines, decoding its pages in
// place.
func (t *Tracer) writeJSONL(rep int, s *binStream) {
	if t.bw == nil {
		t.bw = bufio.NewWriterSize(t.w, pageSize)
	}
	var err error
	t.scratch, err = decodeSection(&cursor{src: &pageChunks{p: &s.pages}}, t.bw, kindNames[:], rep, uint64(s.pages.len()), t.scratch)
	if err != nil {
		t.err = err
	}
}

// writeBinary writes one stream as a length-framed binary section.
func (t *Tracer) writeBinary(rep int, s *binStream) {
	t.writeHeader()
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(rep+1))
	n += binary.PutUvarint(hdr[n:], uint64(s.pages.len()))
	t.write(hdr[:n])
	if t.err == nil {
		if err := s.pages.writeTo(t.w); err != nil {
			t.err = err
		}
	}
}

// writeHeader writes the magic and the kind table, once per tracer.
func (t *Tracer) writeHeader() {
	if t.headerDone {
		return
	}
	t.headerDone = true
	t.write(traceMagic[:])
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(kindCount))]...)
	for _, name := range kindNames {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(name)))]...)
		buf = append(buf, name...)
	}
	t.write(buf)
}

// write performs one sticky-error write.
func (t *Tracer) write(b []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// appendJSONLRecord appends one event as a JSON line to dst and returns
// the extended slice. Field order is fixed: rep (forked records only),
// kind, t, a, b, then n (only when > 1), v (only when nonzero) and node
// (only when nonempty) — the omission rule depends on the event alone,
// never on encoder state, so identical event streams encode to
// identical bytes. The kind name is a parameter (not read off e.Kind)
// because the decoder takes names from the trace's own kind table.
func appendJSONLRecord(dst []byte, name string, e Event, rep int) []byte {
	b := dst
	b = append(b, '{')
	if rep >= 0 {
		b = append(b, `"rep":`...)
		b = strconv.AppendInt(b, int64(rep), 10)
		b = append(b, ',')
	}
	b = append(b, `"kind":"`...)
	b = append(b, name...)
	b = append(b, `","t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', -1, 64)
	b = append(b, `,"a":`...)
	b = strconv.AppendInt(b, int64(e.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(e.B), 10)
	if e.N > 1 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, e.N, 10)
	}
	if e.V != 0 {
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, e.V, 'g', -1, 64)
	}
	if e.Node != "" {
		b = append(b, `,"node":`...)
		b = strconv.AppendQuote(b, e.Node)
	}
	b = append(b, '}', '\n')
	return b
}
