package obs

import (
	"io"
	"sync"
)

// Trace buffering runs on pooled fixed-size pages instead of
// bytes.Buffer: a tracer that records hundreds of thousands of events
// per run would otherwise grow a contiguous buffer through the doubling
// chain (allocating and copying ~2× the final trace size) and throw the
// whole thing away at the next run. Pages fix both ends: appends copy
// into the tail page with no reallocation ever, and Flush returns every
// page to a process-wide sync.Pool, so back-to-back traced runs reuse
// the same slabs instead of re-growing from zero. Every trace stream
// buffers through this mechanism — the root stream and every
// per-replication fork alike, in either flush encoding.
//
// Pages hold plain bytes with no record framing, so a record may span a
// page boundary; Flush reads pages in append order (pageChunks, or
// writeTo), which concatenates back to the exact byte stream.

// pageSize is the slab size. Large enough that per-page overhead
// (pool round-trips, Write syscalls on Flush) amortizes over thousands
// of records, small enough that a lightly-used stream does not pin
// megabytes.
const pageSize = 64 << 10

// tracePage is one pooled slab.
type tracePage [pageSize]byte

// pagePool recycles slabs across streams, tracers and runs.
var pagePool = sync.Pool{New: func() any { return new(tracePage) }}

// pageBuf is an append-only byte buffer backed by pooled pages. The
// zero value is ready to use. Not safe for concurrent use; streams
// that need locking lock above this layer.
type pageBuf struct {
	pages []*tracePage
	used  int // bytes used in the tail page
	total int // bytes buffered across all pages
}

// write appends b, splitting across page boundaries as needed.
//
//lb:hotpath
func (p *pageBuf) write(b []byte) {
	for len(b) > 0 {
		if p.used == pageSize || len(p.pages) == 0 {
			p.grow()
		}
		n := copy(p.pages[len(p.pages)-1][p.used:], b)
		p.used += n
		p.total += n
		b = b[n:]
	}
}

// writeString is write for string payloads (interned label definitions)
// without a []byte conversion.
//
//lb:hotpath
func (p *pageBuf) writeString(s string) {
	for len(s) > 0 {
		if p.used == pageSize || len(p.pages) == 0 {
			p.grow()
		}
		n := copy(p.pages[len(p.pages)-1][p.used:], s)
		p.used += n
		p.total += n
		s = s[n:]
	}
}

// grow appends a pooled page. Amortized: one call per pageSize bytes
// buffered, and the page usually comes from the pool, not the heap.
func (p *pageBuf) grow() {
	//lint:ignore allocfree amortized to one pooled-page fetch per 64 KiB buffered; steady state recycles flushed pages through pagePool
	p.pages = append(p.pages, pagePool.Get().(*tracePage))
	p.used = 0
}

// len reports the number of buffered bytes.
func (p *pageBuf) len() int { return p.total }

// page returns the buffered bytes of page i.
func (p *pageBuf) page(i int) []byte {
	if i == len(p.pages)-1 {
		return p.pages[i][:p.used]
	}
	return p.pages[i][:]
}

// writeTo writes the buffered bytes to w in order. It does not reset;
// callers pair it with free so pages recycle even after a write error.
func (p *pageBuf) writeTo(w io.Writer) error {
	for i := range p.pages {
		if _, err := w.Write(p.page(i)); err != nil {
			return err
		}
	}
	return nil
}

// pageChunks hands out a pageBuf's pages in append order, in place, so
// a JSONL Flush decodes each stream where it is buffered.
type pageChunks struct {
	p    *pageBuf
	next int // the next page to hand out
}

func (r *pageChunks) chunk() ([]byte, error) {
	if r.next == len(r.p.pages) {
		return nil, io.EOF
	}
	r.next++
	return r.p.page(r.next - 1), nil
}

// free returns every page to the pool and resets the buffer for reuse.
func (p *pageBuf) free() {
	for i, pg := range p.pages {
		pagePool.Put(pg)
		p.pages[i] = nil
	}
	p.pages = p.pages[:0]
	p.used = 0
	p.total = 0
}
