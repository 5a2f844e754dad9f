package obs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Decoder hard limits: a trace is untrusted input (fuzzed, truncated,
// corrupted), so every length that drives an allocation is bounded
// before use. Real traces sit far inside these.
const (
	maxKindTable = 1 << 12 // kinds in the header table
	maxNameLen   = 1 << 16 // bytes in one kind or node name
	maxRepMarker = 1 << 31 // replication index
)

// ErrBadTrace wraps every malformed-input failure from DecodeTrace, so
// callers can distinguish corrupt traces from I/O errors with
// errors.Is.
var ErrBadTrace = errors.New("obs: malformed binary trace")

// DecodeTrace reads a binary event trace (the NewBinaryTracer format)
// from r and writes the equivalent JSONL to w. The output is
// byte-for-byte what NewTracer would have flushed for the same event
// streams — its Flush decodes the buffered sections with the same
// decodeSection; here the kind names come from the trace's own header
// table — so goldens, diffs and downstream tools
// built on the JSONL format consume binary traces unchanged through
// this one hop. Empty input decodes to empty output. Malformed input
// returns an error wrapping ErrBadTrace; it never panics.
func DecodeTrace(r io.Reader, w io.Writer) error {
	br := bufio.NewReader(r)
	if _, err := br.Peek(1); err == io.EOF {
		return nil // an empty trace encodes to zero bytes
	}
	c := &cursor{src: bufChunks{br}, frame: unframed}
	var magic [4]byte
	if err := c.read(magic[:]); err != nil {
		return badTrace("reading magic: %v", err)
	}
	if magic != traceMagic {
		return badTrace("bad magic %q (want %q version %d)", magic[:3], traceMagic[:3], traceMagic[3])
	}
	names, err := readKindTable(c)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	for {
		marker, err := c.uvarint()
		if err == io.EOF {
			break // clean end between sections
		}
		if err != nil {
			return badTrace("reading section marker: %v", err)
		}
		if marker > maxRepMarker {
			return badTrace("section replication marker %d out of range", marker)
		}
		length, err := c.uvarint()
		if err != nil {
			return badTrace("reading section length: %v", err)
		}
		if scratch, err = decodeSection(c, bw, names, int(marker)-1, length, scratch); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: writing decoded trace: %w", err)
	}
	return nil
}

// readKindTable reads the header's interned kind names.
func readKindTable(c *cursor) ([]string, error) {
	count, err := c.uvarint()
	if err != nil {
		return nil, badTrace("reading kind table size: %v", err)
	}
	if count == 0 || count > maxKindTable {
		return nil, badTrace("kind table size %d out of range", count)
	}
	names := make([]string, count)
	for i := range names {
		if names[i], err = c.readString("kind name"); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// decodeSection decodes one section's records and emits their JSONL.
// rep is -1 for the root section. The section's byte length frames it:
// reads past the frame are corruption, not the next section. c reads
// the trace file in DecodeTrace and a buffered stream's pages in a
// JSONL Tracer's Flush.
func decodeSection(c *cursor, bw *bufio.Writer, names []string, rep int, length uint64, scratch []byte) ([]byte, error) {
	c.frame, c.framed = length, true
	defer func() { c.frame, c.framed = unframed, false }()
	var prevBits uint64
	var nodes []string
	for c.frame > 0 {
		op, err := c.ReadByte()
		if err != nil {
			return scratch, badTrace("reading record opcode: %v", err)
		}
		if op == opDefNode {
			name, err := c.readString("node label")
			if err != nil {
				return scratch, err
			}
			nodes = append(nodes, name)
			continue
		}
		kindIdx := int(op) - 1
		if kindIdx >= len(names) {
			return scratch, badTrace("event kind index %d outside the %d-entry table", kindIdx, len(names))
		}
		flags, err := c.ReadByte()
		if err != nil {
			return scratch, badTrace("reading event flags: %v", err)
		}
		if flags&^(flagA|flagB|flagN|flagV|flagNode) != 0 {
			return scratch, badTrace("unknown event flags %#x (newer format?)", flags)
		}
		var e Event
		delta, err := c.uvarint()
		if err != nil {
			return scratch, badTrace("reading timestamp delta: %v", err)
		}
		prevBits += uint64(unzigzag(delta))
		e.Time = math.Float64frombits(prevBits)
		if flags&flagA != 0 {
			v, err := c.uvarint()
			if err != nil {
				return scratch, badTrace("reading operand a: %v", err)
			}
			e.A = int32(unzigzag(v))
		}
		if flags&flagB != 0 {
			v, err := c.uvarint()
			if err != nil {
				return scratch, badTrace("reading operand b: %v", err)
			}
			e.B = int32(unzigzag(v))
		}
		if flags&flagN != 0 {
			v, err := c.uvarint()
			if err != nil {
				return scratch, badTrace("reading count n: %v", err)
			}
			e.N = int64(v)
		}
		if flags&flagV != 0 {
			bits, err := c.uint64LE()
			if err != nil {
				return scratch, badTrace("reading value v: %v", err)
			}
			e.V = math.Float64frombits(bits)
		}
		if flags&flagNode != 0 {
			id, err := c.uvarint()
			if err != nil {
				return scratch, badTrace("reading node id: %v", err)
			}
			if id == 0 || id > uint64(len(nodes)) {
				return scratch, badTrace("node id %d outside the %d-entry section table", id, len(nodes))
			}
			e.Node = nodes[id-1]
		}
		scratch = appendJSONLRecord(scratch[:0], names[kindIdx], e, rep)
		if _, err := bw.Write(scratch); err != nil {
			return scratch, fmt.Errorf("obs: writing decoded trace: %w", err)
		}
	}
	return scratch, nil
}

// chunkSource yields a byte stream a chunk at a time; io.EOF ends it.
// A cursor asks for the next chunk only once it has read the last.
type chunkSource interface {
	chunk() ([]byte, error)
}

// bufChunks hands out a bufio.Reader's buffered bytes in place.
type bufChunks struct{ br *bufio.Reader }

func (s bufChunks) chunk() ([]byte, error) {
	if _, err := s.br.Peek(1); err != nil {
		return nil, err
	}
	b, _ := s.br.Peek(s.br.Buffered()) // never fails: the bytes are buffered
	_, _ = s.br.Discard(len(b))        // never fails: the bytes are buffered
	return b, nil
}

// unframed is the frame between sections: no section limit applies.
const unframed = math.MaxUint64

// cursor reads a trace byte by byte from its current chunk, so each
// read is a plain slice access; the source is asked only when a chunk
// runs dry. frame is what the reads may still take: a section's
// remaining length, so a corrupt record fails as unexpected EOF instead
// of consuming the next section's bytes.
type cursor struct {
	cur    []byte // the unread rest of the current chunk
	src    chunkSource
	frame  uint64
	framed bool // inside a section, where the input's end is unexpected
}

// fill makes cur non-empty.
func (c *cursor) fill() error {
	for len(c.cur) == 0 {
		b, err := c.src.chunk()
		if err == io.EOF && c.framed {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		c.cur = b
	}
	return nil
}

// take consumes n bytes of the current chunk.
func (c *cursor) take(n int) {
	c.cur = c.cur[n:]
	c.frame -= uint64(n)
}

// ReadByte reads one byte; it makes the cursor an io.ByteReader.
func (c *cursor) ReadByte() (byte, error) {
	if len(c.cur) == 0 || c.frame == 0 {
		return c.slowByte()
	}
	b := c.cur[0]
	c.take(1)
	return b, nil
}

// slowByte is ReadByte at the end of a chunk or of the frame.
func (c *cursor) slowByte() (byte, error) {
	if c.frame == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if err := c.fill(); err != nil {
		return 0, err
	}
	b := c.cur[0]
	c.take(1)
	return b, nil
}

// uvarint reads an unsigned varint with binary.ReadUvarint's results,
// decoding it straight from the chunk when it cannot straddle a chunk
// or frame end.
func (c *cursor) uvarint() (uint64, error) {
	if len(c.cur) >= binary.MaxVarintLen64 && c.frame >= binary.MaxVarintLen64 {
		if v, n := binary.Uvarint(c.cur); n > 0 {
			c.take(n)
			return v, nil
		}
	}
	return binary.ReadUvarint(c)
}

// uint64LE reads 8 little-endian bytes.
func (c *cursor) uint64LE() (uint64, error) {
	if len(c.cur) >= 8 && c.frame >= 8 {
		v := binary.LittleEndian.Uint64(c.cur)
		c.take(8)
		return v, nil
	}
	var v uint64
	for i := 0; i < 8; i++ {
		b, err := c.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// read fills p with io.ReadFull's results, and fails as unexpected EOF
// when p overruns the frame.
func (c *cursor) read(p []byte) error {
	if uint64(len(p)) > c.frame {
		return io.ErrUnexpectedEOF
	}
	for n := 0; n < len(p); {
		if err := c.fill(); err != nil {
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		k := copy(p[n:], c.cur)
		c.take(k)
		n += k
	}
	return nil
}

// readString reads one uvarint-length-prefixed string.
func (c *cursor) readString(what string) (string, error) {
	l, err := c.uvarint()
	if err != nil {
		return "", badTrace("reading %s length: %v", what, err)
	}
	if l > maxNameLen || l > c.frame {
		return "", badTrace("%s length %d out of range", what, l)
	}
	buf := make([]byte, l)
	if err := c.read(buf); err != nil {
		return "", badTrace("reading %s: %v", what, err)
	}
	return string(buf), nil
}

// badTrace builds an ErrBadTrace-wrapping error.
func badTrace(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadTrace}, args...)...)
}
