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
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return badTrace("reading magic: %v", err)
	}
	if magic != traceMagic {
		return badTrace("bad magic %q (want %q version %d)", magic[:3], traceMagic[:3], traceMagic[3])
	}
	names, err := readKindTable(br)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var scratch []byte
	for {
		marker, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break // clean end between sections
		}
		if err != nil {
			return badTrace("reading section marker: %v", err)
		}
		if marker > maxRepMarker {
			return badTrace("section replication marker %d out of range", marker)
		}
		length, err := binary.ReadUvarint(br)
		if err != nil {
			return badTrace("reading section length: %v", err)
		}
		if scratch, err = decodeSection(br, bw, names, int(marker)-1, length, scratch); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: writing decoded trace: %w", err)
	}
	return nil
}

// readKindTable reads the header's interned kind names.
func readKindTable(br *bufio.Reader) ([]string, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, badTrace("reading kind table size: %v", err)
	}
	if count == 0 || count > maxKindTable {
		return nil, badTrace("kind table size %d out of range", count)
	}
	names := make([]string, count)
	for i := range names {
		if names[i], err = readString(br, "kind name"); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// readString reads one uvarint-length-prefixed string.
func readString(br *bufio.Reader, what string) (string, error) {
	l, err := binary.ReadUvarint(br)
	if err != nil {
		return "", badTrace("reading %s length: %v", what, err)
	}
	if l > maxNameLen {
		return "", badTrace("%s length %d out of range", what, l)
	}
	buf := make([]byte, l)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", badTrace("reading %s: %v", what, err)
	}
	return string(buf), nil
}

// decodeSection decodes one section's records and emits their JSONL.
// rep is -1 for the root section. The section's byte length frames it:
// reads past the frame are corruption, not the next section. br is the
// trace file's reader in DecodeTrace and a pageReader over a buffered
// stream in a JSONL Tracer's Flush.
func decodeSection(br byteReader, bw *bufio.Writer, names []string, rep int, length uint64, scratch []byte) ([]byte, error) {
	sr := &sectionReader{br: br, remaining: length}
	var prevBits uint64
	var nodes []string
	for sr.remaining > 0 {
		op, err := sr.ReadByte()
		if err != nil {
			return scratch, badTrace("reading record opcode: %v", err)
		}
		if op == opDefNode {
			name, err := sr.readString("node label")
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
		flags, err := sr.ReadByte()
		if err != nil {
			return scratch, badTrace("reading event flags: %v", err)
		}
		if flags&^(flagA|flagB|flagN|flagV|flagNode) != 0 {
			return scratch, badTrace("unknown event flags %#x (newer format?)", flags)
		}
		var e Event
		delta, err := binary.ReadUvarint(sr)
		if err != nil {
			return scratch, badTrace("reading timestamp delta: %v", err)
		}
		prevBits += uint64(unzigzag(delta))
		e.Time = math.Float64frombits(prevBits)
		if flags&flagA != 0 {
			v, err := binary.ReadUvarint(sr)
			if err != nil {
				return scratch, badTrace("reading operand a: %v", err)
			}
			e.A = int32(unzigzag(v))
		}
		if flags&flagB != 0 {
			v, err := binary.ReadUvarint(sr)
			if err != nil {
				return scratch, badTrace("reading operand b: %v", err)
			}
			e.B = int32(unzigzag(v))
		}
		if flags&flagN != 0 {
			v, err := binary.ReadUvarint(sr)
			if err != nil {
				return scratch, badTrace("reading count n: %v", err)
			}
			e.N = int64(v)
		}
		if flags&flagV != 0 {
			bits, err := sr.readUint64LE()
			if err != nil {
				return scratch, badTrace("reading value v: %v", err)
			}
			e.V = math.Float64frombits(bits)
		}
		if flags&flagNode != 0 {
			id, err := binary.ReadUvarint(sr)
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

// byteReader is what a section decodes from.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// sectionReader reads from the underlying reader while enforcing the
// section frame: reads beyond the declared length fail as unexpected
// EOF instead of consuming the next section's bytes.
type sectionReader struct {
	br        byteReader
	remaining uint64
}

func (s *sectionReader) ReadByte() (byte, error) {
	if s.remaining == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	b, err := s.br.ReadByte()
	if err == nil {
		s.remaining--
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// readUint64LE reads 8 little-endian bytes a byte at a time: a stack
// array handed to read would escape through io.ReadFull and cost an
// allocation per record.
func (s *sectionReader) readUint64LE() (uint64, error) {
	var v uint64
	for i := 0; i < 8; i++ {
		b, err := s.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

func (s *sectionReader) read(p []byte) error {
	if uint64(len(p)) > s.remaining {
		return io.ErrUnexpectedEOF
	}
	n, err := io.ReadFull(s.br, p)
	s.remaining -= uint64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (s *sectionReader) readString(what string) (string, error) {
	l, err := binary.ReadUvarint(s)
	if err != nil {
		return "", badTrace("reading %s length: %v", what, err)
	}
	if l > maxNameLen || l > s.remaining {
		return "", badTrace("%s length %d out of range", what, l)
	}
	buf := make([]byte, l)
	if err := s.read(buf); err != nil {
		return "", badTrace("reading %s: %v", what, err)
	}
	return string(buf), nil
}

// badTrace builds an ErrBadTrace-wrapping error.
func badTrace(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadTrace}, args...)...)
}
