package obs

import (
	"encoding/binary"
	"math"
)

// binStream is one ordered record stream (the root or one replication)
// with its per-section encoder state; a fork is its own Observer. Every
// trace records in this compact binary format, whichever encoding Flush
// writes: a fixed layout instead of JSON's repeated field names and
// float formatting, for a hot path of a few integer stores and one page
// copy.
//
// Wire layout (stable; bump the version byte to evolve it):
//
//	trace    = header section*
//	header   = magic "LBT" 0x01, kind table
//	table    = uvarint(count), count × (uvarint(len), name bytes)
//	section  = uvarint(rep+1; 0 = root), uvarint(byte length), record*
//	record   = defnode | event
//	defnode  = 0x00, uvarint(len), label bytes        (ids 1,2,… in order)
//	event    = opcode(kind index+1), flags,
//	           zigzag-uvarint(Float64bits(t) − previous bits),
//	           [zigzag a] [zigzag b] [uvarint n]
//	           [8-byte little-endian v] [uvarint node id]
//	flags    = bit0 a≠0, bit1 b≠0, bit2 n>1, bit3 v≠0, bit4 node≠""
//
// A stream's pages hold exactly the records of one section; the
// header and the section frame are added only when Flush writes the
// binary encoding. The header's kind table records every kind name
// once per trace, and event records carry a one-byte index into it — so
// the decoder reads names from the file, never from the compiled-in
// enum, and a trace outlives reorderings of the Kind constants. Node
// labels intern per section (defnode on first use, ids reset each
// flush), keeping every section self-contained. The timestamp delta is
// taken on the IEEE-754 bit pattern: monotone virtual clocks produce
// monotone bit patterns, so nearby times yield small varints, equal
// times yield one zero byte, and decoding reconstructs the float64
// exactly. Sections are framed with their byte length, which lets the
// decoder stream without lookahead.
type binStream struct {
	pages    pageBuf
	prevBits uint64            // previous timestamp's IEEE-754 bits
	nodes    map[string]uint64 // interned node labels, 1-based
}

// traceMagic opens every binary trace: "LBT" plus the format version.
var traceMagic = [4]byte{'L', 'B', 'T', 0x01}

// Record opcodes and flag bits.
const (
	opDefNode = 0x00 // interned-label definition; event opcodes are kind index+1

	flagA    = 1 << 0
	flagB    = 1 << 1
	flagN    = 1 << 2
	flagV    = 1 << 3
	flagNode = 1 << 4
)

// maxEventRecord bounds one encoded event record: opcode + flags + a
// 10-byte time varint + two 10-byte operands + a 10-byte count + an
// 8-byte float + a 10-byte node id.
const maxEventRecord = 2 + 10 + 10 + 10 + 10 + 8 + 10

// Observe appends one encoded event record to the stream.
func (s *binStream) Observe(e Event) {
	var nodeID uint64
	if e.Node != "" {
		nodeID = s.internNode(e.Node)
	}
	kind := e.Kind
	if kind >= kindCount {
		kind = KindUnknown
	}
	var tmp [maxEventRecord]byte
	tmp[0] = byte(kind) + 1
	n := 2 // flags filled in below
	var flags byte
	bits := math.Float64bits(e.Time)
	n += putZigzag(tmp[n:], int64(bits-s.prevBits))
	s.prevBits = bits
	if e.A != 0 {
		flags |= flagA
		n += putZigzag(tmp[n:], int64(e.A))
	}
	if e.B != 0 {
		flags |= flagB
		n += putZigzag(tmp[n:], int64(e.B))
	}
	if e.N > 1 {
		flags |= flagN
		n += binary.PutUvarint(tmp[n:], uint64(e.N))
	}
	if e.V != 0 {
		flags |= flagV
		binary.LittleEndian.PutUint64(tmp[n:], math.Float64bits(e.V))
		n += 8
	}
	if nodeID != 0 {
		flags |= flagNode
		n += binary.PutUvarint(tmp[n:], nodeID)
	}
	tmp[1] = flags
	s.pages.write(tmp[:n])
}

// internNode returns the label's id, emitting a defnode record on first
// use. The map allocates only on streams that actually carry node
// labels (protocol traffic); simulator streams never touch it.
func (s *binStream) internNode(name string) uint64 {
	if id, ok := s.nodes[name]; ok {
		return id
	}
	if s.nodes == nil {
		s.nodes = make(map[string]uint64, 8)
	}
	id := uint64(len(s.nodes)) + 1
	s.nodes[name] = id
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = opDefNode
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(name)))
	s.pages.write(hdr[:n])
	s.pages.writeString(name)
	return id
}

// reset clears the per-section encoder state after its pages flushed.
func (s *binStream) reset() {
	s.pages.free()
	s.prevBits = 0
	clear(s.nodes)
}

// putZigzag varint-encodes a signed value with the zigzag mapping
// (small magnitudes of either sign stay short).
func putZigzag(b []byte, v int64) int {
	return binary.PutUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// unzigzag inverts putZigzag's mapping.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}
