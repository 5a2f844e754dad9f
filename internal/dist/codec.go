// Binary message codec: the one payload encoding every Message carries.
//
// Every payload type (lbm.* and hier.* here, and ctrl.Estimate
// through the exported WireEncoder/WireDecoder pair) has a hand-rolled
// binary encoding: one magic byte (0xB1), one wire-type byte, then
// varint integers, little-endian float64s and one-byte bools.
// Encoding appends into a pooled scratch buffer and copies the result
// into the Message's Data: in place when its capacity suffices, so a
// re-encode into a reused Message performs no allocation, and otherwise
// into one new slice of exactly the encoded length. Decoding into a
// reused payload struct performs none (slice fields are decoded into the
// target's existing capacity). Encode and Decode take only WireEncoder
// and WireDecoder values, so a payload without a wire encoding does not
// compile, and there is exactly one format on the wire.
//
// The TCP transport carries Data verbatim inside its frames (tcp.go);
// both layers are documented in DESIGN.md §Wire format.
package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codecMagic opens every encoded payload, so a stray or truncated Data
// slice is rejected before its wire-type byte is trusted.
const codecMagic = 0xB1

// Wire type ids. These are wire-format constants: never renumber,
// append only. Ids 1–7 belonged to the retired state-node NASH ring
// (token, query, rates, strategy, ping, eject, ack) and ids 18–19 to
// the retired mid-run join (hier.join, hier.join.ok); they stay
// unassigned, so no live decoder accepts a frame of that era.
const (
	wireReqBid byte = iota + 8
	wireBid
	wireAward
	wireHierToken
	wireHierPartial
	wireHierDown
	wireHierReq
	wireHierSync
	wireHierRow
	wireHierRows
)

// WireEstimate is reserved for ctrl.Estimate, whose codec lives in
// internal/ctrl (dist must not import it).
const WireEstimate byte = 20

// WireEncoder is implemented (with value receivers) by every payload
// Message.Encode accepts.
type WireEncoder interface {
	// WireID is the payload's wire-type id (the constants above).
	WireID() byte
	// AppendWire appends the encoded fields to b.
	AppendWire(b []byte) []byte
}

// WireDecoder is implemented (with pointer receivers) by the same
// payloads; DecodeWire reads the fields back through d, reusing the
// target's slice capacity, and leaves any error in d.
type WireDecoder interface {
	WireID() byte
	DecodeWire(d *WireDec)
}

// --- append helpers -------------------------------------------------

// AppendInt appends v as a signed varint (read back by WireDec.Int).
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendF64 appends f as 8 little-endian bytes (WireDec.F64).
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64s appends a uvarint length and the floats (WireDec.F64s),
// growing b once for the whole slice.
func AppendF64s(b []byte, s []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	off := len(b)
	b = append(b, make([]byte, 8*len(s))...)
	out := b[off:]
	for i, f := range s {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return b
}

func appendI32s(b []byte, s []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// AppendStr appends a uvarint length and the bytes of s (WireDec.Str).
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendRows(b []byte, rows [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = AppendF64s(b, r)
	}
	return b
}

// --- decoder --------------------------------------------------------

// WireDec is a bounds-checked cursor over a binary payload. All methods
// are no-ops once err is set, so DecodeWire bodies read fields
// unconditionally and check err once. Malformed input (truncation,
// oversized length prefixes) sets err; nothing panics — chaos-duplicated
// and fuzz-generated bytes reach these decoders.
type WireDec struct {
	b   []byte
	off int
	err error
}

func (d *WireDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("dist: wire: bad %s at offset %d", what, d.off)
	}
}

func (d *WireDec) remaining() int { return len(d.b) - d.off }

func (d *WireDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint.
func (d *WireDec) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return int(v)
}

func (d *WireDec) i32() int32 { return int32(d.Int()) }

// F64 reads a little-endian float64.
func (d *WireDec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *WireDec) bool_() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail("bool")
		return false
	}
	v := d.b[d.off] != 0
	d.off++
	return v
}

// sliceLen validates a length prefix against the bytes actually left
// (elemSize ≥ 1), so a corrupt prefix cannot drive a huge allocation.
func (d *WireDec) sliceLen(elemSize int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()/elemSize) {
		d.fail("length prefix")
		return 0
	}
	return int(n)
}

// F64s reads a float64 slice into dst's capacity. The length prefix is
// checked against the bytes left once, for the whole slice.
func (d *WireDec) F64s(dst []float64) []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	src := d.b[d.off : d.off+8*n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	d.off += 8 * n
	return dst
}

func (d *WireDec) i32s(dst []int32) []int32 {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.i32()
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}

// Str reads a length-prefixed string. It returns prev, without
// allocating, when the bytes spell prev.
func (d *WireDec) Str(prev string) string {
	n := d.sliceLen(1)
	if d.err != nil {
		return ""
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func (d *WireDec) rows(dst [][]float64) [][]float64 {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		next := make([][]float64, n)
		copy(next, dst)
		dst = next
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.F64s(dst[i])
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
}

// --- per-payload encodings ------------------------------------------

func (reqBidPayload) WireID() byte { return wireReqBid }
func (p reqBidPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Computer)
	return AppendInt(b, p.Attempt)
}
func (p *reqBidPayload) DecodeWire(d *WireDec) {
	p.Computer = d.Int()
	p.Attempt = d.Int()
}

func (bidPayload) WireID() byte { return wireBid }
func (p bidPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Computer)
	return AppendF64(b, p.Bid)
}
func (p *bidPayload) DecodeWire(d *WireDec) {
	p.Computer = d.Int()
	p.Bid = d.F64()
}

func (awardPayload) WireID() byte { return wireAward }
func (p awardPayload) AppendWire(b []byte) []byte {
	b = AppendF64(b, p.Load)
	return AppendF64(b, p.Payment)
}
func (p *awardPayload) DecodeWire(d *WireDec) {
	p.Load = d.F64()
	p.Payment = d.F64()
}

func (hierTokenPayload) WireID() byte { return wireHierToken }
func (p hierTokenPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Epoch)
	b = AppendInt(b, p.Hop)
	b = AppendF64(b, p.Norm)
	b = AppendF64(b, p.EndNorm)
	b = AppendF64s(b, p.Loads)
	return AppendF64s(b, p.End)
}
func (p *hierTokenPayload) DecodeWire(d *WireDec) {
	p.Epoch = d.Int()
	p.Hop = d.Int()
	p.Norm = d.F64()
	p.EndNorm = d.F64()
	p.Loads = d.F64s(p.Loads)
	p.End = d.F64s(p.End)
}

func (hierPartialPayload) WireID() byte { return wireHierPartial }
func (p hierPartialPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	b = AppendInt(b, p.Shard)
	b = AppendF64(b, p.Norm)
	b = AppendF64(b, p.EndNorm)
	b = AppendInt(b, p.Sweeps)
	b = AppendF64s(b, p.Loads)
	return appendI32s(b, p.Ejected)
}
func (p *hierPartialPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.Shard = d.Int()
	p.Norm = d.F64()
	p.EndNorm = d.F64()
	p.Sweeps = d.Int()
	p.Loads = d.F64s(p.Loads)
	p.Ejected = d.i32s(p.Ejected)
}

func (hierDownPayload) WireID() byte { return wireHierDown }
func (p hierDownPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	b = appendBool(b, p.Stop)
	b = AppendInt(b, p.Shard)
	b = AppendF64s(b, p.Loads)
	return AppendF64s(b, p.End)
}
func (p *hierDownPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.Stop = d.bool_()
	p.Shard = d.Int()
	p.Loads = d.F64s(p.Loads)
	p.End = d.F64s(p.End)
}

func (hierReqPayload) WireID() byte { return wireHierReq }
func (p hierReqPayload) AppendWire(b []byte) []byte {
	return AppendInt(b, p.Round)
}
func (p *hierReqPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
}

func (hierSyncPayload) WireID() byte { return wireHierSync }
func (p hierSyncPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Epoch)
	return AppendStr(b, p.Next)
}
func (p *hierSyncPayload) DecodeWire(d *WireDec) {
	p.Epoch = d.Int()
	p.Next = d.Str(p.Next)
}

func (hierRowPayload) WireID() byte { return wireHierRow }
func (p hierRowPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.User)
	b = AppendInt(b, p.Epoch)
	return AppendF64s(b, p.S)
}
func (p *hierRowPayload) DecodeWire(d *WireDec) {
	p.User = d.Int()
	p.Epoch = d.Int()
	p.S = d.F64s(p.S)
}

func (hierRowsPayload) WireID() byte { return wireHierRows }
func (p hierRowsPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	b = AppendInt(b, p.Shard)
	b = appendI32s(b, p.Users)
	b = appendI32s(b, p.Ejected)
	return appendRows(b, p.Rows)
}
func (p *hierRowsPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.Shard = d.Int()
	p.Users = d.i32s(p.Users)
	p.Ejected = d.i32s(p.Ejected)
	p.Rows = d.rows(p.Rows)
}
