// Binary message codec: the one payload encoding every Message carries.
//
// Every payload type (nash.*, lbm.*, hier.* here, and ctrl.Estimate
// through the exported WireEncoder/WireDecoder pair) has a hand-rolled
// binary encoding: one magic byte (0xB1), one wire-type byte, then
// varint integers, little-endian float64s and bit-packed bools.
// Encoding performs exactly one allocation (the Data slice, sized up
// front); decoding into a reused payload struct performs none (slice
// fields are decoded into the target's existing capacity). A value
// without a wire encoding is refused with ErrUnsupportedPayload rather
// than serialized some other way, so there is exactly one format on
// the wire.
//
// The TCP transport carries Data verbatim inside its frames (tcp.go);
// both layers are documented in DESIGN.md §Wire format.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// codecMagic opens every encoded payload, so a stray or truncated Data
// slice is rejected before its wire-type byte is trusted.
const codecMagic = 0xB1

// Wire type ids. These are wire-format constants: never renumber,
// append only.
const (
	wireToken byte = iota + 1
	wireQuery
	wireRates
	wireStrategy
	wirePing
	wireEject
	wireAck
	wireReqBid
	wireBid
	wireAward
	wireHierToken
	wireHierPartial
	wireHierDown
	wireHierReq
	wireHierSync
	wireHierRow
	wireHierRows
	wireHierJoin
	wireHierJoinOK
	// WireEstimate is reserved for ctrl.Estimate, whose codec lives in
	// internal/ctrl (dist must not import it).
	WireEstimate
)

// ErrUnsupportedPayload is returned (wrapped) by Message.Encode and
// Message.Decode for a value that does not implement the wire codec.
var ErrUnsupportedPayload = errors.New("dist: payload type has no wire encoding")

// WireEncoder is implemented (with value receivers) by every payload
// Message.Encode accepts.
type WireEncoder interface {
	// WireID is the payload's wire-type id (the constants above).
	WireID() byte
	// WireSize upper-bounds the encoded size so Encode allocates once.
	WireSize() int
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

// maxV is the worst-case encoded size of one varint field.
const maxV = binary.MaxVarintLen64

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

// AppendF64s appends a uvarint length and the floats (WireDec.F64s).
func AppendF64s(b []byte, s []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, f := range s {
		b = AppendF64(b, f)
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

// appendBools bit-packs the mask: the flat ring's token carries an
// m-wide ejection mask on every hop, so at m=10,000 this is 1.25 KB
// instead of 10 KB per forward.
func appendBools(b []byte, s []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	var acc byte
	for i, v := range s {
		if v {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(s)%8 != 0 {
		b = append(b, acc)
	}
	return b
}

// AppendStr appends a uvarint length and the bytes of s (WireDec.Str).
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, s []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = AppendStr(b, v)
	}
	return b
}

func appendRows(b []byte, rows [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = AppendF64s(b, r)
	}
	return b
}

func sizeF64s(s []float64) int { return maxV + 8*len(s) }
func sizeI32s(s []int32) int   { return maxV + maxV*len(s) }
func sizeBools(s []bool) int   { return maxV + (len(s)+7)/8 }
func sizeStr(s string) int     { return maxV + len(s) }
func sizeStrs(s []string) int {
	n := maxV
	for _, v := range s {
		n += sizeStr(v)
	}
	return n
}
func sizeRows(rows [][]float64) int {
	n := maxV
	for _, r := range rows {
		n += sizeF64s(r)
	}
	return n
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

// F64s reads a float64 slice into dst's capacity.
func (d *WireDec) F64s(dst []float64) []float64 {
	n := d.sliceLen(8)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.F64()
	}
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

func (d *WireDec) bools(dst []bool) []bool {
	n := d.uvarint()
	if d.err != nil {
		return dst
	}
	nb := (n + 7) / 8
	if nb > uint64(d.remaining()) {
		d.fail("bool mask length")
		return dst
	}
	if cap(dst) < int(n) {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += int(nb)
	return dst
}

// Str reads a length-prefixed string.
func (d *WireDec) Str() string {
	n := d.sliceLen(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *WireDec) strs(dst []string) []string {
	n := d.sliceLen(1)
	if d.err != nil {
		return dst
	}
	if cap(dst) < n {
		dst = make([]string, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.Str()
	}
	if d.err != nil {
		return dst[:0]
	}
	return dst
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

func (tokenPayload) WireID() byte { return wireToken }
func (p tokenPayload) WireSize() int {
	return 3*maxV + 8 + sizeBools(p.Ejected)
}
func (p tokenPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Iteration)
	b = AppendF64(b, p.Norm)
	b = AppendInt(b, p.Epoch)
	b = AppendInt(b, p.Hops)
	return appendBools(b, p.Ejected)
}
func (p *tokenPayload) DecodeWire(d *WireDec) {
	p.Iteration = d.Int()
	p.Norm = d.F64()
	p.Epoch = d.Int()
	p.Hops = d.Int()
	p.Ejected = d.bools(p.Ejected)
}

func (queryPayload) WireID() byte  { return wireQuery }
func (queryPayload) WireSize() int { return 2 * maxV }
func (p queryPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.User)
	return AppendInt(b, p.Seq)
}
func (p *queryPayload) DecodeWire(d *WireDec) {
	p.User = d.Int()
	p.Seq = d.Int()
}

func (ratesPayload) WireID() byte    { return wireRates }
func (p ratesPayload) WireSize() int { return maxV + sizeF64s(p.Avail) }
func (p ratesPayload) AppendWire(b []byte) []byte {
	b = AppendF64s(b, p.Avail)
	return AppendInt(b, p.Seq)
}
func (p *ratesPayload) DecodeWire(d *WireDec) {
	p.Avail = d.F64s(p.Avail)
	p.Seq = d.Int()
}

func (strategyPayload) WireID() byte    { return wireStrategy }
func (p strategyPayload) WireSize() int { return 2*maxV + sizeF64s(p.S) }
func (p strategyPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.User)
	b = AppendF64s(b, p.S)
	return AppendInt(b, p.Seq)
}
func (p *strategyPayload) DecodeWire(d *WireDec) {
	p.User = d.Int()
	p.S = d.F64s(p.S)
	p.Seq = d.Int()
}

func (pingPayload) WireID() byte                 { return wirePing }
func (pingPayload) WireSize() int                { return maxV }
func (p pingPayload) AppendWire(b []byte) []byte { return AppendInt(b, p.Seq) }
func (p *pingPayload) DecodeWire(d *WireDec)     { p.Seq = d.Int() }

func (ejectPayload) WireID() byte  { return wireEject }
func (ejectPayload) WireSize() int { return 2 * maxV }
func (p ejectPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.User)
	return AppendInt(b, p.Seq)
}
func (p *ejectPayload) DecodeWire(d *WireDec) {
	p.User = d.Int()
	p.Seq = d.Int()
}

func (ackPayload) WireID() byte                 { return wireAck }
func (ackPayload) WireSize() int                { return maxV }
func (p ackPayload) AppendWire(b []byte) []byte { return AppendInt(b, p.Seq) }
func (p *ackPayload) DecodeWire(d *WireDec)     { p.Seq = d.Int() }

func (reqBidPayload) WireID() byte  { return wireReqBid }
func (reqBidPayload) WireSize() int { return 2 * maxV }
func (p reqBidPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Computer)
	return AppendInt(b, p.Attempt)
}
func (p *reqBidPayload) DecodeWire(d *WireDec) {
	p.Computer = d.Int()
	p.Attempt = d.Int()
}

func (bidPayload) WireID() byte  { return wireBid }
func (bidPayload) WireSize() int { return maxV + 8 }
func (p bidPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Computer)
	return AppendF64(b, p.Bid)
}
func (p *bidPayload) DecodeWire(d *WireDec) {
	p.Computer = d.Int()
	p.Bid = d.F64()
}

func (awardPayload) WireID() byte  { return wireAward }
func (awardPayload) WireSize() int { return 16 }
func (p awardPayload) AppendWire(b []byte) []byte {
	b = AppendF64(b, p.Load)
	return AppendF64(b, p.Payment)
}
func (p *awardPayload) DecodeWire(d *WireDec) {
	p.Load = d.F64()
	p.Payment = d.F64()
}

func (hierTokenPayload) WireID() byte { return wireHierToken }
func (p hierTokenPayload) WireSize() int {
	return 4*maxV + 8 + sizeF64s(p.Loads)
}
func (p hierTokenPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Epoch)
	b = AppendInt(b, p.Hop)
	b = AppendInt(b, p.Round)
	b = AppendInt(b, p.Sweep)
	b = AppendF64(b, p.Norm)
	return AppendF64s(b, p.Loads)
}
func (p *hierTokenPayload) DecodeWire(d *WireDec) {
	p.Epoch = d.Int()
	p.Hop = d.Int()
	p.Round = d.Int()
	p.Sweep = d.Int()
	p.Norm = d.F64()
	p.Loads = d.F64s(p.Loads)
}

func (hierPartialPayload) WireID() byte { return wireHierPartial }
func (p hierPartialPayload) WireSize() int {
	return 5*maxV + 8 + sizeF64s(p.Loads) + sizeI32s(p.Ejected)
}
func (p hierPartialPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	b = AppendInt(b, p.MEpoch)
	b = AppendInt(b, p.Shard)
	b = AppendF64(b, p.Norm)
	b = AppendInt(b, p.Sweeps)
	b = AppendF64s(b, p.Loads)
	b = appendI32s(b, p.Ejected)
	return AppendInt(b, p.Seq)
}
func (p *hierPartialPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.MEpoch = d.Int()
	p.Shard = d.Int()
	p.Norm = d.F64()
	p.Sweeps = d.Int()
	p.Loads = d.F64s(p.Loads)
	p.Ejected = d.i32s(p.Ejected)
	p.Seq = d.Int()
}

func (hierDownPayload) WireID() byte { return wireHierDown }
func (p hierDownPayload) WireSize() int {
	return 3*maxV + 1 + 8 + sizeI32s(p.Active) + sizeF64s(p.Loads) + sizeI32s(p.EjectedShards) +
		sizeI32s(p.JoinUsers) + sizeI32s(p.JoinShards) + sizeStrs(p.JoinNames) + sizeF64s(p.JoinPhis)
}
func (p hierDownPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	b = AppendInt(b, p.MEpoch)
	b = appendBool(b, p.Stop)
	b = AppendF64(b, p.Norm)
	b = appendI32s(b, p.Active)
	b = AppendF64s(b, p.Loads)
	b = appendI32s(b, p.EjectedShards)
	b = appendI32s(b, p.JoinUsers)
	b = appendI32s(b, p.JoinShards)
	b = appendStrs(b, p.JoinNames)
	b = AppendF64s(b, p.JoinPhis)
	return AppendInt(b, p.Seq)
}
func (p *hierDownPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.MEpoch = d.Int()
	p.Stop = d.bool_()
	p.Norm = d.F64()
	p.Active = d.i32s(p.Active)
	p.Loads = d.F64s(p.Loads)
	p.EjectedShards = d.i32s(p.EjectedShards)
	p.JoinUsers = d.i32s(p.JoinUsers)
	p.JoinShards = d.i32s(p.JoinShards)
	p.JoinNames = d.strs(p.JoinNames)
	p.JoinPhis = d.F64s(p.JoinPhis)
	p.Seq = d.Int()
}

func (hierReqPayload) WireID() byte  { return wireHierReq }
func (hierReqPayload) WireSize() int { return 2 * maxV }
func (p hierReqPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Round)
	return AppendInt(b, p.Seq)
}
func (p *hierReqPayload) DecodeWire(d *WireDec) {
	p.Round = d.Int()
	p.Seq = d.Int()
}

func (hierSyncPayload) WireID() byte { return wireHierSync }
func (p hierSyncPayload) WireSize() int {
	return 2*maxV + sizeStr(p.Next)
}
func (p hierSyncPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Epoch)
	b = AppendInt(b, p.Seq)
	return AppendStr(b, p.Next)
}
func (p *hierSyncPayload) DecodeWire(d *WireDec) {
	p.Epoch = d.Int()
	p.Seq = d.Int()
	p.Next = d.Str()
}

func (hierRowPayload) WireID() byte { return wireHierRow }
func (p hierRowPayload) WireSize() int {
	return 3*maxV + 8 + sizeF64s(p.S)
}
func (p hierRowPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.User)
	b = AppendInt(b, p.Epoch)
	b = AppendInt(b, p.Seq)
	b = AppendF64(b, p.PrevTime)
	return AppendF64s(b, p.S)
}
func (p *hierRowPayload) DecodeWire(d *WireDec) {
	p.User = d.Int()
	p.Epoch = d.Int()
	p.Seq = d.Int()
	p.PrevTime = d.F64()
	p.S = d.F64s(p.S)
}

func (hierRowsPayload) WireID() byte { return wireHierRows }
func (p hierRowsPayload) WireSize() int {
	return 2*maxV + sizeI32s(p.Users) + sizeI32s(p.Ejected) + sizeRows(p.Rows)
}
func (p hierRowsPayload) AppendWire(b []byte) []byte {
	b = AppendInt(b, p.Shard)
	b = AppendInt(b, p.Seq)
	b = appendI32s(b, p.Users)
	b = appendI32s(b, p.Ejected)
	return appendRows(b, p.Rows)
}
func (p *hierRowsPayload) DecodeWire(d *WireDec) {
	p.Shard = d.Int()
	p.Seq = d.Int()
	p.Users = d.i32s(p.Users)
	p.Ejected = d.i32s(p.Ejected)
	p.Rows = d.rows(p.Rows)
}

func (hierJoinPayload) WireID() byte { return wireHierJoin }
func (p hierJoinPayload) WireSize() int {
	return maxV + 8 + sizeStr(p.Name)
}
func (p hierJoinPayload) AppendWire(b []byte) []byte {
	b = AppendStr(b, p.Name)
	b = AppendF64(b, p.Phi)
	return AppendInt(b, p.Seq)
}
func (p *hierJoinPayload) DecodeWire(d *WireDec) {
	p.Name = d.Str()
	p.Phi = d.F64()
	p.Seq = d.Int()
}

func (hierJoinOKPayload) WireID() byte { return wireHierJoinOK }
func (p hierJoinOKPayload) WireSize() int {
	return 3*maxV + 1 + sizeStr(p.Name) + sizeStr(p.Reason)
}
func (p hierJoinOKPayload) AppendWire(b []byte) []byte {
	b = AppendStr(b, p.Name)
	b = AppendInt(b, p.User)
	b = AppendInt(b, p.Shard)
	b = appendBool(b, p.Reject)
	b = AppendStr(b, p.Reason)
	return AppendInt(b, p.Seq)
}
func (p *hierJoinOKPayload) DecodeWire(d *WireDec) {
	p.Name = d.Str()
	p.User = d.Int()
	p.Shard = d.Int()
	p.Reject = d.bool_()
	p.Reason = d.Str()
	p.Seq = d.Int()
}
