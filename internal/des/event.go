// Package des is a discrete-event simulator of the paper's experimental
// environment (§3.4.1, §4.4.1): jobs arrive at a central dispatcher,
// which routes each one to a computer according to the load-balancing
// scheme's allocation fractions; every computer serves its queue in FCFS
// order, run-to-completion (no preemption); runs are replicated with
// independent random streams and the results averaged. It replaces the
// Sim++ C++ package the paper used (see DESIGN.md, Substitutions).
package des

import "math"

// eventKind discriminates the simulator's event types.
type eventKind uint8

// The static engine keeps arrivals and departures out of the heap (see
// runOnce), so only its failures and repairs are events.
const (
	evFail   eventKind = iota // a computer breaks down
	evRepair                  // a broken computer comes back up
)

// noJob marks events that carry no job (failures, repairs, dynamic
// arrivals) and computers with no job in service.
const noJob jobID = -1

// event is a scheduled occurrence in virtual time. seq breaks ties so
// simultaneous events fire in schedule order, keeping runs deterministic.
//
// The struct is a 32-byte value — jobs are arena indices, not pointers —
// so the pending-event set lives in one flat slice with no per-event
// heap allocation and no interface boxing (the cost the old
// container/heap implementation paid on every Push and Pop).
type event struct {
	time   float64
	seq    uint64
	job    jobID // arena index of the job concerned, or noJob
	server int32 // which computer (dynamic arrivals: the home computer)
	kind   eventKind
}

func (e event) stamp() stamp { return stampOf(e.time, e.seq) }

// before is the simulator's total event order: primarily virtual time,
// with the monotone sequence number breaking exact-time ties in schedule
// order.
func (e event) before(f event) bool {
	//lint:ignore floatcmp exact tie-break: equal times must fall through to seq for determinism
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// eventHeap is a hand-inlined 4-ary min-heap of event values ordered by
// (time, seq). A 4-ary layout halves the tree depth of the classic
// binary heap, trading a slightly wider sift-down for far fewer
// cache-missing levels — the standard d-ary pending-event-set design of
// DES engines (Sim++ lineage). Only the backing slice ever allocates,
// and only while growing to the replication's high-water mark.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func (h *eventHeap) push(e event) {
	//lint:ignore allocfree amortized growth to the heap's high-water event count; capacity is retained across pops
	h.ev = append(h.ev, e)
	// Sift up.
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h.ev[i].before(h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	root := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	// Sift down.
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h.ev[c].before(h.ev[min]) {
				min = c
			}
		}
		if !h.ev[min].before(h.ev[i]) {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return root
}

// scheduler wraps the heap with a monotone sequence counter.
type scheduler struct {
	q   eventHeap
	seq uint64
}

func (s *scheduler) schedule(t float64, kind eventKind, server int, j jobID) {
	s.seq++
	s.q.push(event{time: t, seq: s.seq, kind: kind, server: int32(server), job: j})
}

func (s *scheduler) next() event {
	return s.q.pop()
}

// peek returns the minimum pending event without removing it. Only valid
// when the heap is non-empty.
func (s *scheduler) peek() event { return s.q.ev[0] }

// nextSeq claims the next sequence number for an event tracked outside
// the heap: the static engine's pending arrival and its departure slots
// take their places in the same (time, seq) order as heap events.
func (s *scheduler) nextSeq() uint64 {
	s.seq++
	return s.seq
}

func (s *scheduler) empty() bool { return s.q.len() == 0 }

// stamp is an event's place in the (time, seq) order, with the time
// held as its IEEE-754 bits. For non-negative times the uint64 bits
// order exactly as the float64 values do, +Inf included, so the order
// costs two integer compares. The sign bit is cleared, which folds -0
// onto +0, the value it compares equal to.
type stamp struct {
	key uint64 // math.Float64bits(time) with the sign bit cleared
	seq uint64
}

// noStamp is the key of an empty departure slot: above the key of every
// time, since a cleared sign bit keeps real keys below 1<<63.
const noStamp = ^uint64(0)

func stampOf(t float64, seq uint64) stamp {
	return stamp{key: math.Float64bits(t) &^ (1 << 63), seq: seq}
}

func (a stamp) before(b stamp) bool {
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

func (a stamp) time() float64 { return math.Float64frombits(a.key) }

// departure is one computer's pending departure in the winner tree.
type departure struct {
	stamp
	server int32
}

// departures holds the static engine's pending departures: a computer
// serves one job at a time, so it has at most one, and it lives in the
// computer's slot instead of the event heap. A winner tree over the
// slots keeps the earliest at the root: node[size+i] is computer i's
// slot and every inner node holds the earlier of its two children, so
// writing a slot re-plays only the log2(size) matches on its path.
// An empty slot holds noStamp, so it never wins against a pending one.
type departures struct {
	node []departure
	size int // leaves: the computer count rounded up to a power of two
}

func newDepartures(n int) departures {
	size := 1
	for size < n {
		size <<= 1
	}
	d := departures{node: make([]departure, 2*size), size: size}
	for k := range d.node {
		d.node[k].key = noStamp
	}
	for i := 0; i < size; i++ {
		d.node[size+i].server = int32(i)
	}
	return d
}

// next returns the earliest pending departure; its key is noStamp when
// no computer is busy.
func (d *departures) next() departure { return d.node[1] }

// set makes computer i's pending departure the one at (t, seq).
func (d *departures) set(i int, t float64, seq uint64) {
	k := d.size + i
	d.node[k].stamp = stampOf(t, seq)
	d.replay(k)
}

// clear empties computer i's slot: it idles, or it failed with a job in
// service.
func (d *departures) clear(i int) {
	k := d.size + i
	d.node[k].key = noStamp
	d.replay(k)
}

// replay re-plays the matches on the path from leaf k to the root.
func (d *departures) replay(k int) {
	for k > 1 {
		l, r := d.node[k&^1], d.node[k|1]
		k >>= 1
		if r.before(l.stamp) {
			l = r
		}
		d.node[k] = l
	}
}
