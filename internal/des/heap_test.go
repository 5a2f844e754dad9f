package des

import (
	"container/heap"
	"reflect"
	"testing"

	"gtlb/internal/queueing"
)

// refEventQueue is the old container/heap implementation the value-typed
// 4-ary heap replaced, kept here as the property-test oracle: both heaps
// must pop the exact same (time, seq) total order for any schedule.
type refEventQueue []*event

func (q refEventQueue) Len() int { return len(q) }

func (q refEventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q refEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refEventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TestHeapMatchesReferenceOrder drives randomized interleaved
// push/pop schedules — with times drawn from a small discrete set so
// equal-time ties are frequent — through the 4-ary value heap and the
// container/heap oracle, and requires identical pop sequences.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 50; seed++ {
		rng := queueing.NewRNG(seed)
		h := &eventHeap{}
		ref := &refEventQueue{}
		var seq uint64
		var got, want []event

		ops := 200 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if h.len() == 0 || rng.Intn(3) > 0 {
				// Push: coarse times force seq tie-breaks; spread kinds
				// and servers to catch any payload shuffling.
				seq++
				e := event{
					time:   float64(rng.Intn(16)),
					seq:    seq,
					kind:   eventKind(rng.Intn(4)),
					server: int32(rng.Intn(8)),
					job:    jobID(rng.Intn(64)),
				}
				h.push(e)
				ec := e
				heap.Push(ref, &ec)
			} else {
				got = append(got, h.pop())
				want = append(want, *heap.Pop(ref).(*event))
			}
		}
		for h.len() > 0 {
			got = append(got, h.pop())
			want = append(want, *heap.Pop(ref).(*event))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: popped %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: pop %d = %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestHeapEqualTimeFIFO pins the tie-break directly: events pushed at
// the same virtual time must pop in schedule (seq) order.
func TestHeapEqualTimeFIFO(t *testing.T) {
	t.Parallel()
	h := &eventHeap{}
	const n = 100
	for i := 0; i < n; i++ {
		h.push(event{time: 1, seq: uint64(i + 1), job: jobID(i)})
	}
	for i := 0; i < n; i++ {
		e := h.pop()
		if e.seq != uint64(i+1) {
			t.Fatalf("pop %d: seq %d, want %d", i, e.seq, i+1)
		}
	}
}

// TestJobRingOrder checks the deque against a plain-slice model across
// randomized front/back operations.
func TestJobRingOrder(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 20; seed++ {
		rng := queueing.NewRNG(1000 + seed)
		var ring jobRing
		var model []jobID
		for op := 0; op < 500; op++ {
			switch v := rng.Intn(5); {
			case v == 0 && len(model) > 0:
				if got, want := ring.popFront(), model[0]; got != want {
					t.Fatalf("seed %d: popFront %d, want %d", seed, got, want)
				}
				model = model[1:]
			case v == 1 && len(model) > 0:
				if got, want := ring.popBack(), model[len(model)-1]; got != want {
					t.Fatalf("seed %d: popBack %d, want %d", seed, got, want)
				}
				model = model[:len(model)-1]
			case v == 2:
				ring.pushFront(jobID(op))
				model = append([]jobID{jobID(op)}, model...)
			default:
				ring.pushBack(jobID(op))
				model = append(model, jobID(op))
			}
			if ring.len() != len(model) {
				t.Fatalf("seed %d: len %d, want %d", seed, ring.len(), len(model))
			}
		}
	}
}

// TestJobRingWrap drives pushFront and popBack across the wrap point
// of a full-size buffer without growing it, so the masked indexing is
// what keeps the order.
func TestJobRingWrap(t *testing.T) {
	t.Parallel()
	var q jobRing
	for id := jobID(0); id < 8; id++ {
		q.pushBack(id)
	}
	for want := jobID(0); want < 6; want++ {
		if got := q.popFront(); got != want {
			t.Fatalf("popFront %d, want %d", got, want)
		}
	}
	// head is 6: two pushBacks wrap the tail onto slots 0 and 1, and
	// four pushFronts fill slots 5 down to 2.
	q.pushBack(8)
	q.pushBack(9)
	for id := jobID(10); id < 14; id++ {
		q.pushFront(id)
	}
	if len(q.buf) != 8 {
		t.Fatalf("buffer grew to %d; the wrap is not exercised", len(q.buf))
	}
	for _, want := range []jobID{9, 8, 7, 6, 10, 11, 12, 13} {
		if got := q.popBack(); got != want {
			t.Fatalf("popBack %d, want %d", got, want)
		}
	}
	// At head 0, pushFront wraps the head to the last slot.
	q = jobRing{}
	q.pushBack(1)
	q.pushFront(2)
	if q.head != len(q.buf)-1 {
		t.Fatalf("head %d after pushFront at 0, want %d", q.head, len(q.buf)-1)
	}
	for _, want := range []jobID{1, 2} {
		if got := q.popBack(); got != want {
			t.Fatalf("popBack %d, want %d", got, want)
		}
	}
}

// TestDeparturesMatchReferenceOrder drives the departure slots through
// the engine's own operation mix — a service start on an idle computer,
// a failure clearing a busy one, and a pop of the earliest departure
// whose slot is then overwritten by the next service start or cleared
// as the computer idles — next to the container/heap oracle, which
// cancels a cleared departure by removing it. Coarse times force seq
// tie-breaks. The slots must pop the oracle's exact order and never
// pop a departure of a cleared slot.
func TestDeparturesMatchReferenceOrder(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 16, 17} {
		for seed := uint64(0); seed < 30; seed++ {
			rng := queueing.NewRNG(uint64(n)<<32 | seed)
			d := newDepartures(n)
			ref := &refEventQueue{}
			pending := make([]*event, n) // the oracle's live departure per computer
			var seq uint64
			schedule := func(i int) {
				seq++
				e := &event{time: float64(rng.Intn(8)), seq: seq, server: int32(i)}
				d.set(i, e.time, e.seq)
				heap.Push(ref, e)
				pending[i] = e
			}
			cancel := func(i int) {
				d.clear(i)
				for k, e := range *ref {
					if e == pending[i] {
						heap.Remove(ref, k)
						break
					}
				}
				pending[i] = nil
			}
			pops := 0
			for op := 0; op < 400; op++ {
				i := rng.Intn(n)
				switch v := rng.Intn(4); {
				case v == 0 && pending[i] == nil:
					schedule(i)
				case v == 1 && pending[i] != nil:
					cancel(i)
				case ref.Len() > 0:
					want := heap.Pop(ref).(*event)
					got := d.next()
					if got.key == noStamp {
						t.Fatalf("n=%d seed %d: slots empty, oracle pops %+v", n, seed, *want)
					}
					if got.time() != want.time || got.seq != want.seq || got.server != want.server {
						t.Fatalf("n=%d seed %d pop %d: slot %d at (%v, %d), oracle %d at (%v, %d)",
							n, seed, pops, got.server, got.time(), got.seq, want.server, want.time, want.seq)
					}
					if pending[got.server] != want {
						t.Fatalf("n=%d seed %d: popped a departure of cleared slot %d", n, seed, got.server)
					}
					pops++
					pending[got.server] = nil
					if rng.Intn(2) == 0 {
						schedule(int(got.server))
					} else {
						d.clear(int(got.server))
					}
				}
			}
			if ref.Len() == 0 && d.next().key != noStamp {
				t.Fatalf("n=%d seed %d: oracle empty, slot %d still pending", n, seed, d.next().server)
			}
			if pops < 50 {
				t.Fatalf("n=%d seed %d: only %d pops", n, seed, pops)
			}
		}
	}
}
