package des

// This file holds the allocation-free storage of the simulator's inner
// loop. The old core paid one heap allocation per arriving job (&job{})
// plus a slice re-header per FCFS pop and a fresh slice per failure
// interrupt; at ~10^6 jobs per replication the garbage collector, not
// the event logic, dominated the profile. Jobs now live in an arena —
// a flat slice addressed by int32 index with a free list — and every
// per-computer FCFS queue is a ring-buffer deque of those indices, so
// push/pop/prepend are O(1) and the only allocations left are the
// amortized growth of the backing arrays, which stops once the
// replication reaches its high-water mark.

// jobID indexes a job inside a replication's arena. IDs are recycled
// through the free list after the job departs, so they are only
// meaningful between alloc and release.
type jobID = int32

// arenaJob is the per-job state the simulator tracks: who owns it and
// when it entered the system.
type arenaJob struct {
	arrival float64
	user    int32
}

// jobArena is an index-addressed job store with slot recycling.
type jobArena struct {
	jobs []arenaJob
	free []jobID
}

// alloc claims a slot (recycled if possible) and returns its ID.
func (a *jobArena) alloc(user int32, arrival float64) jobID {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.jobs[id] = arenaJob{user: user, arrival: arrival}
		return id
	}
	//lint:ignore allocfree amortized growth to the replication's high-water job count; steady state recycles free slots and stops allocating
	a.jobs = append(a.jobs, arenaJob{user: user, arrival: arrival})
	return jobID(len(a.jobs) - 1)
}

// release returns a departed job's slot to the free list.
func (a *jobArena) release(id jobID) {
	//lint:ignore allocfree the free list reuses capacity vacated by alloc; growth is amortized to the high-water mark
	a.free = append(a.free, id)
}

// jobRing is a ring-buffer deque of job IDs: the FCFS queue of one
// computer. pushBack/popFront serve the normal arrival/service order,
// pushFront re-queues a job interrupted by a failure, popBack lets the
// dynamic mode's receiver-initiated policies steal the newest waiting
// job. All operations are O(1); the buffer doubles on overflow and is
// never shrunk, so a steady-state replication stops allocating.
//
// len(buf) is zero or a power of two (grow starts at 8 and doubles), so
// a position wraps with a mask, & (len(buf)-1), instead of a division.
type jobRing struct {
	buf  []jobID
	head int // index of the first element
	n    int // number of elements
}

func (q *jobRing) len() int { return q.n }

// grow doubles the buffer, unrolling the ring into index order.
func (q *jobRing) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	//lint:ignore allocfree doubling to the queue's high-water length; the buffer never shrinks, so steady state stops growing
	next := make([]jobID, size)
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)&mask]
	}
	q.buf = next
	q.head = 0
}

func (q *jobRing) pushBack(id jobID) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = id
	q.n++
}

func (q *jobRing) pushFront(id jobID) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = id
	q.n++
}

func (q *jobRing) popFront() jobID {
	id := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return id
}

func (q *jobRing) popBack() jobID {
	q.n--
	return q.buf[(q.head+q.n)&(len(q.buf)-1)]
}
