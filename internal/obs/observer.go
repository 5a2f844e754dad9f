package obs

// Observer receives events. Implementations must be safe for concurrent
// use unless obtained from ForkRep (a per-replication fork is only ever
// driven by the goroutine running that replication).
//
// The disabled observer is a nil Observer, not a no-op value: emission
// sites guard with `if o != nil` (or the Emit/Count helpers below), so
// the off path is a single predicted branch with zero allocations. Code
// threads the caller's observer down and passes nil when there is none.
type Observer interface {
	Observe(Event)
}

// multi fans events out to several observers.
type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// ForkRep implements RepForker by forking every member that supports
// forking and keeping the rest shared.
func (m multi) ForkRep(rep int) Observer {
	forked := make(multi, len(m))
	for i, o := range m {
		forked[i] = ForkRep(o, rep)
	}
	return forked
}

// Multi combines observers into one. Nil members are dropped; a result
// with zero members is nil and with one member is that member, so the
// combination adds no indirection it does not need.
func Multi(os ...Observer) Observer {
	var kept multi
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// RepForker is implemented by observers that want one sink per
// simulation replication (the Tracer does, so per-replication event
// streams serialize independently of worker scheduling). Run loops call
// ForkRep (the package function) once per replication before the worker
// pool starts; each fork is then driven only by that replication's
// goroutine.
type RepForker interface {
	ForkRep(rep int) Observer
}

// ForkRep returns o's fork for the given replication when o supports
// forking, and o itself otherwise. A nil o stays nil.
func ForkRep(o Observer, rep int) Observer {
	if f, ok := o.(RepForker); ok {
		return f.ForkRep(rep)
	}
	return o
}

// Emit sends e to o if o is non-nil. Prefer the literal `if o != nil`
// guard in hot loops (it keeps event construction off the disabled
// path); Emit is for call sites where clarity wins over the last
// nanosecond.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// Count records one occurrence of kind k against o if o is non-nil.
func Count(o Observer, k Kind) {
	if o != nil {
		o.Observe(Event{Kind: k})
	}
}

// CountN records n occurrences of kind k against o if o is non-nil and
// n is positive.
func CountN(o Observer, k Kind, n int64) {
	if o != nil && n > 0 {
		o.Observe(Event{Kind: k, N: n})
	}
}
