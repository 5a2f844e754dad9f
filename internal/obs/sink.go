package obs

// Sink is a trace destination: an Observer that buffers the run's
// events and writes them in deterministic order on Flush. It is the
// surface the facade's trace options construct against — callers pick
// a flush encoding (JSONL via NewTracer, binary via NewBinaryTracer),
// every downstream layer sees only this interface.
//
// The contract the Tracer carries, whatever the flush encoding:
//
//   - ForkRep hands out one private sub-sink per simulation replication
//     before the worker pool starts (see RepForker); forked streams
//     append lock-free and Flush concatenates them root-first, then in
//     ascending replication order — so for a fixed seed the flushed
//     byte stream is identical at any worker count.
//   - Flush writes the buffered trace and resets the buffers (pooled
//     pages return to the pool); it may be called more than once, each
//     call appending the records observed since the last.
//   - Write errors are sticky: the first one is kept and returned by
//     every subsequent Flush and by Err.
type Sink interface {
	Observer
	RepForker

	// Flush writes the buffered trace in deterministic order and
	// resets the buffers. It returns the first write error encountered
	// over the sink's lifetime.
	Flush() error

	// Err returns the first write error encountered by Flush.
	Err() error
}

// Compile-time check: the Tracer satisfies the Sink contract.
var _ Sink = (*Tracer)(nil)
