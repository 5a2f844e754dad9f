package gtlb

import (
	"io"

	"gtlb/internal/dist"
	"gtlb/internal/obs"
)

// This file is the package's functional-options surface. Every run
// entry point (Simulate, SimulateDynamic, RunNashSharded, RunLBM, COOP)
// takes a trailing ...Option, so cross-cutting concerns — observation,
// tracing, fault injection, solver tuning — compose instead of forking
// new Run/RunWith/RunFrom variants per concern.

// Observer receives structured events from the simulator, the solvers
// and the distributed protocols; see the obs package for the event
// vocabulary. Pass one with WithObserver.
type Observer = obs.Observer

// Event is one observed occurrence (kind, virtual timestamp, operands).
type Event = obs.Event

// EventKind identifies what an Event reports.
type EventKind = obs.Kind

// Registry is a metrics observer: it folds events into named counters,
// gauges and latency histograms, and renders them with
// String(). The chaos.*, nash.* and lbm.* counter keys keep their
// historical names.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Sink is a trace destination: an Observer that buffers a run's events
// and writes them in deterministic order when flushed. The trace
// options construct against this interface. Run entry points flush
// WithTrace/WithBinaryTrace sinks automatically before returning.
type Sink = obs.Sink

// Tracer is the event recorder behind every Sink: it buffers each
// event as a compact binary record (varint-delta virtual timestamps,
// interned names, pooled pages) and flushes either that binary trace
// or, decoded, JSON Lines; for a fixed seed either output is
// byte-identical at any simulator worker count.
type Tracer = obs.Tracer

// NewTracer returns a tracer writing JSON Lines to w when flushed, one
// line per event. Run entry points flush tracers passed via
// WithObserver only if the caller does so; prefer WithTrace, which
// flushes automatically.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// BinaryTracer is another name for Tracer.
type BinaryTracer = obs.BinaryTracer

// NewBinaryTracer returns a tracer writing the compact binary trace
// format to w when flushed. Prefer WithBinaryTrace, which flushes
// automatically.
func NewBinaryTracer(w io.Writer) *BinaryTracer { return obs.NewBinaryTracer(w) }

// DecodeTrace converts a binary event trace (the WithBinaryTrace /
// NewBinaryTracer format) read from r into JSONL on w, byte-for-byte
// what the JSONL tracer would have written for the same run: the JSONL
// tracer flushes by decoding its records with the same decoder. The
// `lbtrace -decode` command wraps it.
func DecodeTrace(r io.Reader, w io.Writer) error { return obs.DecodeTrace(r, w) }

// Option configures one run of a gtlb entry point.
type Option func(*runOptions)

// runOptions accumulates the applied options.
type runOptions struct {
	observers []obs.Observer
	sinks     []obs.Sink
	plan      *FaultPlan
	shard     ShardOptions
	lbm       LBMOptions
	eps       float64
	maxIter   int
	resume    *Profile
}

// WithObserver attaches an observer to the run; repeated uses fan out.
// The entry points thread it through every layer they drive (the DES
// engine, the solvers, the protocol nodes, the chaos transport).
func WithObserver(o Observer) Option {
	return func(ro *runOptions) { ro.observers = append(ro.observers, o) }
}

// WithTrace records the run's events on w as JSON Lines, flushed
// (buffered, in deterministic order) before the entry point returns.
// Flush errors surface through the entry point's error result.
func WithTrace(w io.Writer) Option {
	return func(ro *runOptions) { ro.addSink(obs.NewTracer(w)) }
}

// WithBinaryTrace is WithTrace writing the compact binary trace format
// the tracer records in, without formatting it as JSON; convert it to
// the JSONL bytes with DecodeTrace or `lbtrace -decode`.
func WithBinaryTrace(w io.Writer) Option {
	return func(ro *runOptions) { ro.addSink(obs.NewBinaryTracer(w)) }
}

// addSink attaches a trace sink as an observer and marks it for the
// entry point's flush.
func (ro *runOptions) addSink(s obs.Sink) {
	ro.observers = append(ro.observers, s)
	ro.sinks = append(ro.sinks, s)
}

// WithFaultPlan wraps the entry point's network in the seeded chaos
// transport before the protocol runs; fault events reach the run's
// observers. Only the protocol entry points (RunNashSharded, RunLBM)
// use a network.
func WithFaultPlan(plan FaultPlan) Option {
	return func(ro *runOptions) { ro.plan = &plan }
}

// WithLBMOptions installs the LBM dispatcher's fault-tolerance options
// (bid deadline, retries, backoff, seed).
func WithLBMOptions(opts LBMOptions) Option {
	return func(ro *runOptions) { ro.lbm = opts }
}

// WithShardOptions installs the NASH protocol runtime's topology
// and fault-tolerance options (shard count, local sweep budget,
// watchdog, retries, deadline, seed).
func WithShardOptions(opts ShardOptions) Option {
	return func(ro *runOptions) { ro.shard = opts }
}

// WithEpsilon sets the convergence tolerance of iterative entry points
// (the NASH protocol's round-norm acceptance); non-positive keeps the
// default.
func WithEpsilon(eps float64) Option {
	return func(ro *runOptions) { ro.eps = eps }
}

// WithMaxIter bounds the iterations of iterative entry points;
// non-positive keeps the default.
func WithMaxIter(n int) Option {
	return func(ro *runOptions) { ro.maxIter = n }
}

// WithCheckpoint resumes the NASH protocol from a checkpointed strategy
// profile (e.g. the Profile of a run cut short by a crash or its round
// budget) instead of the NASH_P initialization. The profile must be
// feasible for the system.
func WithCheckpoint(checkpoint Profile) Option {
	return func(ro *runOptions) { ro.resume = &checkpoint }
}

// applyOptions folds the options into one runOptions.
func applyOptions(opts []Option) *runOptions {
	ro := &runOptions{}
	for _, o := range opts {
		if o != nil {
			o(ro)
		}
	}
	return ro
}

// observer combines the attached observers (nil when none).
func (ro *runOptions) observer() obs.Observer { return obs.Multi(ro.observers...) }

// network wraps n in the chaos transport when a fault plan was given.
func (ro *runOptions) network(n Network) Network {
	if ro.plan == nil {
		return n
	}
	return dist.NewChaosNetwork(n, *ro.plan, ro.observer())
}

// flush drains any WithTrace/WithBinaryTrace sinks, returning the
// first write error.
func (ro *runOptions) flush() error {
	var first error
	for _, s := range ro.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// finish merges a run error with trace-flush errors (the run error
// wins; a lost trace only surfaces when the run itself succeeded).
func (ro *runOptions) finish(err error) error {
	if ferr := ro.flush(); err == nil {
		err = ferr
	}
	return err
}
