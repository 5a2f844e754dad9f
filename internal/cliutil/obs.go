package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gtlb"
)

// TraceFlags bundles the event-trace flags shared by every run driver:
// -trace names the output file and -trace-format picks the encoding the
// tracer flushes (jsonl, the golden-testable default, or bin — the
// compact binary records it buffers, decoded with `lbtrace -decode`).
// One helper so
// lbsim, lbdyn and lbnode cannot drift apart in flag names, defaults or
// supported formats.
type TraceFlags struct {
	path   *string
	format *string

	file *os.File
}

// RegisterTraceFlags installs -trace and -trace-format on fs.
func RegisterTraceFlags(fs *flag.FlagSet) *TraceFlags {
	t := &TraceFlags{}
	t.path = fs.String("trace", "", "write the run's event trace to this file")
	t.format = fs.String("trace-format", "jsonl", "event trace format: jsonl or bin")
	return t
}

// Option opens the trace file (when -trace was given) and returns the
// facade option recording the run in the selected format, or nil when
// tracing is off. Call Close once the run is done.
func (t *TraceFlags) Option() (gtlb.Option, error) {
	if *t.path == "" {
		return nil, nil
	}
	var record func(io.Writer) gtlb.Option
	switch *t.format {
	case "jsonl":
		record = gtlb.WithTrace
	case "bin":
		record = gtlb.WithBinaryTrace
	default:
		return nil, fmt.Errorf("cliutil: unknown -trace-format %q (want jsonl or bin)", *t.format)
	}
	f, err := os.Create(*t.path)
	if err != nil {
		return nil, fmt.Errorf("cliutil: opening trace file: %w", err)
	}
	t.file = f
	return record(f), nil
}

// Close closes the trace file when one was opened. The close error
// matters: a failed flush here means a truncated trace file behind a
// success message.
func (t *TraceFlags) Close() error {
	if t.file == nil {
		return nil
	}
	return t.file.Close()
}

// ObsFlags bundles the observability flags shared by the run drivers:
// -metrics prints the run's metrics registry and -trace/-trace-format
// record the structured event stream (see TraceFlags).
type ObsFlags struct {
	metrics *bool
	trace   *TraceFlags

	reg *gtlb.Registry
}

// RegisterObsFlags installs -metrics, -trace and -trace-format on fs.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	o := &ObsFlags{}
	o.metrics = fs.Bool("metrics", false, "print the run's metrics registry when done")
	o.trace = RegisterTraceFlags(fs)
	return o
}

// Options opens the trace file (when requested) and returns the facade
// options wiring the observers in. Call Close once the run is done.
func (o *ObsFlags) Options() ([]gtlb.Option, error) {
	var opts []gtlb.Option
	o.reg = gtlb.NewRegistry()
	if *o.metrics {
		opts = append(opts, gtlb.WithObserver(o.reg))
	}
	traceOpt, err := o.trace.Option()
	if err != nil {
		return nil, err
	}
	if traceOpt != nil {
		opts = append(opts, traceOpt)
	}
	return opts, nil
}

// Report prints the metrics registry to stdout when -metrics was set,
// in the shared exposition format.
func (o *ObsFlags) Report() {
	if o.reg != nil && *o.metrics {
		fmt.Println()
		//lint:ignore errcheck stdout exposition as the run exits
		WriteRegistry(os.Stdout, o.reg)
	}
}

// Close closes the trace file when one was opened.
func (o *ObsFlags) Close() error {
	return o.trace.Close()
}
