package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The same table is mirrored in
// BENCHMARK.json; the benchmark's tests keep the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// e2eMetrics are measured with tracing off, on every workload. An op
// is one Simulate call (sim-table31), one solve to ε (nash-mem,
// nash-tcp) or one estimate from encode to its decision (ctrl-loop).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},          // median of setupReps set-ups: inputs, COOP, network/broker/daemon, warm-up op
	{"op_p50_ms", "ms", "lower"},       // median op wall time
	{"alloc_mb_per_op", "MB", "lower"}, // heap bytes allocated per op (runtime.MemStats.TotalAlloc)
}

// layerMetrics come from the traced run. A workload reports 0 for a
// layer it bypasses.
var layerMetrics = []metricDef{
	// core and des, on sim-table31.
	{"core.coop_us", "us", "lower"},       // one COOP solve of the Table 3.1 system
	{"des.run_ms", "ms", "lower"},         // median span around gtlb.Simulate
	{"des.ns_per_event", "ns", "lower"},   // des.run_ms over the op's arrival and departure events
	{"des.jobs", "count", "higher"},       // Result.Jobs: measured completions per op
	{"des.arrivals", "count", "higher"},   // arrival events per op, from a counting observer
	{"des.departures", "count", "higher"}, // departure events per op
	{"des.budget_residual", "ratio", "lower"},
	// queueing draws timed in isolation at the op's draw counts.
	{"queueing.exp_ns", "ns", "lower"},
	{"queueing.alias_ns", "ns", "lower"},
	// nash-mem and nash-tcp: the protocol, the transport, the oracle.
	{"nash.rounds", "count", "lower"},
	{"nash.sweeps", "count", "lower"},
	{"dist.msgs", "count", "lower"},
	{"dist.bytes", "B", "lower"},
	{"dist.msgs_per_sweep", "count", "lower"},
	{"dist.send_busy_s", "s", "lower"},
	{"dist.send_ns_per_msg", "ns", "lower"},
	{"dist.recv_wait_s", "s", "lower"},
	{"dist.recv_timeouts", "count", "lower"},
	{"dist.recv_ok_ratio", "ratio", "higher"},
	{"dist.overhead_x", "ratio", "lower"},
	{"dist.budget_residual", "ratio", "lower"},
	{"game.oracle_ms", "ms", "lower"},
	{"noncoop.bestreply_ns", "ns", "lower"},
	{"noncoop.share", "ratio", "higher"},
	// ctrl-loop: codec, controller, checkpoint, daemon.
	{"ctrl.encode_us", "us", "lower"},
	{"ctrl.decode_us", "us", "lower"},
	{"ctrl.ingest_hold_us", "us", "lower"},
	{"ctrl.ingest_realloc_us", "us", "lower"},
	{"ctrl.checkpoint_us", "us", "lower"},
	{"ctrl.realloc_ratio", "ratio", "lower"},
	{"ctrl.daemon_residual_us", "us", "lower"},
	{"game.warm_sweeps", "count", "lower"},
	// Every workload: traced op median over untraced op median.
	{"trace_overhead", "ratio", "lower"},
}

func metricUnit(name string) string {
	for _, tab := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range tab {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest percentile, up to the 99th, that has
// about ten of n samples beyond it, and the median when none has: the
// 99th for the control loop's hundreds of thousands of decisions, about
// the 85th for the simulation's 65 calls. A run's maximum would swing
// with a single stall.
func tailPercentile(n int) float64 {
	p := 100 * (1 - 10/float64(n))
	return math.Max(50, math.Min(99, p))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
