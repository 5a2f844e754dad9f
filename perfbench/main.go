// Command perfbench is the repository's end-to-end benchmark. One
// process runs one named workload — the paper's Table 3.1 simulation,
// sharded NASH to ε over the in-memory and the TCP transport, and the
// estimate→decision control loop — and prints its metrics:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --list
//
// With --trace 0 it measures the end-to-end metrics with no wrapper or
// observer anywhere. With --trace 1 it measures a plain phase and a
// traced phase, whose spans and counters sit in this benchmark's own
// calls into each layer (gtlb.Simulate/des, core.COOP,
// dist.Network/Conn, game.ShardedBestReply, noncoop.BestReplyInto,
// ctrl, queueing), and prints the per-layer metrics, a layer-budget
// report and the tracing overhead. Every workload's inputs are
// generated from --seed, and every op's output is checked; a failed
// check fails the op.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // measuring time of the run
	trace   bool
	quick   bool // tiny inputs, for the benchmark's own tests
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median, so one slow set-up does not move the figure.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see --list)")
	seed := fs.Uint64("seed", 1, "seed every input of the workload is generated from")
	seconds := fs.Float64("seconds", 10, "measuring time of the run in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	list := fs.Bool("list", false, "describe the workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		describe(stdout)
		return 0
	}
	w := lookup(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (see --list)\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := execute(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// bench is one workload, set up and ready to run ops.
type bench interface {
	// prepare does the untimed work due before the next op: a fresh
	// broker, or the next pass of the control stream.
	prepare() error
	// op runs and checks one timed operation; an error fails the op.
	op() error
	// finish runs the checks still due on ops already run, releases
	// everything the bench holds and reports the ops those checks
	// failed.
	finish() (failed int, err error)
	// traced measures the per-layer metrics for about the given time,
	// wrapping the bench's own calls into each layer, and returns them
	// with the layer-budget report and the traced phase's op samples.
	traced(seconds float64) (layers map[string]float64, budget string, s samples, err error)
}

// samples is the outcome of one measuring loop.
type samples struct {
	lat       []float64 // wall time of each op, in seconds
	attempted int
	failed    int
	wall      float64 // seconds spent inside ops and the loop around them, prepare excluded
	allocB    uint64  // heap bytes allocated by the loop, prepare included
}

// measure runs ops until the given time has passed inside the loop
// (at least one op).
func measure(b bench, seconds float64) (samples, error) {
	var s samples
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prepared time.Duration
	start := time.Now()
	for s.attempted == 0 || time.Since(start)-prepared < secondsDur(seconds) {
		p := time.Now()
		if err := b.prepare(); err != nil {
			return s, err
		}
		t0 := time.Now()
		prepared += t0.Sub(p)
		err := b.op()
		s.lat = append(s.lat, time.Since(t0).Seconds())
		s.attempted++
		if err != nil {
			s.failed++
			if s.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", s.attempted, err)
			}
		}
	}
	s.wall = (time.Since(start) - prepared).Seconds()
	runtime.ReadMemStats(&after)
	s.allocB = after.TotalAlloc - before.TotalAlloc
	return s, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the workload setupReps times, keeps the last bench and
// returns the median set-up time.
func setUp(w *workload, cfg config) (bench, float64, error) {
	var times []float64
	var b bench
	for r := 0; r < setupReps; r++ {
		if b != nil {
			if _, err := b.finish(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		nb, err := w.setup(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// result is what one invocation reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

func execute(w *workload, cfg config, out io.Writer) (result, error) {
	b, setupS, err := setUp(w, cfg)
	if err != nil {
		return result{}, err
	}
	var res result
	if !cfg.trace {
		s, err := measure(b, cfg.seconds)
		if err != nil {
			_, ferr := b.finish()
			return result{}, errors.Join(err, ferr)
		}
		late, err := b.finish()
		if err != nil {
			return result{}, err
		}
		s.failed += late
		res = result{attempted: s.attempted, failed: s.failed, metrics: endToEnd(setupS, s)}
		tail := tailPercentile(len(s.lat))
		fmt.Fprintf(out, "%s: %d ops (%d failed) in %.3f s, %.6g ops/s; op latency p50 %.6g ms, p%.4g %.6g ms over %d samples\n",
			w.name, s.attempted, s.failed, s.wall, float64(s.attempted)/s.wall,
			percentile(s.lat, 50)*1e3, tail, percentile(s.lat, tail)*1e3, len(s.lat))
	} else {
		plain, err := measure(b, cfg.seconds/2)
		if err != nil {
			_, ferr := b.finish()
			return result{}, errors.Join(err, ferr)
		}
		layers, budget, traced, err := b.traced(cfg.seconds / 2)
		if err != nil {
			_, ferr := b.finish()
			return result{}, errors.Join(err, ferr)
		}
		late, err := b.finish()
		if err != nil {
			return result{}, err
		}
		layers["trace_overhead"] = median(traced.lat) / median(plain.lat)
		res = result{
			attempted: plain.attempted + traced.attempted,
			failed:    plain.failed + traced.failed + late,
			metrics:   fillLayers(layers),
		}
		fmt.Fprintf(out, "%s: plain %d ops, p50 %.6g ms; traced %d ops, p50 %.6g ms; %d failed\n",
			w.name, plain.attempted, median(plain.lat)*1e3, traced.attempted, median(traced.lat)*1e3, res.failed)
		fmt.Fprint(out, budget)
	}
	res.correct = res.failed == 0
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", n, res.metrics[n], metricUnit(n))
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics from the set-up time and
// one untraced measuring loop. Throughput and the latency tail are
// printed but not reported: with one op in flight, ops per second is
// the inverse of the mean latency, and on a 2-vCPU host both it and
// the tail swung between runs by up to a quarter where the median
// moved least.
func endToEnd(setupS float64, s samples) map[string]float64 {
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       percentile(s.lat, 50) * 1e3,
		"alloc_mb_per_op": float64(s.allocB) / float64(s.attempted) / 1e6,
	}
}

// fillLayers returns every per-layer metric: those the workload
// measured, and 0 for the layers it bypasses.
func fillLayers(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		out[d.name] = m[d.name]
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r result) json() (string, error) {
	jr := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for n, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not a finite number (%g)", n, v)
		}
		jr.Metrics[n] = jsonMetric{Value: v, Unit: metricUnit(n)}
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
