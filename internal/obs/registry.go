package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry is the metrics side of the observability layer: it
// implements Observer by folding events into named counters (one per
// event kind, keyed by Kind.Name()), gauges (latest level of the
// convergence events) and fixed-bucket histograms (response times).
//
// Registry absorbs the old FaultCounters role: the chaos.*, nash.* and
// lbm.* keys, the snapshot format and the String() exposition carry
// over unchanged, sharing one namespace with the des.*, coop.*, fw.*
// and wardrop.* observability metrics.
//
// A Registry is safe for concurrent use. Unlike the Tracer it is
// deliberately shared across simulation replications (it does not
// implement RepForker): counter merging is commutative, so counts are
// deterministic at any worker count. Histogram sums are float
// accumulations and deterministic only up to reduction order.
//
// All methods are nil-receiver safe, so instrumented code can call
// them unconditionally: a nil *Registry reads as empty and drops
// writes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// Counter is one named counter value in a Snapshot.
type Counter struct {
	Name  string
	Value uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]uint64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Histogram{},
	}
}

// gaugeNames maps the convergence-trajectory kinds to the gauge that
// tracks their latest level.
var gaugeNames = map[Kind]string{
	CoopDrop:     "coop.level",
	CoopSolve:    "coop.level",
	NashRound:    "nash.norm",
	FWIter:       "fw.gap",
	WardropStep:  "wardrop.level",
	WardropSolve: "wardrop.level",
	CtrlRealloc:  "ctrl.moved",
	CtrlBacklog:  "ctrl.backlog.level",
	CtrlShed:     "ctrl.shed.rate",
}

// respTimeHist is the histogram fed by DESDeparture events.
const respTimeHist = "des.response_time"

// Observe implements Observer: count the event under its kind's name,
// track the latest level of convergence events as a gauge, and feed
// response times into the latency histogram.
func (r *Registry) Observe(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[e.Kind.Name()] += uint64(e.Count())
	r.mu.Unlock()
	if name, ok := gaugeNames[e.Kind]; ok {
		r.SetGauge(name, e.V)
	}
	if e.Kind == DESDeparture {
		r.ObserveLatency(respTimeHist, e.V)
	}
}

// Get returns a counter's current value (0 if never counted).
func (r *Registry) Get(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets a gauge to the given level.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns a gauge's current level and whether it was ever set.
func (r *Registry) Gauge(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// ObserveLatency records one value into the named histogram, creating
// it over DefaultLatencyBounds on first use.
func (r *Registry) ObserveLatency(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h, _ = NewHistogram(DefaultLatencyBounds()) // the default bounds are statically valid
		r.hists[name] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Histogram returns a snapshot of the named histogram and whether it
// exists.
func (r *Registry) Histogram(name string) (HistogramSnapshot, bool) {
	if r == nil {
		return HistogramSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// Snapshot returns the counters sorted by name — the same format the
// old FaultCounters exposed, so chaos artifacts keep their schema. A
// nil or counter-free registry returns a nil slice.
func (r *Registry) Snapshot() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		return nil
	}
	out := make([]Counter, 0, len(r.counters))
	for name, v := range r.counters {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// gaugeSnapshot returns the gauges sorted by name.
func (r *Registry) gaugeSnapshot() ([]string, []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, name := range names {
		vals[i] = r.gauges[name]
	}
	return names, vals
}

// histSnapshot returns the histograms sorted by name.
func (r *Registry) histSnapshot() ([]string, []HistogramSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]HistogramSnapshot, len(names))
	for i, name := range names {
		snaps[i] = r.hists[name].Snapshot()
	}
	return names, snaps
}

// Equal reports whether two registries observed the same events:
// identical counters, gauges (bitwise) and histogram bucket counts.
// Histogram sums are compared bitwise too — equality is meant for
// determinism checks replaying the same schedule, where even the
// reduction order matches.
func (r *Registry) Equal(o *Registry) bool {
	a, b := r.Snapshot(), o.Snapshot()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	gn, gv := registryGauges(r)
	on, ov := registryGauges(o)
	if len(gn) != len(on) {
		return false
	}
	for i := range gn {
		if gn[i] != on[i] || math.Float64bits(gv[i]) != math.Float64bits(ov[i]) {
			return false
		}
	}
	hn, hs := registryHists(r)
	hon, hos := registryHists(o)
	if len(hn) != len(hon) {
		return false
	}
	for i := range hn {
		if hn[i] != hon[i] || !snapshotsEqual(hs[i], hos[i]) {
			return false
		}
	}
	return true
}

func registryGauges(r *Registry) ([]string, []float64) {
	if r == nil {
		return nil, nil
	}
	return r.gaugeSnapshot()
}

func registryHists(r *Registry) ([]string, []HistogramSnapshot) {
	if r == nil {
		return nil, nil
	}
	return r.histSnapshot()
}

func snapshotsEqual(a, b HistogramSnapshot) bool {
	if a.N != b.N || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
}

// String renders the registry for logs and CLI `-metrics` dumps:
// counters on one line (the historical FaultCounters format), then one
// line per gauge and per histogram.
func (r *Registry) String() string {
	if r == nil {
		return "(no events)"
	}
	var b strings.Builder
	snap := r.Snapshot()
	if len(snap) == 0 {
		b.WriteString("(no events)")
	}
	for i, kv := range snap {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", kv.Name, kv.Value)
	}
	names, vals := r.gaugeSnapshot()
	for i, name := range names {
		fmt.Fprintf(&b, "\n%s=%g", name, vals[i])
	}
	hnames, snaps := r.histSnapshot()
	for i, name := range hnames {
		s := snaps[i]
		fmt.Fprintf(&b, "\n%s: n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g",
			name, s.N, s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99))
	}
	return b.String()
}
