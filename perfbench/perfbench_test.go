package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gtlb"
	"gtlb/internal/dist"
)

// TestQuickWorkloads runs every workload end to end on tiny inputs, in
// both modes. The result line must carry exactly the metrics
// BENCHMARK.json names, and a traced run must read nonzero for the
// layers the workload is documented to stress and 0 for those it
// bypasses.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(w, config{seed: 3, seconds: 0.05, trace: trace, quick: true}, new(bytes.Buffer))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.correct, res.attempted, res.failed)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && d.name != "ctrl.daemon_residual_us" {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, trace, d.name, v, ok)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
			line, err := res.json()
			if err != nil {
				t.Fatal(err)
			}
			var jr jsonResult
			if err := json.Unmarshal([]byte(line), &jr); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, line, err)
			}
			if trace {
				checkLayers(t, w, res.metrics)
			}
		}
	}
}

func checkLayers(t *testing.T, w *workload, metrics map[string]float64) {
	t.Helper()
	for _, layer := range w.bypasses {
		for n, v := range metrics {
			if strings.HasPrefix(n, layer+".") && v != 0 {
				t.Errorf("%s bypasses %s but reports %s = %v", w.name, layer, n, v)
			}
		}
	}
	for _, layer := range w.stresses {
		seen := false
		for n, v := range metrics {
			seen = seen || strings.HasPrefix(n, layer+".") && v != 0
		}
		if !seen {
			t.Errorf("%s stresses %s but reports no nonzero %s.* metric", w.name, layer, layer)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}, {99, 4.96},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {20, 50}, {40, 75}, {65, 100 * (1 - 10.0/65)}, {1000, 99}, {500000, 99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// countingBench fails every third op and counts prepares.
type countingBench struct{ prepares, ops int }

func (b *countingBench) prepare() error { b.prepares++; return nil }
func (b *countingBench) op() error {
	b.ops++
	time.Sleep(time.Millisecond)
	if b.ops%3 == 0 {
		return os.ErrInvalid
	}
	return nil
}
func (b *countingBench) finish() (int, error) { return 0, nil }
func (b *countingBench) traced(float64) (map[string]float64, string, samples, error) {
	return nil, "", samples{}, nil
}

func TestMeasureSampleCounts(t *testing.T) {
	b := &countingBench{}
	s, err := measure(b, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != b.ops || b.prepares != b.ops || len(s.lat) != s.attempted {
		t.Errorf("attempted %d, ops %d, prepares %d, samples %d: want all equal", s.attempted, b.ops, b.prepares, len(s.lat))
	}
	if s.failed != s.attempted/3 {
		t.Errorf("failed %d of %d, want every third", s.failed, s.attempted)
	}
	for _, l := range s.lat {
		if l < 0.001 {
			t.Errorf("op sample %v s is shorter than the op's sleep", l)
		}
	}
	// Even a zero-length run measures one op.
	if s, _ := measure(&countingBench{}, 1e-9); s.attempted != 1 {
		t.Errorf("tiny run attempted %d ops, want 1", s.attempted)
	}
}

// TestTimedNetworkTransparent: the traced run's wrapper must not change
// the program it measures. On nash-mem the message count and the final
// profile are exact, so both must match a run without the wrapper.
func TestTimedNetworkTransparent(t *testing.T) {
	sys, err := nashSystem(9, 256)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(wrap bool) (gtlb.NashShardedResult, int64, int64) {
		counted := dist.NewCountingNetwork(dist.NewMemNetwork())
		var netw dist.Network = counted
		var timed *timedNetwork
		if wrap {
			timed = newTimedNetwork(counted)
			netw = timed
		}
		res, err := gtlb.RunNashSharded(netw, sys, gtlb.WithEpsilon(1e-6*256), gtlb.WithMaxIter(nashMaxRounds))
		if err != nil {
			t.Fatal(err)
		}
		msgs, _ := counted.Totals()
		var own int64 = -1
		if timed != nil {
			own = timed.totals().msgs
		}
		return res, msgs, own
	}
	plain, plainMsgs, _ := solve(false)
	wrapped, wrappedMsgs, own := solve(true)
	if plainMsgs != wrappedMsgs || own != wrappedMsgs {
		t.Errorf("messages: %d without the wrapper, %d with it (wrapper counted %d)", plainMsgs, wrappedMsgs, own)
	}
	for j := range plain.Profile.S {
		for i := range plain.Profile.S[j] {
			if math.Float64bits(plain.Profile.S[j][i]) != math.Float64bits(wrapped.Profile.S[j][i]) {
				t.Fatalf("profile[%d][%d] differs with the wrapper", j, i)
			}
		}
	}
}

// batchConn is a Conn whose batch path records its use.
type batchConn struct {
	dist.Conn
	batches, sends int
}

func (c *batchConn) Send(dist.Message) error { c.sends++; return nil }
func (c *batchConn) SendBatch(ms []dist.Message) error {
	c.batches++
	return nil
}

type oneConnNetwork struct{ c dist.Conn }

func (n oneConnNetwork) Join(string) (dist.Conn, error) { return n.c, nil }

// TestTimedConnForwardsBatches: a batch sent through the wrapper must
// reach the inner endpoint's batch path, or TCP would flush per
// message under tracing only.
func TestTimedConnForwardsBatches(t *testing.T) {
	inner := &batchConn{}
	timed := newTimedNetwork(oneConnNetwork{inner})
	c, err := timed.Join("n")
	if err != nil {
		t.Fatal(err)
	}
	ms := []dist.Message{{Data: []byte{1, 2}}, {Data: []byte{3}}}
	if err := dist.SendAll(c, ms); err != nil {
		t.Fatal(err)
	}
	if inner.batches != 1 || inner.sends != 0 {
		t.Errorf("inner saw %d batches and %d single sends, want 1 and 0", inner.batches, inner.sends)
	}
	if tot := timed.totals(); tot.msgs != 2 || tot.bytes != 3 {
		t.Errorf("wrapper counted %d messages and %d bytes, want 2 and 3", tot.msgs, tot.bytes)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in
// step: the same workloads with the same why, and the same metrics
// with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
			if kind == "end_to_end" && (got[i].Bound == nil || *got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s: bound of %s must be in (0, 0.25]", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
}

func TestRunUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "sim-table31", "--trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("bad --trace: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"--list"}, &out, &errOut); code != 0 {
		t.Errorf("--list: exit %d, want 0", code)
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), w.name) {
			t.Errorf("--list does not describe %s", w.name)
		}
	}
}
