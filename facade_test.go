package gtlb_test

// Coverage for the facade entry points the doc examples do not reach:
// the TCP transport constructor, the LBM bidding protocol, workload
// traces, the theorem catalog, dynamic simulation, checkpoint resume and
// the fault-tolerant mechanism.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gtlb"
)

func table51TrueValues() []float64 {
	mus := []float64{0.13, 0.13, 0.065, 0.065, 0.065,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013}
	t := make([]float64, len(mus))
	for i, m := range mus {
		t[i] = 1 / m
	}
	return t
}

func TestFacadeTCPNetwork(t *testing.T) {
	netw, addr, closeFn, err := gtlb.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if addr == "" {
		t.Error("empty broker address")
	}
	sys, err := gtlb.NewMultiSystem([]float64{10, 5}, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gtlb.RunNashSharded(netw, sys, gtlb.WithEpsilon(1e-8), ringOption())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Error("no rounds over TCP")
	}
}

func TestFacadeLBMWithLiar(t *testing.T) {
	trueVals := table51TrueValues()
	policies := make([]gtlb.BidPolicy, len(trueVals))
	policies[0] = gtlb.ScaledBid(1.5)
	res, err := gtlb.RunLBM(gtlb.NewMemNetwork(), trueVals, policies, 0.5*0.663)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Bids[0]-1.5*trueVals[0]) > 1e-12 {
		t.Errorf("liar bid %v", res.Bids[0])
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	h2, err := gtlb.HyperExponential(0.01, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtlb.GenerateTrace(h2, 20_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.CV()-1.6) > 0.1 {
		t.Errorf("trace cv = %v", tr.CV())
	}
	replay, err := gtlb.ReplayTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gtlb.Simulate(gtlb.SimConfig{
		Mu:           []float64{200},
		InterArrival: replay,
		Routing:      [][]float64{{1}},
		Horizon:      100,
		Warmup:       5,
		Seed:         1,
		Replications: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Error("replay produced no jobs")
	}
	if res.P95.Mean <= res.Overall.Mean {
		t.Error("p95 should exceed the mean")
	}
	if res.Utilization[0] <= 0 || res.Utilization[0] >= 1 {
		t.Errorf("utilization = %v", res.Utilization[0])
	}
}

// TestFacadeHeavyTailWorkloads covers the heavy-tail and nonstationary
// workload exports: mean-matched constructors, a Service override
// driven through Simulate, and the diurnal arrival process.
func TestFacadeHeavyTailWorkloads(t *testing.T) {
	pareto, err := gtlb.Pareto(0.005, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	weibull, err := gtlb.Weibull(0.005, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	logn, err := gtlb.Lognormal(0.005, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []interface{ Mean() float64 }{pareto, weibull, logn} {
		if math.Abs(d.Mean()-0.005) > 1e-9 {
			t.Errorf("mean-matched constructor returned mean %v, want 0.005", d.Mean())
		}
	}
	arrivals, err := gtlb.DiurnalArrivals(120, []float64{0.5, 1.5}, 25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gtlb.Simulate(gtlb.SimConfig{
		Mu:           []float64{200},
		InterArrival: arrivals,
		Service:      []gtlb.Distribution{pareto},
		Routing:      [][]float64{{1}},
		Horizon:      200,
		Warmup:       10,
		Seed:         4,
		Replications: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Error("heavy-tail simulation produced no jobs")
	}
	if _, err := gtlb.Pareto(1, 0.5); err == nil {
		t.Error("invalid Pareto shape accepted")
	}
	if _, err := gtlb.DiurnalArrivals(0, []float64{1}, 1); err == nil {
		t.Error("zero diurnal base rate accepted")
	}
}

func TestFacadeTheoremCatalog(t *testing.T) {
	entries := gtlb.TheoremCatalog()
	if len(entries) != 10 {
		t.Fatalf("catalog has %d entries, want 10", len(entries))
	}
}

// ringOption runs the NASH protocol as the §4.3 ring: one shard, one
// best reply per user per round.
func ringOption() gtlb.Option {
	return gtlb.WithShardOptions(gtlb.ShardOptions{Shards: 1, LocalSweeps: 1})
}

func TestFacadeNashRingResume(t *testing.T) {
	mu := []float64{10, 10, 20, 50}
	sys, err := gtlb.NewMultiSystem(mu, []float64{20, 15, 10})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys,
		gtlb.WithEpsilon(1e-14), gtlb.WithMaxIter(2), ringOption())
	if err == nil {
		t.Skip("converged within the tiny budget; nothing to resume")
	}
	// Resume through the checkpoint option, once with the ring's
	// default fault-tolerance options and once with those defaults
	// spelled out and an explicit unbounded round budget; both must
	// reach the same valid profile.
	resumed, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys,
		gtlb.WithCheckpoint(partial.Profile), gtlb.WithEpsilon(1e-8), ringOption())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateProfile(resumed.Profile); err != nil {
		t.Fatal(err)
	}
	explicit, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys,
		gtlb.WithCheckpoint(partial.Profile), gtlb.WithEpsilon(1e-8),
		gtlb.WithMaxIter(0), gtlb.WithShardOptions(gtlb.ShardOptions{
			Shards: 1, LocalSweeps: 1,
			Watchdog: 2 * time.Second, ProbeTimeout: 150 * time.Millisecond,
			MaxAttempts: 3, Deadline: time.Minute,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Rounds != resumed.Rounds || !reflect.DeepEqual(explicit.Profile, resumed.Profile) {
		t.Errorf("explicit-options resume = %d rounds %v, want %d rounds %v",
			explicit.Rounds, explicit.Profile, resumed.Rounds, resumed.Profile)
	}
}

func TestFacadeFaultTolerantMechanism(t *testing.T) {
	trueVals := table51TrueValues()
	probs := make([]float64, len(trueVals))
	probs[0] = 0.3
	ft := gtlb.FaultTolerantMechanism{
		Mechanism:   gtlb.Mechanism{Phi: 0.4 * 0.663},
		FailureProb: probs,
	}
	out, err := ft.Run(trueVals, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out.Profits {
		if p < -1e-9 {
			t.Errorf("agent %d loses %v", i, p)
		}
	}
}

func TestFacadeVerifiedExperiments(t *testing.T) {
	if got := len(gtlb.VerifiedExperiments()); got != 8 {
		t.Errorf("experiments = %d, want 8 (Table 6.2)", got)
	}
}

func TestFacadeUserSchemes(t *testing.T) {
	if got := len(gtlb.UserSchemes()); got != 4 {
		t.Errorf("user schemes = %d, want 4", got)
	}
}

func TestFacadeChaosNetwork(t *testing.T) {
	// Explicit chaos wrapping, with the registry reaching the protocol
	// through LBMOptions.Observer rather than WithObserver.
	ctr := gtlb.NewRegistry()
	plan := gtlb.FaultPlan{Crash: map[string]int{"computer-0": 0}}
	netw := gtlb.NewChaosNetwork(gtlb.NewMemNetwork(), plan, gtlb.WithObserver(ctr))
	trueVals := table51TrueValues()
	opts := gtlb.LBMOptions{
		BidDeadline: 40 * time.Millisecond,
		MaxAttempts: 2,
		Backoff:     5 * time.Millisecond,
		AgentBudget: time.Second,
		Observer:    ctr,
	}
	res, err := gtlb.RunLBM(netw, trueVals, make([]gtlb.BidPolicy, len(trueVals)), 0.5*0.663,
		gtlb.WithLBMOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 0 {
		t.Fatalf("Excluded = %v, want [0]", res.Excluded)
	}
	if ctr.Get("chaos.crash") != 1 || ctr.Get("lbm.excluded") != 1 {
		t.Errorf("counters = %s, want one crash and one exclusion", ctr)
	}
}

func TestFacadeChaosOptions(t *testing.T) {
	// New surface: the same chaos run driven entirely through options —
	// WithFaultPlan wraps the transport, one registry observes both the
	// chaos layer and the protocol.
	reg := gtlb.NewRegistry()
	plan := gtlb.FaultPlan{Crash: map[string]int{"computer-0": 0}}
	trueVals := table51TrueValues()
	res, err := gtlb.RunLBM(gtlb.NewMemNetwork(), trueVals,
		make([]gtlb.BidPolicy, len(trueVals)), 0.5*0.663,
		gtlb.WithFaultPlan(plan),
		gtlb.WithObserver(reg),
		gtlb.WithLBMOptions(gtlb.LBMOptions{
			BidDeadline: 40 * time.Millisecond,
			MaxAttempts: 2,
			Backoff:     5 * time.Millisecond,
			AgentBudget: time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != 0 {
		t.Fatalf("Excluded = %v, want [0]", res.Excluded)
	}
	if reg.Get("chaos.crash") != 1 || reg.Get("lbm.excluded") != 1 {
		t.Errorf("registry = %s, want one crash and one exclusion", reg)
	}
}

func TestFacadeTraceOption(t *testing.T) {
	var buf strings.Builder
	sys, err := gtlb.NewMultiSystem([]float64{10, 5}, []float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys,
		gtlb.WithEpsilon(1e-8), gtlb.WithTrace(&buf), ringOption()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("WithTrace produced no output")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q is not JSON: %v", line, err)
		}
		if _, ok := rec["kind"]; !ok {
			t.Fatalf("trace line %q lacks a kind", line)
		}
	}
	if !strings.Contains(out, `"kind":"hier.round"`) {
		t.Errorf("trace lacks hier.round events:\n%s", out)
	}
}

// TestFacadeBinaryTraceOption pins the format-agnostic trace surface:
// the same seeded run recorded through WithBinaryTrace must decode to
// exactly the bytes WithTrace writes as JSONL.
func TestFacadeBinaryTraceOption(t *testing.T) {
	cfg := gtlb.SimConfig{
		Mu:           []float64{200, 100},
		InterArrival: gtlb.Exponential(150),
		Routing:      [][]float64{{0.7, 0.3}},
		Horizon:      50,
		Warmup:       5,
		Seed:         11,
		Replications: 3,
	}
	var jsonlBuf, binBuf bytes.Buffer
	if _, err := gtlb.Simulate(cfg, gtlb.WithTrace(&jsonlBuf)); err != nil {
		t.Fatal(err)
	}
	if _, err := gtlb.Simulate(cfg, gtlb.WithBinaryTrace(&binBuf)); err != nil {
		t.Fatal(err)
	}
	if jsonlBuf.Len() == 0 || binBuf.Len() == 0 {
		t.Fatal("a trace option produced no output")
	}
	if binBuf.Len() >= jsonlBuf.Len() {
		t.Errorf("binary trace (%d bytes) not smaller than JSONL (%d bytes)", binBuf.Len(), jsonlBuf.Len())
	}
	var decoded bytes.Buffer
	if err := gtlb.DecodeTrace(&binBuf, &decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded.Bytes(), jsonlBuf.Bytes()) {
		t.Error("decoded binary trace differs from the JSONL trace of the same seeded run")
	}
}

func TestFacadeSimulateObserver(t *testing.T) {
	reg := gtlb.NewRegistry()
	res, err := gtlb.Simulate(gtlb.SimConfig{
		Mu:           []float64{200},
		InterArrival: gtlb.Exponential(100),
		Routing:      [][]float64{{1}},
		Horizon:      50,
		Warmup:       5,
		Seed:         1,
		Replications: 2,
	}, gtlb.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 {
		t.Fatal("no jobs simulated")
	}
	arrivals := reg.Get("des.arrival")
	if arrivals == 0 {
		t.Error("registry saw no arrivals")
	}
	h, ok := reg.Histogram("des.response_time")
	if !ok || h.N == 0 {
		t.Fatal("no response-time samples in the histogram")
	}
	if q := h.Quantile(0.95); q <= 0 {
		t.Errorf("p95 response time = %v", q)
	}
}
