package mechanism

import (
	"math"
	"testing"
	"testing/quick"

	"gtlb/internal/numeric"
	"gtlb/internal/schemes"
)

// table51 returns the Table 5.1 true values t_i = 1/μ_i for the 16
// computers with rates 0.013/0.026/0.065/0.13 jobs/sec. C1 and C2 (the
// 0.13 jobs/sec machines) are listed first so "C1" indexes the fastest,
// matching the §5.5 experiments.
func table51() []float64 {
	mus := []float64{
		0.13, 0.13,
		0.065, 0.065, 0.065,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
	}
	t := make([]float64, len(mus))
	for i, m := range mus {
		t[i] = 1 / m
	}
	return t
}

const sumMu51 = 0.663

func TestValidateBids(t *testing.T) {
	m := Mechanism{Phi: 0.3}
	cases := [][]float64{
		nil,
		{0, 1},
		{-1, 1},
		{math.NaN()},
		{10, 10}, // capacity 0.2 < phi
	}
	for _, bids := range cases {
		if _, err := m.Allocate(bids); err == nil {
			t.Errorf("Allocate(%v) accepted invalid bids", bids)
		}
	}
	if _, err := (Mechanism{Phi: 0}).Allocate([]float64{1}); err == nil {
		t.Error("zero phi accepted")
	}
}

func TestAllocateMatchesOptim(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	x, err := m.Allocate(trueVals)
	if err != nil {
		t.Fatal(err)
	}
	mu := make([]float64, len(trueVals))
	for i, tv := range trueVals {
		mu[i] = 1 / tv
	}
	want, err := schemes.Optim{}.Allocate(mu, m.Phi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("load[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if math.Abs(numeric.Sum(x)-m.Phi) > 1e-9 {
		t.Errorf("conservation violated: %v", numeric.Sum(x))
	}
}

// TestMonotoneLoads verifies Theorem 5.1: each agent's load is decreasing
// in its own bid.
func TestMonotoneLoads(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.6 * sumMu51}
	for _, i := range []int{0, 2, 5, 10} {
		prev := math.Inf(1)
		for _, scale := range []float64{0.5, 0.8, 1.0, 1.3, 2.0, 5.0, 20.0} {
			bids := append([]float64(nil), trueVals...)
			bids[i] = trueVals[i] * scale
			x, err := m.Allocate(bids)
			if err != nil {
				t.Fatal(err)
			}
			if x[i] > prev+1e-12 {
				t.Errorf("agent %d load rose from %v to %v as its bid grew", i, prev, x[i])
			}
			prev = x[i]
		}
	}
}

func TestMonotoneLoadsQuick(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	prop := func(agent uint, s1, s2 float64) bool {
		i := int(agent % uint(len(trueVals)))
		a := math.Abs(math.Mod(s1, 4)) + 0.1
		b := math.Abs(math.Mod(s2, 4)) + 0.1
		if a > b {
			a, b = b, a
		}
		low := append([]float64(nil), trueVals...)
		low[i] = trueVals[i] * a
		high := append([]float64(nil), trueVals...)
		high[i] = trueVals[i] * b
		xa, err1 := m.Allocate(low)
		xb, err2 := m.Allocate(high)
		if err1 != nil || err2 != nil {
			return false
		}
		return xb[i] <= xa[i]+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCutoffBid(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	cut, err := m.CutoffBid(0, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	if cut <= trueVals[0] {
		t.Fatalf("cutoff %v not above the true bid %v", cut, trueVals[0])
	}
	// Just below the cut-off the agent still gets load; just above, none.
	below := append([]float64(nil), trueVals...)
	below[0] = cut * 0.999
	x, err := m.Allocate(below)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] <= 0 {
		t.Errorf("load just below cutoff = %v, want > 0", x[0])
	}
	above := append([]float64(nil), trueVals...)
	above[0] = cut * 1.001
	x, err = m.Allocate(above)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Errorf("load just above cutoff = %v, want 0", x[0])
	}
}

// TestVoluntaryParticipation: truthful agents never incur a loss
// (Definition 5.5, guaranteed by Theorem 5.2).
func TestVoluntaryParticipation(t *testing.T) {
	trueVals := table51()
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		m := Mechanism{Phi: rho * sumMu51}
		out, err := m.Run(trueVals, trueVals)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range out.Profits {
			if p < -1e-9 {
				t.Errorf("rho=%.1f: truthful agent %d has negative profit %v", rho, i, p)
			}
		}
	}
}

// TestTruthfulness verifies the headline of Theorem 5.2: truth-telling
// maximizes each agent's profit against the others' bids.
func TestTruthfulness(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	truthOut, err := m.Run(trueVals, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 5} {
		for _, scale := range []float64{0.8, 0.93, 1.1, 1.33, 3.0} {
			bids := append([]float64(nil), trueVals...)
			bids[i] = trueVals[i] * scale
			out, err := m.Run(bids, trueVals)
			if err != nil {
				t.Fatal(err)
			}
			if out.Profits[i] > truthOut.Profits[i]+1e-6*(1+truthOut.Profits[i]) {
				t.Errorf("agent %d gains by bidding %.2f×truth: %v > %v",
					i, scale, out.Profits[i], truthOut.Profits[i])
			}
		}
	}
}

func TestTruthfulnessQuick(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.4 * sumMu51}
	truthOut, err := m.Run(trueVals, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(agent uint, s float64) bool {
		i := int(agent % uint(len(trueVals)))
		scale := math.Abs(math.Mod(s, 5)) + 0.2
		bids := append([]float64(nil), trueVals...)
		bids[i] = trueVals[i] * scale
		out, err := m.Run(bids, trueVals)
		if err != nil {
			return false
		}
		return out.Profits[i] <= truthOut.Profits[i]+1e-6*(1+truthOut.Profits[i])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPaperProfitShape reproduces Figure 5.4: at ρ=50% the fastest
// computer's profit is highest when truthful — about 3% lower when it
// bids 33% higher, about 1% lower when it bids 7% lower.
func TestPaperProfitShape(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	truth, err := m.Run(trueVals, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	high := append([]float64(nil), trueVals...)
	high[0] = trueVals[0] * 1.33
	highOut, err := m.Run(high, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	low := append([]float64(nil), trueVals...)
	low[0] = trueVals[0] * 0.93
	lowOut, err := m.Run(low, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	if !(highOut.Profits[0] < truth.Profits[0] && lowOut.Profits[0] < truth.Profits[0]) {
		t.Fatalf("profit not maximized at truth: truth=%v high=%v low=%v",
			truth.Profits[0], highOut.Profits[0], lowOut.Profits[0])
	}
	dropHigh := (truth.Profits[0] - highOut.Profits[0]) / truth.Profits[0]
	dropLow := (truth.Profits[0] - lowOut.Profits[0]) / truth.Profits[0]
	if dropHigh > 0.15 {
		t.Errorf("overbid penalty = %.1f%%, paper reports ~3%%", dropHigh*100)
	}
	if dropLow > 0.10 {
		t.Errorf("underbid penalty = %.1f%%, paper reports ~1%%", dropLow*100)
	}
}

// TestFrugality reproduces the §5.5 payment-structure observations: at
// medium load the mechanism's total payment is at most ~3× the total
// cost, and the cost share of the total payment grows as load falls.
func TestFrugality(t *testing.T) {
	trueVals := table51()
	share := func(rho float64) float64 {
		m := Mechanism{Phi: rho * sumMu51}
		out, err := m.Run(trueVals, trueVals)
		if err != nil {
			t.Fatal(err)
		}
		return numeric.Sum(out.Costs) / numeric.Sum(out.Payments)
	}
	mid := share(0.5)
	if mid < 1.0/3.5 {
		t.Errorf("total payment / total cost = %.2f at medium load, paper: payment < 3× cost", 1/mid)
	}
	low, high := share(0.1), share(0.9)
	if !(high < low) {
		t.Errorf("cost share should fall with utilization: low=%.2f high=%.2f", low, high)
	}
	if math.Abs(high-0.21) > 0.08 {
		t.Errorf("cost share at 90%% utilization = %.2f, paper reports ~0.21", high)
	}
	// The paper reports ~0.40 at 10% utilization; the analytic integral
	// gives 0.65 here (see EXPERIMENTS.md) — assert the qualitative band.
	if low < 0.35 || low > 0.75 {
		t.Errorf("cost share at 10%% utilization = %.2f, expected in [0.35, 0.75]", low)
	}
}

func TestTrueResponseTimeUnstable(t *testing.T) {
	// Load above true capacity must be +Inf.
	if !math.IsInf(TrueResponseTime([]float64{2}, []float64{1}), 1) {
		t.Error("overloaded true response time should be +Inf")
	}
}

func TestRunLengthMismatch(t *testing.T) {
	m := Mechanism{Phi: 0.1}
	if _, err := m.Run([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFaultTolerantDegradesToBase(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	ft := FaultTolerant{Mechanism: m, FailureProb: make([]float64, len(trueVals))}
	a, err := ft.Allocate(trueVals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate(trueVals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Errorf("zero failure prob changed allocation at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFaultTolerantShiftsLoad(t *testing.T) {
	trueVals := table51()
	m := Mechanism{Phi: 0.5 * sumMu51}
	probs := make([]float64, len(trueVals))
	probs[0] = 0.5 // the fastest computer fails half the time
	ft := FaultTolerant{Mechanism: m, FailureProb: probs}
	a, err := ft.Allocate(trueVals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate(trueVals)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] >= b[0] {
		t.Errorf("failing computer load %v not reduced from %v", a[0], b[0])
	}
	if a[1] <= b[1] {
		t.Errorf("reliable peer load %v not increased from %v", a[1], b[1])
	}
}

func TestFaultTolerantValidation(t *testing.T) {
	m := Mechanism{Phi: 0.1}
	ft := FaultTolerant{Mechanism: m, FailureProb: []float64{1.0}}
	if _, err := ft.Allocate([]float64{1}); err == nil {
		t.Error("failure probability 1 accepted")
	}
	ft = FaultTolerant{Mechanism: m, FailureProb: []float64{0.1, 0.1}}
	if _, err := ft.Allocate([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFaultTolerantVoluntaryParticipation(t *testing.T) {
	trueVals := table51()
	probs := make([]float64, len(trueVals))
	for i := range probs {
		probs[i] = 0.05 * float64(i%3)
	}
	ft := FaultTolerant{Mechanism: Mechanism{Phi: 0.4 * sumMu51}, FailureProb: probs}
	out, err := ft.Run(trueVals, trueVals)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out.Profits {
		if p < -1e-9 {
			t.Errorf("truthful agent %d loses %v under failures", i, p)
		}
	}
}
