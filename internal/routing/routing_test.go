package routing

import (
	"math"
	"testing"
	"testing/quick"
)

// pigou is the canonical worst case for affine latencies: a constant
// link ℓ1 = 1 and a congestible link ℓ2(x) = x with unit rate.
func pigou() Network {
	return Network{
		Links: []Link{{Slope: 0, Const: 1}, {Slope: 1, Const: 0}},
		Rate:  1,
	}
}

func TestValidate(t *testing.T) {
	bad := []Network{
		{},
		{Links: []Link{{Slope: -1}}, Rate: 1},
		{Links: []Link{{Const: -1}}, Rate: 1},
		{Links: []Link{{Slope: 1}}, Rate: -1},
		{Links: []Link{{Slope: 1}}, Rate: math.Inf(1)},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("network %d validated", i)
		}
	}
}

func TestLinkEvaluations(t *testing.T) {
	l := Link{Slope: 2, Const: 3}
	if l.Latency(4) != 11 {
		t.Errorf("latency = %v, want 11", l.Latency(4))
	}
}

// TestPigouEquilibrium: all selfish traffic takes the congestible link
// (latency 1 everywhere), while the optimum splits it in half.
func TestPigouEquilibrium(t *testing.T) {
	n := pigou()
	we, err := n.Wardrop()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(we[1]-1) > 1e-12 || math.Abs(we[0]) > 1e-12 {
		t.Errorf("wardrop = %v, want [0 1]", we)
	}
	opt, err := n.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt[1]-0.5) > 1e-12 || math.Abs(opt[0]-0.5) > 1e-12 {
		t.Errorf("optimum = %v, want [0.5 0.5]", opt)
	}
}

// TestPigouPoA: the Pigou network attains the Roughgarden–Tardos bound
// exactly: PoA = 1/(3/4) = 4/3.
func TestPigouPoA(t *testing.T) {
	poa, err := pigou().PriceOfAnarchy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-4.0/3) > 1e-12 {
		t.Errorf("PoA = %v, want 4/3", poa)
	}
}

// TestPoABoundQuick: for random affine networks the price of anarchy
// never exceeds 4/3 (Roughgarden & Tardos) and never falls below 1.
func TestPoABoundQuick(t *testing.T) {
	prop := func(slopes, consts []float64, rawRate float64) bool {
		k := len(slopes)
		if len(consts) < k {
			k = len(consts)
		}
		if k == 0 {
			return true
		}
		links := make([]Link, 0, k)
		for i := 0; i < k; i++ {
			a := math.Abs(math.Mod(slopes[i], 10))
			b := math.Abs(math.Mod(consts[i], 10))
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			links = append(links, Link{Slope: a, Const: b})
		}
		rate := math.Abs(math.Mod(rawRate, 50))
		if math.IsNaN(rate) {
			return true
		}
		n := Network{Links: links, Rate: rate}
		poa, err := n.PriceOfAnarchy()
		if err != nil {
			return true // degenerate network rejected by Validate
		}
		return poa >= 1-1e-9 && poa <= 4.0/3+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestWardropEqualizesLatency: used links share one latency; unused
// links are not faster.
func TestWardropEqualizesLatency(t *testing.T) {
	n := Network{
		Links: []Link{{Slope: 1, Const: 0}, {Slope: 2, Const: 1}, {Slope: 0.5, Const: 4}},
		Rate:  3,
	}
	we, err := n.Wardrop()
	if err != nil {
		t.Fatal(err)
	}
	var level float64
	for i, l := range n.Links {
		if we[i] > 1e-12 {
			lat := l.Latency(we[i])
			if level == 0 {
				level = lat
			} else if math.Abs(lat-level) > 1e-9 {
				t.Errorf("link %d latency %v differs from level %v", i, lat, level)
			}
		}
	}
	for i, l := range n.Links {
		if we[i] <= 1e-12 && l.Const < level-1e-9 {
			t.Errorf("idle link %d offers latency %v below the level %v", i, l.Const, level)
		}
	}
	var sum float64
	for _, x := range we {
		sum += x
	}
	if math.Abs(sum-3) > 1e-9 {
		t.Errorf("conservation: %v", sum)
	}
}

// TestOptimumBeatsWardropQuick: the optimum's total latency is a lower
// bound, and no random feasible perturbation beats it.
func TestOptimumBeatsWardropQuick(t *testing.T) {
	prop := func(a1, a2, b1, b2, rawRate, frac float64) bool {
		n := Network{
			Links: []Link{
				{Slope: math.Abs(math.Mod(a1, 5)) + 0.01, Const: math.Abs(math.Mod(b1, 5))},
				{Slope: math.Abs(math.Mod(a2, 5)) + 0.01, Const: math.Abs(math.Mod(b2, 5))},
			},
			Rate: math.Abs(math.Mod(rawRate, 20)),
		}
		opt, err := n.Optimum()
		if err != nil {
			return true
		}
		we, err := n.Wardrop()
		if err != nil {
			return false
		}
		co, cw := n.TotalLatency(opt), n.TotalLatency(we)
		if co > cw+1e-9 {
			return false
		}
		// Perturb the optimum: shift a fraction of link 0's flow.
		f := math.Abs(math.Mod(frac, 1))
		pert := []float64{opt[0] * (1 - f), opt[1] + opt[0]*f}
		return n.TotalLatency(pert) >= co-1e-9*(1+co)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestVerificationCrossCheck: with zero constants the social optimum is
// the PR proportional allocation and the optimal cost is λ²/Σ(1/a) —
// Theorem 6.1 recovered from an independent solver.
func TestVerificationCrossCheck(t *testing.T) {
	vals := []float64{1, 2, 5, 10}
	links := make([]Link, len(vals))
	var invSum float64
	for i, v := range vals {
		links[i] = Link{Slope: v}
		invSum += 1 / v
	}
	n := Network{Links: links, Rate: 20}
	opt, err := n.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		want := (1 / v) / invSum * 20
		if math.Abs(opt[i]-want) > 1e-9 {
			t.Errorf("link %d: optimum %v, PR gives %v", i, opt[i], want)
		}
	}
	wantCost := 20.0 * 20.0 / invSum
	if got := n.TotalLatency(opt); math.Abs(got-wantCost) > 1e-9 {
		t.Errorf("optimal cost %v, Theorem 6.1 gives %v", got, wantCost)
	}
	// For pure-linear latencies the Wardrop equilibrium coincides with
	// the optimum (PoA = 1): both equalize a·x across links.
	poa, err := n.PriceOfAnarchy()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(poa-1) > 1e-9 {
		t.Errorf("pure-linear PoA = %v, want 1", poa)
	}
}

func TestZeroRate(t *testing.T) {
	n := Network{Links: []Link{{Slope: 1}}, Rate: 0}
	we, err := n.Wardrop()
	if err != nil || we[0] != 0 {
		t.Errorf("zero-rate wardrop = %v, err %v", we, err)
	}
	poa, err := n.PriceOfAnarchy()
	if err != nil || poa != 1 {
		t.Errorf("zero-rate PoA = %v, err %v", poa, err)
	}
}

func TestAllConstantLinks(t *testing.T) {
	n := Network{
		Links: []Link{{Const: 2}, {Const: 1}, {Const: 1}},
		Rate:  4,
	}
	we, err := n.Wardrop()
	if err != nil {
		t.Fatal(err)
	}
	if we[0] != 0 {
		t.Errorf("expensive constant link used: %v", we)
	}
	if math.Abs(we[1]+we[2]-4) > 1e-12 {
		t.Errorf("conservation: %v", we)
	}
}

// TestStackelbergEndpoints: α=0 reduces to Wardrop, α=1 to the social
// optimum.
func TestStackelbergEndpoints(t *testing.T) {
	n := pigou()
	r0, err := n.StackelbergLLF(0)
	if err != nil {
		t.Fatal(err)
	}
	we, _ := n.Wardrop()
	if math.Abs(r0.Cost-n.TotalLatency(we)) > 1e-9 {
		t.Errorf("alpha=0 cost %v, wardrop cost %v", r0.Cost, n.TotalLatency(we))
	}
	r1, err := n.StackelbergLLF(1)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := n.Optimum()
	if math.Abs(r1.Cost-n.TotalLatency(opt)) > 1e-9 {
		t.Errorf("alpha=1 cost %v, optimum cost %v", r1.Cost, n.TotalLatency(opt))
	}
}

// TestStackelbergImproves: on the Pigou network a leader with half the
// traffic already beats the anarchic cost, and more control never hurts.
func TestStackelbergImproves(t *testing.T) {
	n := pigou()
	prev := math.Inf(1)
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r, err := n.StackelbergLLF(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost > prev+1e-9 {
			t.Errorf("alpha=%v: cost %v rose above %v", alpha, r.Cost, prev)
		}
		prev = r.Cost
		// Flow conservation.
		var sum float64
		for i := range r.Leader {
			sum += r.Leader[i] + r.Followers[i]
		}
		if math.Abs(sum-n.Rate) > 1e-9 {
			t.Errorf("alpha=%v: flows sum to %v", alpha, sum)
		}
	}
	half, _ := n.StackelbergLLF(0.5)
	we, _ := n.Wardrop()
	if half.Cost >= n.TotalLatency(we) {
		t.Errorf("alpha=0.5 cost %v does not beat anarchy %v", half.Cost, n.TotalLatency(we))
	}
}

func TestStackelbergValidation(t *testing.T) {
	n := pigou()
	if _, err := n.StackelbergLLF(-0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := n.StackelbergLLF(1.1); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := n.FollowerEquilibrium([]float64{1}, 1); err == nil {
		t.Error("leader length mismatch accepted")
	}
	if _, err := n.FollowerEquilibrium([]float64{-1, 0}, 1); err == nil {
		t.Error("negative leader flow accepted")
	}
}

// TestFollowerEquilibriumRespectsLeader: followers equalize latencies
// including the leader's flow.
func TestFollowerEquilibriumRespectsLeader(t *testing.T) {
	n := Network{
		Links: []Link{{Slope: 1, Const: 0}, {Slope: 1, Const: 0}},
		Rate:  2,
	}
	// Leader puts 1 unit on link 0; followers (1 unit) should prefer
	// link 1 until latencies equalize: y = (1+?) ... symmetric: link 0
	// has latency 1+y0, link1 y1, y0+y1=1 → y0=0, y1=1 level 1.
	f, err := n.FollowerEquilibrium([]float64{1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f[0]) > 1e-9 || math.Abs(f[1]-1) > 1e-9 {
		t.Errorf("followers = %v, want [0 1]", f)
	}
}
