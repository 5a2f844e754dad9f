package noncoop

import (
	"math"
	"testing"
	"testing/quick"

	"gtlb/internal/metrics"
	"gtlb/internal/queueing"
)

// table41 is the Table 4.1 configuration: 16 computers with rates
// 10/20/50/100 jobs/sec (relative 1:2:5:10), aggregate 510 jobs/sec.
func table41() []float64 {
	return []float64{
		10, 10, 10, 10, 10, 10,
		20, 20, 20, 20, 20,
		50, 50, 50,
		100, 100,
	}
}

// userFractions is the 10-user traffic split documented in DESIGN.md.
var userFractions = []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}

func paperSystem(t *testing.T, rho float64) System {
	t.Helper()
	total := rho * 510
	phi := make([]float64, len(userFractions))
	for j, f := range userFractions {
		phi[j] = f * total
	}
	sys, err := NewSystem(table41(), phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemValidate(t *testing.T) {
	cases := []struct {
		name string
		mu   []float64
		phi  []float64
	}{
		{"no computers", nil, []float64{1}},
		{"no users", []float64{1}, nil},
		{"zero mu", []float64{0}, []float64{0.1}},
		{"zero phi", []float64{2}, []float64{0}},
		{"overload", []float64{1, 1}, []float64{1, 1}},
		{"nan", []float64{math.NaN()}, []float64{0.1}},
	}
	for _, c := range cases {
		if _, err := NewSystem(c.mu, c.phi); err == nil {
			t.Errorf("%s: accepted invalid system", c.name)
		}
	}
}

func TestAccessors(t *testing.T) {
	sys, err := NewSystem([]float64{4, 6}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumComputers() != 2 || sys.NumUsers() != 2 {
		t.Error("dimension accessors wrong")
	}
	if sys.TotalPhi() != 5 || sys.TotalMu() != 10 {
		t.Error("rate accessors wrong")
	}
}

func TestLoadsAndAvailable(t *testing.T) {
	sys, _ := NewSystem([]float64{10, 10}, []float64{4, 2})
	p := NewProfile(2, 2)
	p.S[0] = []float64{0.5, 0.5}
	p.S[1] = []float64{1, 0}
	lam := sys.Loads(p)
	if lam[0] != 4 || lam[1] != 2 {
		t.Errorf("loads = %v, want [4 2]", lam)
	}
	avail := sys.Available(p, 0)
	if avail[0] != 8 || avail[1] != 10 {
		t.Errorf("available to user 0 = %v, want [8 10]", avail)
	}
	avail = sys.Available(p, 1)
	if avail[0] != 8 || avail[1] != 8 {
		t.Errorf("available to user 1 = %v, want [8 8]", avail)
	}
}

func TestUserTime(t *testing.T) {
	sys, _ := NewSystem([]float64{10, 5}, []float64{2, 2})
	p := NewProfile(2, 2)
	p.S[0] = []float64{1, 0}
	p.S[1] = []float64{0, 1}
	// User 0: 1/(10-2) = 0.125. User 1: 1/(5-2) = 1/3.
	if got := sys.UserTime(p, 0); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("user 0 time = %v, want 0.125", got)
	}
	if got := sys.UserTime(p, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("user 1 time = %v, want 1/3", got)
	}
	overall := sys.OverallTime(p)
	want := (2*0.125 + 2.0/3) / 4
	if math.Abs(overall-want) > 1e-12 {
		t.Errorf("overall time = %v, want %v", overall, want)
	}
}

func TestUserTimeUnstable(t *testing.T) {
	sys, _ := NewSystem([]float64{3, 100}, []float64{2, 2})
	p := NewProfile(2, 2)
	p.S[0] = []float64{1, 0}
	p.S[1] = []float64{1, 0} // both users flood computer 0: λ=4 > μ=3
	if !math.IsInf(sys.UserTime(p, 0), 1) {
		t.Error("unstable computer should give +Inf user time")
	}
	if err := sys.ValidateProfile(p); err == nil {
		t.Error("unstable profile validated")
	}
}

func TestValidateProfileShape(t *testing.T) {
	sys, _ := NewSystem([]float64{10}, []float64{1})
	bad := Profile{S: [][]float64{{0.5, 0.5}}}
	if err := sys.ValidateProfile(bad); err == nil {
		t.Error("wrong-width profile validated")
	}
	bad2 := Profile{S: [][]float64{{0.7}}}
	if err := sys.ValidateProfile(bad2); err == nil {
		t.Error("non-conserving profile validated")
	}
}

func TestBestReplySingleUserMatchesExample(t *testing.T) {
	// Example 5.1 shape: one user, computers sorted by decreasing
	// available rate, slowest dropped.
	avail := []float64{9, 4, 0.05}
	phi := 5.0
	s, err := BestReply(avail, phi)
	if err != nil {
		t.Fatal(err)
	}
	if s[2] != 0 {
		t.Errorf("slow computer got fraction %v, want 0", s[2])
	}
	sum := s[0] + s[1] + s[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	// Square-root rule on the used set: alpha = (13-5)/(3+2) = 1.6.
	wantS0 := (9 - 1.6*3) / phi
	wantS1 := (4 - 1.6*2) / phi
	if math.Abs(s[0]-wantS0) > 1e-12 || math.Abs(s[1]-wantS1) > 1e-12 {
		t.Errorf("s = %v, want [%v %v 0]", s, wantS0, wantS1)
	}
}

func TestBestReplyInfeasible(t *testing.T) {
	if _, err := BestReply([]float64{1, 1}, 3); err == nil {
		t.Error("best reply accepted infeasible rate")
	}
	if _, err := BestReply(nil, 1); err == nil {
		t.Error("best reply accepted empty system")
	}
	if _, err := BestReply([]float64{1}, 0); err == nil {
		t.Error("best reply accepted zero rate")
	}
}

func TestBestReplySkipsSaturated(t *testing.T) {
	s, err := BestReply([]float64{10, -2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] != 0 || s[2] != 0 {
		t.Errorf("saturated computers received load: %v", s)
	}
	if math.Abs(s[0]-1) > 1e-12 {
		t.Errorf("s[0] = %v, want 1", s[0])
	}
}

// TestBestReplyOptimalQuick: no random feasible deviation of the fraction
// vector can beat the best reply (the content of Theorem 4.2).
func TestBestReplyOptimalQuick(t *testing.T) {
	prop := func(rates []float64, load float64, di, dj uint, frac float64) bool {
		avail := make([]float64, 0, len(rates))
		for _, r := range rates {
			if v := math.Abs(math.Mod(r, 50)); v > 0.01 {
				avail = append(avail, v)
			}
		}
		if len(avail) < 2 {
			return true
		}
		var total float64
		for _, a := range avail {
			total += a
		}
		f := math.Abs(math.Mod(load, 1))
		if f == 0 || math.IsNaN(f) {
			return true
		}
		phi := f * 0.95 * total
		if phi <= 0 {
			return true
		}
		s, err := BestReply(avail, phi)
		if err != nil {
			return false
		}
		base := BestReplyTime(avail, s, phi)
		i := int(di % uint(len(avail)))
		j := int(dj % uint(len(avail)))
		if i == j {
			return true
		}
		move := s[i] * math.Abs(math.Mod(frac, 1))
		dev := append([]float64(nil), s...)
		dev[i] -= move
		dev[j] += move
		return BestReplyTime(avail, dev, phi) >= base-1e-9*(1+base)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestNashConvergesPaperSystem(t *testing.T) {
	sys := paperSystem(t, 0.6)
	for _, init := range []Init{InitZero, InitProportional} {
		res, err := Nash(sys, NashOptions{Init: init, Eps: 1e-9})
		if err != nil {
			t.Fatalf("%v: %v", init, err)
		}
		if err := sys.ValidateProfile(res.Profile); err != nil {
			t.Fatalf("%v: equilibrium profile infeasible: %v", init, err)
		}
		ok, err := IsNashEquilibrium(sys, res.Profile, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: result is not a Nash equilibrium", init)
		}
	}
}

// TestGap: the flat best-reply gap is ~0 at an equilibrium, positive
// away from one, leaves its input untouched and rejects a profile of
// the wrong shape.
func TestGap(t *testing.T) {
	sys := paperSystem(t, 0.6)
	res, err := Nash(sys, NashOptions{Init: InitProportional, Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if gap, err := Gap(sys, res.Profile); err != nil || gap > 1e-9 {
		t.Errorf("gap at the equilibrium = %g, %v; want <= 1e-9", gap, err)
	}

	start := NewProfile(sys.NumUsers(), sys.NumComputers())
	for j := range start.S {
		for i, mu := range sys.Mu {
			start.S[j][i] = mu / sys.TotalMu()
		}
	}
	before := start.Clone()
	gap, err := Gap(sys, start)
	if err != nil || !(gap > 0) {
		t.Errorf("gap at the NASH_P start = %g, %v; want > 0", gap, err)
	}
	for j := range start.S {
		for i := range start.S[j] {
			if math.Float64bits(start.S[j][i]) != math.Float64bits(before.S[j][i]) {
				t.Fatalf("Gap wrote profile[%d][%d]: %v, was %v", j, i, start.S[j][i], before.S[j][i])
			}
		}
	}

	short := Profile{S: start.S[1:]}
	if _, err := Gap(sys, short); err == nil {
		t.Error("Gap accepted a profile with a missing row")
	}
	ragged := start.Clone()
	ragged.S[3] = ragged.S[3][1:]
	if _, err := Gap(sys, ragged); err == nil {
		t.Error("Gap accepted a row of the wrong length")
	}
}

// TestNashPFasterThanNash0 reproduces Figure 4.2's headline: the
// proportional initialization reduces the iterations to reach the
// equilibrium by more than half.
func TestNashPFasterThanNash0(t *testing.T) {
	sys := paperSystem(t, 0.6)
	const eps = 1e-4 // the Figure 4.3 threshold
	r0, err := Nash(sys, NashOptions{Init: InitZero, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Nash(sys, NashOptions{Init: InitProportional, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Iterations >= r0.Iterations {
		t.Errorf("NASH_P took %d iterations, NASH_0 took %d; want NASH_P faster",
			rp.Iterations, r0.Iterations)
	}
}

func TestNashNormsDecrease(t *testing.T) {
	sys := paperSystem(t, 0.5)
	res, err := Nash(sys, NashOptions{Init: InitZero, Eps: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Norms) < 2 {
		t.Skip("converged immediately")
	}
	// The tail of the norm sequence must be monotonically shrinking
	// (geometric convergence); allow the first few rounds to be rough.
	start := len(res.Norms) / 2
	for k := start + 1; k < len(res.Norms); k++ {
		if res.Norms[k] > res.Norms[k-1]*1.5 {
			t.Errorf("norm rose sharply at round %d: %v -> %v", k, res.Norms[k-1], res.Norms[k])
		}
	}
}

func TestNashSingleUserMatchesOptim(t *testing.T) {
	// With one user the Nash equilibrium reduces to the overall optimum
	// (Remark in §2.2.1 II).
	mu := table41()
	sys, err := NewSystem(mu, []float64{0.6 * 510})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Nash(sys, NashOptions{Init: InitZero, Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GOS{}.Profile(sys)
	if err != nil {
		t.Fatal(err)
	}
	nashLoads := sys.Loads(res.Profile)
	gosLoads := sys.Loads(g)
	if d := metrics.LInfNorm(nashLoads, gosLoads); d > 1e-6 {
		t.Errorf("single-user NASH differs from GOS by %v", d)
	}
}

func TestIterationBudget(t *testing.T) {
	sys := paperSystem(t, 0.9)
	_, err := Nash(sys, NashOptions{Init: InitZero, Eps: 1e-12, MaxIter: 1})
	if err == nil {
		t.Error("expected ErrNoConvergence with a one-iteration budget")
	}
}

func TestSchemesFeasible(t *testing.T) {
	sys := paperSystem(t, 0.6)
	for _, sch := range AllSchemes() {
		p, err := sch.Profile(sys)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if err := sys.ValidateProfile(p); err != nil {
			t.Errorf("%s: infeasible profile: %v", sch.Name(), err)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	want := []string{"NASH", "GOS", "IOS", "PS"}
	got := AllSchemes()
	for k, name := range want {
		if got[k].Name() != name {
			t.Errorf("scheme %d = %s, want %s", k, got[k].Name(), name)
		}
	}
	if InitZero.String() != "NASH_0" || InitProportional.String() != "NASH_P" {
		t.Error("Init.String mismatch")
	}
	if Init(9).String() == "" {
		t.Error("unknown Init should still print")
	}
}

// TestPaperOrderingMediumLoad reproduces the Figure 4.4 shape at ρ=50%:
// GOS < NASH < PS with NASH ≈30% below PS and ≈7% above GOS.
func TestPaperOrderingMediumLoad(t *testing.T) {
	sys := paperSystem(t, 0.5)
	times := map[string]float64{}
	for _, sch := range AllSchemes() {
		p, err := sch.Profile(sys)
		if err != nil {
			t.Fatal(err)
		}
		times[sch.Name()] = sys.OverallTime(p)
	}
	if !(times["GOS"] < times["NASH"] && times["NASH"] < times["PS"]) {
		t.Fatalf("ordering violated: %v", times)
	}
	vsPS := (times["PS"] - times["NASH"]) / times["PS"]
	vsGOS := (times["NASH"] - times["GOS"]) / times["GOS"]
	if vsPS < 0.15 || vsPS > 0.45 {
		t.Errorf("NASH vs PS improvement = %.0f%%, paper reports ~30%%", vsPS*100)
	}
	if vsGOS < 0 || vsGOS > 0.20 {
		t.Errorf("NASH vs GOS gap = %.0f%%, paper reports ~7%%", vsGOS*100)
	}
}

// TestUserFairness checks the Figure 4.4/4.5 fairness claims: PS and IOS
// hold user-level fairness 1; NASH stays close to 1; GOS drops below.
func TestUserFairness(t *testing.T) {
	sys := paperSystem(t, 0.9)
	fair := map[string]float64{}
	for _, sch := range AllSchemes() {
		p, err := sch.Profile(sys)
		if err != nil {
			t.Fatal(err)
		}
		fair[sch.Name()] = metrics.FairnessIndex(sys.UserTimes(p))
	}
	if math.Abs(fair["PS"]-1) > 1e-9 {
		t.Errorf("PS fairness = %v, want 1", fair["PS"])
	}
	if math.Abs(fair["IOS"]-1) > 1e-6 {
		t.Errorf("IOS fairness = %v, want 1", fair["IOS"])
	}
	if fair["NASH"] < 0.95 {
		t.Errorf("NASH fairness = %v, want close to 1", fair["NASH"])
	}
	if fair["GOS"] > fair["NASH"] {
		t.Errorf("GOS fairness %v should be below NASH %v", fair["GOS"], fair["NASH"])
	}
	if fair["GOS"] < 0.75 || fair["GOS"] > 1 {
		t.Errorf("GOS fairness = %v, paper reports ~0.92 at high load", fair["GOS"])
	}
}

// TestNashUserOptimal: at the equilibrium each user's time is within a
// whisker of its best response — and NASH times never exceed PS times for
// any user by construction of user optimality against the same workload?
// No: user optimality is relative to others' equilibrium strategies, so
// only the best-reply property is guaranteed; assert exactly that.
func TestNashUserOptimal(t *testing.T) {
	sys := paperSystem(t, 0.6)
	res, err := Nash(sys, NashOptions{Init: InitProportional, Eps: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for j := range sys.Phi {
		avail := sys.Available(res.Profile, j)
		best, err := BestReply(avail, sys.Phi[j])
		if err != nil {
			t.Fatal(err)
		}
		cur := BestReplyTime(avail, res.Profile.S[j], sys.Phi[j])
		opt := BestReplyTime(avail, best, sys.Phi[j])
		if cur > opt*(1+1e-6) {
			t.Errorf("user %d: equilibrium time %v exceeds best response %v", j, cur, opt)
		}
	}
}

func TestProfileClone(t *testing.T) {
	p := NewProfile(2, 2)
	p.S[0][0] = 0.5
	q := p.Clone()
	q.S[0][0] = 0.9
	if p.S[0][0] != 0.5 {
		t.Error("Clone aliases the original")
	}
}

func TestLoadsMatchResponse(t *testing.T) {
	// Cross-check UserTimes against queueing.SystemResponseTime when all
	// users play identical strategies.
	sys := paperSystem(t, 0.4)
	p, err := PS{}.Profile(sys)
	if err != nil {
		t.Fatal(err)
	}
	lam := sys.Loads(p)
	want := queueing.SystemResponseTime(sys.Mu, lam)
	got := sys.OverallTime(p)
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("overall time %v != system response time %v", got, want)
	}
}

// TestJacobiAblation contrasts the paper's sequential (Gauss-Seidel)
// best-reply schedule with the simultaneous (Jacobi) ablation. The
// sequential schedule converges; the simultaneous one oscillates on the
// paper's configuration - all ten users simultaneously pile onto the
// same momentarily-underloaded computers and then simultaneously flee -
// which is exactly the design rationale for serializing updates around
// the ring in §4.3.
func TestJacobiAblation(t *testing.T) {
	sys := paperSystem(t, 0.6)
	seq, err := Nash(sys, NashOptions{Init: InitProportional, Eps: 1e-8, Update: UpdateSequential})
	if err != nil {
		t.Fatalf("sequential schedule failed: %v", err)
	}
	ok, err := IsNashEquilibrium(sys, seq.Profile, 1e-6)
	if err != nil || !ok {
		t.Fatalf("sequential schedule not at equilibrium (ok=%v err=%v)", ok, err)
	}
	_, err = Nash(sys, NashOptions{Init: InitProportional, Eps: 1e-8, Update: UpdateSimultaneous, MaxIter: 500})
	if err == nil {
		t.Error("jacobi schedule unexpectedly converged; the ablation documents its oscillation")
	}
	if UpdateSequential.String() != "gauss-seidel" || UpdateSimultaneous.String() != "jacobi" || Update(7).String() == "" {
		t.Error("Update.String mismatch")
	}
}

// TestJacobiConvergesForFewUsers: with a single user the Jacobi and
// sequential schedules coincide, so the ablation's divergence is a
// genuine multi-user interaction effect.
func TestJacobiConvergesForFewUsers(t *testing.T) {
	sys, err := NewSystem(table41(), []float64{0.5 * 510})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Nash(sys, NashOptions{Init: InitProportional, Eps: 1e-8, Update: UpdateSimultaneous})
	if err != nil {
		t.Fatalf("single-user jacobi failed: %v", err)
	}
	ok, err := IsNashEquilibrium(sys, res.Profile, 1e-6)
	if err != nil || !ok {
		t.Errorf("single-user jacobi not at equilibrium (ok=%v err=%v)", ok, err)
	}
}
