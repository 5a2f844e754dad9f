package core

import (
	"math"
	"testing"
	"testing/quick"

	"gtlb/internal/metrics"
	"gtlb/internal/numeric"
)

// table31 is the Table 3.1 / Table 5.1 system configuration: 16
// heterogeneous computers with relative rates 1:2:5:10 and slowest rate
// 0.013 jobs/sec.
func table31() []float64 {
	return []float64{
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.065, 0.065, 0.065,
		0.13, 0.13,
	}
}

func sum(xs []float64) float64 { return numeric.Sum(xs) }

func TestSystemValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mu   []float64
		phi  float64
	}{
		{"empty", nil, 1},
		{"zero rate", []float64{0, 1}, 0.5},
		{"negative rate", []float64{-1, 2}, 0.5},
		{"negative phi", []float64{1}, -1},
		{"overload boundary", []float64{1, 2}, 3},
		{"overload", []float64{1, 2}, 4},
		{"nan rate", []float64{math.NaN()}, 0.1},
		{"inf rate", []float64{math.Inf(1)}, 0.1},
	}
	for _, c := range cases {
		if _, err := NewSystem(c.mu, c.phi); err == nil {
			t.Errorf("%s: NewSystem accepted invalid input", c.name)
		}
	}
	if _, err := NewSystem([]float64{1, 2}, 2.9); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestCOOPInteriorSolution(t *testing.T) {
	t.Parallel()
	// Fast homogeneous system: nobody dropped, λ_i = μ_i - (Σμ-Φ)/n.
	sys, err := NewSystem([]float64{4, 4, 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range a.Lambda {
		if math.Abs(l-3) > 1e-12 {
			t.Errorf("lambda[%d] = %v, want 3", i, l)
		}
		if !a.Used[i] {
			t.Errorf("computer %d unexpectedly unused", i)
		}
	}
	if math.Abs(a.Spare-1) > 1e-12 {
		t.Errorf("spare = %v, want 1", a.Spare)
	}
	if math.Abs(a.ResponseTime()-1) > 1e-12 {
		t.Errorf("response time = %v, want 1", a.ResponseTime())
	}
}

func TestCOOPDropsSlowComputers(t *testing.T) {
	t.Parallel()
	// One extremely slow computer must receive no jobs.
	sys, err := NewSystem([]float64{10, 10, 0.001}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lambda[2] != 0 || a.Used[2] {
		t.Errorf("slow computer got lambda=%v used=%v, want 0/false", a.Lambda[2], a.Used[2])
	}
	// Remaining two split evenly: λ = 10 - (20-4)/2 = 2.
	for i := 0; i < 2; i++ {
		if math.Abs(a.Lambda[i]-2) > 1e-12 {
			t.Errorf("lambda[%d] = %v, want 2", i, a.Lambda[i])
		}
	}
}

func TestCOOPPreservesInputOrder(t *testing.T) {
	t.Parallel()
	// Rates deliberately unsorted; the allocation must line up with the
	// caller's order.
	sys, err := NewSystem([]float64{1, 8, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !(a.Lambda[1] > a.Lambda[2] && a.Lambda[2] >= a.Lambda[0]) {
		t.Errorf("allocation %v not aligned with rates (1,8,2)", a.Lambda)
	}
	if math.Abs(sum(a.Lambda)-5) > 1e-12 {
		t.Errorf("conservation violated: sum=%v", sum(a.Lambda))
	}
}

// TestCOOPPaperMediumLoad checks the anchor quoted under Figure 3.2: at
// ρ = 50% on the Table 3.1 system the NBS equalizes response times at
// 39.44 seconds and leaves the six slowest computers idle.
func TestCOOPPaperMediumLoad(t *testing.T) {
	t.Parallel()
	mu := table31()
	sys, err := NewSystem(mu, 0.5*0.663)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.ResponseTime(); math.Abs(got-39.44) > 0.05 {
		t.Errorf("response time = %.2f s, want 39.44 s (paper, Figure 3.2)", got)
	}
	idle := 0
	for i := 0; i < 6; i++ { // the 0.013 jobs/sec computers
		if a.Lambda[i] == 0 {
			idle++
		}
	}
	if idle != 6 {
		t.Errorf("%d slow computers idle, want 6 (paper: C11..C16 unused)", idle)
	}
	if a.NumUsed() != 10 {
		t.Errorf("NumUsed = %d, want 10", a.NumUsed())
	}
}

// TestCOOPPaperHighLoad checks Figure 3.3's claim that at ρ = 90% COOP
// "utilizes all the computers".
func TestCOOPPaperHighLoad(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(table31(), 0.9*0.663)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumUsed() != 16 {
		t.Errorf("NumUsed = %d, want 16 (all computers used at high load)", a.NumUsed())
	}
}

// TestCOOPFairnessTheorem verifies Theorem 3.8: the fairness index of the
// per-computer expected response times equals 1.
func TestCOOPFairnessTheorem(t *testing.T) {
	t.Parallel()
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		sys, err := NewSystem(table31(), rho*0.663)
		if err != nil {
			t.Fatal(err)
		}
		a, err := COOP(sys)
		if err != nil {
			t.Fatal(err)
		}
		times := PerComputerResponseTimes(sys, a.Lambda)
		if idx := metrics.FairnessIndex(times); math.Abs(idx-1) > 1e-9 {
			t.Errorf("rho=%.1f: fairness index = %v, want 1 (Theorem 3.8)", rho, idx)
		}
	}
}

func TestCOOPSingleComputer(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem([]float64{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lambda[0] != 1 || a.Spare != 1 {
		t.Errorf("single computer allocation %+v", a)
	}
}

func TestCOOPZeroLoad(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem([]float64{3, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := COOP(sys)
	if err != nil {
		t.Fatal(err)
	}
	// With Φ=0 the interior d = Σμ/n = 2 exceeds μ2=1, so the slow
	// computer is dropped and the fast one gets λ=0 as well.
	if sum(a.Lambda) != 0 {
		t.Errorf("zero load allocated jobs: %v", a.Lambda)
	}
}

func TestCOOPRejectsInvalidSystem(t *testing.T) {
	t.Parallel()
	if _, err := COOP(System{Mu: []float64{1}, Phi: 2}); err == nil {
		t.Error("COOP accepted an overloaded system")
	}
}

// quickSystem builds a random feasible system from raw quick-check input.
func quickSystem(rates []float64, load float64) (System, bool) {
	mu := make([]float64, 0, len(rates))
	for _, r := range rates {
		if v := math.Abs(math.Mod(r, 100)); v > 1e-3 && !math.IsNaN(v) {
			mu = append(mu, v)
		}
	}
	if len(mu) == 0 {
		return System{}, false
	}
	var total float64
	for _, m := range mu {
		total += m
	}
	f := math.Abs(math.Mod(load, 1))
	if math.IsNaN(f) {
		return System{}, false
	}
	phi := f * 0.98 * total
	sys, err := NewSystem(mu, phi)
	if err != nil {
		return System{}, false
	}
	return sys, true
}

// TestCOOPFeasibilityQuick: conservation, positivity and stability hold
// for arbitrary feasible systems.
func TestCOOPFeasibilityQuick(t *testing.T) {
	t.Parallel()
	prop := func(rates []float64, load float64) bool {
		sys, ok := quickSystem(rates, load)
		if !ok {
			return true
		}
		a, err := COOP(sys)
		if err != nil {
			return false
		}
		for i, l := range a.Lambda {
			if l < 0 || l >= sys.Mu[i] {
				return false
			}
		}
		return math.Abs(sum(a.Lambda)-sys.Phi) <= 1e-9*(1+sys.Phi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCOOPNBSOptimalityQuick: the COOP solution maximizes Σ ln(μ_i−λ_i)
// — no random feasible perturbation may beat it (Theorem 3.5/3.7).
func TestCOOPNBSOptimalityQuick(t *testing.T) {
	t.Parallel()
	objective := func(sys System, lambda []float64) float64 {
		var s float64
		for i, l := range lambda {
			d := sys.Mu[i] - l
			if d <= 0 {
				return math.Inf(-1)
			}
			s += math.Log(d)
		}
		return s
	}
	prop := func(rates []float64, load float64, di, dj uint, frac float64) bool {
		sys, ok := quickSystem(rates, load)
		if !ok || len(sys.Mu) < 2 || sys.Phi == 0 {
			return true
		}
		a, err := COOP(sys)
		if err != nil {
			return false
		}
		base := objective(sys, a.Lambda)
		// Move a random fraction of load between two computers.
		i := int(di % uint(len(sys.Mu)))
		j := int(dj % uint(len(sys.Mu)))
		if i == j {
			return true
		}
		f := math.Abs(math.Mod(frac, 1))
		moved := a.Lambda[i] * f
		pert := append([]float64(nil), a.Lambda...)
		pert[i] -= moved
		pert[j] += moved
		if pert[j] >= sys.Mu[j] {
			return true // infeasible perturbation, nothing to check
		}
		return objective(sys, pert) <= base+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCOOPParetoOptimalQuick: no feasible reallocation strictly improves
// every used computer's objective f_i = μ_i − λ_i simultaneously
// (Definition 3.3). For the equal-spare NBS any shift of load raises some
// λ_i, so this follows from conservation; the test exercises it directly.
func TestCOOPParetoOptimalQuick(t *testing.T) {
	t.Parallel()
	prop := func(rates []float64, load float64, seed uint64) bool {
		sys, ok := quickSystem(rates, load)
		if !ok || sys.Phi == 0 {
			return true
		}
		a, err := COOP(sys)
		if err != nil {
			return false
		}
		// A strictly Pareto-superior point would need λ'_i < λ_i for all
		// used computers and λ'_i ≤ 0 changes elsewhere, contradicting
		// Σλ' = Φ. Verify by constructing the "best possible" candidate:
		// reduce every positive λ by epsilon; conservation must break.
		const eps = 1e-6
		var total float64
		for _, l := range a.Lambda {
			if l > eps {
				total += l - eps
			} else {
				total += l
			}
		}
		return total <= sys.Phi+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCOOPEqualSpare: every used computer ends with identical spare
// capacity (the structural content of Theorem 3.6).
func TestCOOPEqualSpareQuick(t *testing.T) {
	t.Parallel()
	prop := func(rates []float64, load float64) bool {
		sys, ok := quickSystem(rates, load)
		if !ok {
			return true
		}
		a, err := COOP(sys)
		if err != nil {
			return false
		}
		for i, l := range a.Lambda {
			if !a.Used[i] {
				continue
			}
			if math.Abs((sys.Mu[i]-l)-a.Spare) > 1e-9*(1+a.Spare) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPerComputerResponseTimes(t *testing.T) {
	t.Parallel()
	sys, _ := NewSystem([]float64{4, 2}, 3)
	times := PerComputerResponseTimes(sys, []float64{2, 1})
	if math.Abs(times[0]-0.5) > 1e-12 || math.Abs(times[1]-1) > 1e-12 {
		t.Errorf("times = %v, want [0.5 1]", times)
	}
	times = PerComputerResponseTimes(sys, []float64{3, 0})
	if times[1] != 0 {
		t.Errorf("idle computer time = %v, want 0", times[1])
	}
}

func TestAllocationResponseTimeDegenerate(t *testing.T) {
	t.Parallel()
	a := Allocation{Spare: 0}
	if !math.IsInf(a.ResponseTime(), 1) {
		t.Error("zero spare should give +Inf response time")
	}
}

func TestSystemAccessors(t *testing.T) {
	t.Parallel()
	sys, _ := NewSystem([]float64{1, 3}, 2)
	if sys.TotalMu() != 4 {
		t.Errorf("TotalMu = %v, want 4", sys.TotalMu())
	}
}
