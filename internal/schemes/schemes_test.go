package schemes

import (
	"math"
	"testing"
	"testing/quick"

	"gtlb/internal/metrics"
	"gtlb/internal/numeric"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

func table31() []float64 {
	return []float64{
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.065, 0.065, 0.065,
		0.13, 0.13,
	}
}

func TestNames(t *testing.T) {
	want := map[string]bool{"COOP": true, "PROP": true, "WARDROP": true, "OPTIM": true}
	for _, a := range All() {
		if !want[a.Name()] {
			t.Errorf("unexpected scheme name %q", a.Name())
		}
		delete(want, a.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing schemes: %v", want)
	}
}

func TestPropProportions(t *testing.T) {
	lam, err := Prop{}.Allocate([]float64{1, 2, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2.5}
	for i := range want {
		if math.Abs(lam[i]-want[i]) > 1e-12 {
			t.Errorf("lambda[%d] = %v, want %v", i, lam[i], want[i])
		}
	}
}

func TestPropEqualUtilization(t *testing.T) {
	mu := table31()
	lam, err := Prop{}.Allocate(mu, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rho0 := lam[0] / mu[0]
	for i := range mu {
		if math.Abs(lam[i]/mu[i]-rho0) > 1e-12 {
			t.Errorf("PROP utilization differs at %d: %v vs %v", i, lam[i]/mu[i], rho0)
		}
	}
}

func TestOptimSquareRootRule(t *testing.T) {
	mu := []float64{4, 1}
	phi := 2.0
	lam, err := Optim{}.Allocate(mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	// alpha = (5-2)/(2+1) = 1; lambda = (4-2, 1-1) = (2, 0).
	if math.Abs(lam[0]-2) > 1e-12 || math.Abs(lam[1]-0) > 1e-12 {
		t.Errorf("lambda = %v, want [2 0]", lam)
	}
}

func TestOptimKuhnTucker(t *testing.T) {
	// On the used set the marginal cost μ_i/(μ_i−λ_i)² must be equal.
	mu := table31()
	lam, err := Optim{}.Allocate(mu, 0.6*0.663)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for i, l := range lam {
		if l <= 0 {
			continue
		}
		mc := mu[i] / ((mu[i] - l) * (mu[i] - l))
		if ref == 0 {
			ref = mc
		} else if math.Abs(mc-ref) > 1e-6*ref {
			t.Errorf("marginal cost at %d = %v, want %v", i, mc, ref)
		}
	}
}

func TestOptimBeatsOthersOnMeanResponseTime(t *testing.T) {
	mu := table31()
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		phi := rho * 0.663
		var optimT float64
		times := map[string]float64{}
		for _, a := range All() {
			lam, err := a.Allocate(mu, phi)
			if err != nil {
				t.Fatal(err)
			}
			tt := queueing.SystemResponseTime(mu, lam)
			times[a.Name()] = tt
			if a.Name() == "OPTIM" {
				optimT = tt
			}
		}
		for name, tt := range times {
			if tt < optimT-1e-9 {
				t.Errorf("rho=%.1f: %s (%.4f) beats OPTIM (%.4f)", rho, name, tt, optimT)
			}
		}
	}
}

// TestPaperOrderingMediumLoad checks the Figure 3.1 shape at ρ = 50%:
// OPTIM < COOP < PROP with COOP ≈19% below PROP and ≈20% above OPTIM.
func TestPaperOrderingMediumLoad(t *testing.T) {
	mu := table31()
	phi := 0.5 * 0.663
	get := func(a Allocator) float64 {
		lam, err := a.Allocate(mu, phi)
		if err != nil {
			t.Fatal(err)
		}
		return queueing.SystemResponseTime(mu, lam)
	}
	coop := get(Coop{})
	prop := get(Prop{})
	optim := get(Optim{})
	if !(optim < coop && coop < prop) {
		t.Fatalf("ordering violated: OPTIM=%.2f COOP=%.2f PROP=%.2f", optim, coop, prop)
	}
	vsProp := (prop - coop) / prop
	vsOptim := (coop - optim) / optim
	if math.Abs(vsProp-0.19) > 0.06 {
		t.Errorf("COOP vs PROP improvement = %.0f%%, paper reports 19%%", vsProp*100)
	}
	if math.Abs(vsOptim-0.20) > 0.06 {
		t.Errorf("COOP vs OPTIM gap = %.0f%%, paper reports 20%%", vsOptim*100)
	}
}

// TestWardropMatchesCOOP reproduces the observation of §3.4.2 that
// "WARDROP and COOP yield the same performance for the whole range of
// system utilization" — for this convex game the Wardrop equilibrium
// coincides with the NBS.
func TestWardropMatchesCOOP(t *testing.T) {
	mu := table31()
	for _, rho := range []float64{0.1, 0.4, 0.6, 0.9} {
		phi := rho * 0.663
		reg := obs.NewRegistry()
		w := &Wardrop{Obs: reg}
		wl, err := w.Allocate(mu, phi)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := (Coop{}).Allocate(mu, phi)
		if err != nil {
			t.Fatal(err)
		}
		if d := metrics.LInfNorm(wl, cl); d > 1e-6 {
			t.Errorf("rho=%.1f: WARDROP and COOP differ by %v", rho, d)
		}
		if reg.Get(obs.WardropStep.Name()) == 0 {
			t.Errorf("rho=%.1f: WARDROP reported zero iterations", rho)
		}
	}
}

func TestWardropZeroLoad(t *testing.T) {
	w := &Wardrop{}
	lam, err := w.Allocate([]float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if numeric.Sum(lam) != 0 {
		t.Errorf("zero-load allocation = %v", lam)
	}
}

func TestAllSchemesFeasibleQuick(t *testing.T) {
	for _, a := range All() {
		a := a
		prop := func(rates []float64, load float64) bool {
			mu := make([]float64, 0, len(rates))
			for _, r := range rates {
				if v := math.Abs(math.Mod(r, 50)); v > 1e-3 {
					mu = append(mu, v)
				}
			}
			if len(mu) == 0 {
				return true
			}
			var total float64
			for _, m := range mu {
				total += m
			}
			f := math.Abs(math.Mod(load, 1))
			if math.IsNaN(f) {
				return true
			}
			phi := f * 0.95 * total
			lam, err := a.Allocate(mu, phi)
			if err != nil {
				return false
			}
			for i, l := range lam {
				if l < -1e-12 || l >= mu[i] {
					return false
				}
			}
			return math.Abs(numeric.Sum(lam)-phi) <= 1e-6*(1+phi)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestSchemesRejectInvalid(t *testing.T) {
	for _, a := range All() {
		if _, err := a.Allocate([]float64{1}, 2); err == nil {
			t.Errorf("%s accepted an overloaded system", a.Name())
		}
		if _, err := a.Allocate(nil, 0); err == nil {
			t.Errorf("%s accepted an empty system", a.Name())
		}
	}
}

// TestFairnessComparison verifies the fairness ordering of Figure 3.1:
// COOP and WARDROP hold index 1; PROP sits at 0.731; OPTIM degrades with
// load.
func TestFairnessComparison(t *testing.T) {
	mu := table31()
	fairness := func(a Allocator, phi float64) float64 {
		lam, err := a.Allocate(mu, phi)
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, 0, len(mu))
		for i, l := range lam {
			if l > 0 {
				times = append(times, queueing.ResponseTime(mu[i], l))
			}
		}
		return metrics.FairnessIndex(times)
	}
	phiHigh := 0.9 * 0.663
	if got := fairness(Coop{}, phiHigh); math.Abs(got-1) > 1e-9 {
		t.Errorf("COOP fairness = %v, want 1", got)
	}
	if got := fairness(&Wardrop{}, phiHigh); math.Abs(got-1) > 1e-6 {
		t.Errorf("WARDROP fairness = %v, want 1", got)
	}
	if got := fairness(Prop{}, phiHigh); math.Abs(got-0.731) > 5e-3 {
		t.Errorf("PROP fairness = %v, want 0.731", got)
	}
	optHigh := fairness(Optim{}, phiHigh)
	optLow := fairness(Optim{}, 0.1*0.663)
	if !(optHigh < optLow) {
		t.Errorf("OPTIM fairness should degrade with load: low=%v high=%v", optLow, optHigh)
	}
	if math.Abs(optHigh-0.88) > 0.05 {
		t.Errorf("OPTIM fairness at 90%% load = %v, paper reports ~0.88", optHigh)
	}
}
