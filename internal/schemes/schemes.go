// Package schemes implements the static single-class load-balancing
// schemes the paper compares the cooperative solution against (§3.4.2):
//
//   - PROP    — proportional allocation (Chow & Kohler);
//   - OPTIM   — the overall (social) optimum of Tantawi & Towsley /
//     Tang & Chanson, minimizing the system-wide expected response time;
//   - WARDROP — the individual optimum, where infinitely many jobs each
//     minimize their own response time (Kameda et al.), computed by an
//     iterative procedure;
//   - COOP    — the paper's Nash Bargaining Solution, re-exported from
//     internal/core behind the common Allocator interface.
//
// All allocators take the computers' processing rates and the total
// arrival rate and return the per-computer arrival-rate vector.
package schemes

import (
	"fmt"
	"math"
	"sort"

	"gtlb/internal/core"
	"gtlb/internal/numeric"
	"gtlb/internal/obs"
)

// Allocator computes a static load allocation for a single-class system.
type Allocator interface {
	// Name returns the scheme's name as used in the paper's figures.
	Name() string
	// Allocate splits the total arrival rate phi across the computers
	// with processing rates mu, returning per-computer arrival rates
	// that satisfy positivity, conservation (Σλ = Φ) and stability
	// (λ_i < μ_i).
	Allocate(mu []float64, phi float64) ([]float64, error)
}

// Prop is the proportional scheme: λ_i = μ_i · Φ/Σμ. It is the "natural"
// allocation; every computer runs at the same utilization, so response
// times are proportional to 1/μ_i — fast computers serve jobs much faster
// than slow ones, and the scheme is unfair from the jobs' perspective
// (fairness index 0.731 for the Table 3.1 configuration).
type Prop struct{}

// Name returns "PROP".
func (Prop) Name() string { return "PROP" }

// Allocate implements the PROP algorithm of §3.4.2 in O(n).
func (Prop) Allocate(mu []float64, phi float64) ([]float64, error) {
	sys, err := core.NewSystem(mu, phi)
	if err != nil {
		return nil, err
	}
	total := sys.TotalMu()
	out := make([]float64, len(mu))
	for i, m := range mu {
		out[i] = m * phi / total
	}
	return out, nil
}

// Optim is the overall optimal scheme: it minimizes the system-wide
// expected response time D(β) = Σ λ_i/(μ_i−λ_i) (eq. 3.26). The
// Kuhn–Tucker conditions give the square-root rule
//
//	λ_i = μ_i − α·√μ_i  on the used set,  α = (Σμ − Φ)/Σ√μ,
//
// with computers dropped (slowest first) while √μ_c ≤ α. The global
// optimum favours fast computers more than proportionally, which lowers
// the mean response time but treats jobs on slow computers unfairly.
type Optim struct{}

// Name returns "OPTIM".
func (Optim) Name() string { return "OPTIM" }

// Allocate implements the OPTIM algorithm of §3.4.2 in O(n log n).
func (Optim) Allocate(mu []float64, phi float64) ([]float64, error) {
	sys, err := core.NewSystem(mu, phi)
	if err != nil {
		return nil, err
	}
	n := len(mu)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return mu[order[a]] > mu[order[b]] })

	sumMu := sys.TotalMu()
	sumSqrt := 0.0
	for _, m := range mu {
		sumSqrt += math.Sqrt(m)
	}
	c := n
	alpha := (sumMu - phi) / sumSqrt
	for c > 1 && math.Sqrt(mu[order[c-1]]) <= alpha {
		sumMu -= mu[order[c-1]]
		sumSqrt -= math.Sqrt(mu[order[c-1]])
		c--
		alpha = (sumMu - phi) / sumSqrt
	}

	out := make([]float64, n)
	for k := 0; k < c; k++ {
		i := order[k]
		lam := mu[i] - alpha*math.Sqrt(mu[i])
		if lam < 0 {
			lam = 0
		}
		out[i] = lam
	}
	return out, nil
}

// Wardrop is the individual-optimal scheme: at the Wardrop equilibrium
// every job in service experiences the same expected response time T and
// no unused computer would offer a better one (1/μ_i ≥ T for idle i).
// For parallel M/M/1 stations the equilibrium loads are
// λ_i = max(0, μ_i − 1/T) with T fixed by conservation Σλ_i = Φ; the
// algorithm finds T iteratively by bisection, mirroring the iterative
// procedure of Kameda et al. The tolerance Eps bounds the conservation
// residual |Σλ − Φ| (the paper's acceptable tolerance ε).
type Wardrop struct {
	// Eps is the acceptable conservation tolerance; 0 means 1e-10.
	Eps float64
	// Obs optionally receives one WardropStep event per bisection step
	// (Time = step index, V = the midpoint level probed) and a final
	// WardropSolve with the accepted level — the iterative trajectory
	// the paper contrasts with COOP's direct solution. nil disables.
	// Concurrent Allocate calls on a shared Wardrop report interleaved;
	// the observer must be safe for concurrent use.
	Obs obs.Observer
}

// Name returns "WARDROP".
func (*Wardrop) Name() string { return "WARDROP" }

// Allocate computes the Wardrop equilibrium loads.
func (w *Wardrop) Allocate(mu []float64, phi float64) ([]float64, error) {
	sys, err := core.NewSystem(mu, phi)
	if err != nil {
		return nil, err
	}
	eps := w.Eps
	if eps <= 0 {
		eps = 1e-10
	}
	out := make([]float64, len(mu))
	if phi == 0 {
		return out, nil
	}

	// Total equilibrium flow as a function of the common response time
	// level T; increasing in T, so bisection applies.
	flow := func(t float64) float64 {
		var s float64
		for _, m := range mu {
			if l := m - 1/t; l > 0 {
				s += l
			}
		}
		return s
	}

	muMax := 0.0
	for _, m := range mu {
		if m > muMax {
			muMax = m
		}
	}
	lo := 1 / muMax // flow(lo) = 0 < phi
	hi := float64(len(mu)) / (sys.TotalMu() - phi)
	// hi bounds the equalized level from above: if all computers were
	// used, T = n/(Σμ−Φ); dropping computers only lowers the required T,
	// but grow hi defensively until it brackets.
	iters := 0
	for flow(hi) < phi {
		hi *= 2
		iters++
		if iters > 200 {
			return nil, fmt.Errorf("schemes: wardrop failed to bracket equilibrium (phi=%g)", phi)
		}
	}
	for hi-lo > eps*lo && math.Abs(flow(lo+(hi-lo)/2)-phi) > eps {
		mid := lo + (hi-lo)/2
		if flow(mid) < phi {
			lo = mid
		} else {
			hi = mid
		}
		iters++
		if w.Obs != nil {
			w.Obs.Observe(obs.Event{Kind: obs.WardropStep, Time: float64(iters), V: mid})
		}
		if iters > 10_000 {
			break
		}
	}
	t := lo + (hi-lo)/2
	if w.Obs != nil {
		w.Obs.Observe(obs.Event{Kind: obs.WardropSolve, Time: float64(iters), V: t})
	}
	for i, m := range mu {
		if l := m - 1/t; l > 0 {
			out[i] = l
		}
	}
	// Repair any residual conservation error on the largest entry so the
	// returned vector satisfies Σλ = Φ exactly (within float rounding).
	residual := phi - numeric.Sum(out)
	if residual != 0 {
		best := -1
		for i := range out {
			if out[i] > 0 && (best < 0 || out[i] > out[best]) {
				best = i
			}
		}
		if best >= 0 {
			out[best] += residual
		}
	}
	return out, nil
}

// Coop adapts the COOP algorithm of internal/core to the Allocator
// interface so the comparison harness treats all four schemes uniformly.
type Coop struct{}

// Name returns "COOP".
func (Coop) Name() string { return "COOP" }

// Allocate computes the Nash Bargaining Solution loads.
func (Coop) Allocate(mu []float64, phi float64) ([]float64, error) {
	sys, err := core.NewSystem(mu, phi)
	if err != nil {
		return nil, err
	}
	a, err := core.COOP(sys)
	if err != nil {
		return nil, err
	}
	return a.Lambda, nil
}

// All returns the four Chapter 3 schemes in the order the paper's figures
// list them: COOP, PROP, WARDROP, OPTIM.
func All() []Allocator {
	return []Allocator{Coop{}, Prop{}, &Wardrop{}, Optim{}}
}
