// Package core implements the paper's primary contribution: load
// balancing in a single-class-job distributed system formulated as a
// cooperative game among computers, solved by the Nash Bargaining
// Solution (NBS).
//
// Each of the n heterogeneous computers is an M/M/1 station with service
// rate μ_i; a total external Poisson stream of rate Φ must be split into
// per-computer rates λ_i. The cooperative game (Definition 3.6) has the
// computers as players, objective functions f_i(λ_i) = μ_i − λ_i to be
// maximized simultaneously, and initial performance u_i⁰ = 0. Theorems
// 3.4–3.6 reduce the NBS to
//
//	maximize Σ_i ln(μ_i − λ_i)   subject to  Σ λ_i = Φ, λ_i ≥ 0, λ_i < μ_i
//
// whose interior solution is λ_i = μ_i − (Σμ − Φ)/n: every computer keeps
// the same spare capacity, hence the same expected response time — the
// allocation is Pareto optimal and perfectly fair (Jain index 1, Theorem
// 3.8). When a computer is too slow for the interior solution to be
// feasible it is dropped (λ_i = 0) and the system re-solved on the
// remainder; the COOP algorithm below does this in O(n log n).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// ErrOverload is returned when the total arrival rate meets or exceeds the
// aggregate processing rate, so no stable allocation exists.
var ErrOverload = errors.New("core: total arrival rate must be less than aggregate processing rate")

// System describes a single-class-job distributed system: the computers'
// processing rates and the total external arrival rate.
type System struct {
	Mu  []float64 // per-computer processing rates (jobs/sec), all positive
	Phi float64   // total external arrival rate (jobs/sec)
}

// NewSystem constructs and validates a System.
func NewSystem(mu []float64, phi float64) (System, error) {
	s := System{Mu: mu, Phi: phi}
	if err := s.Validate(); err != nil {
		return System{}, err
	}
	return s, nil
}

// Validate checks rate positivity and the aggregate stability condition
// Φ < Σμ (the game's feasible set is empty otherwise).
func (s System) Validate() error {
	if len(s.Mu) == 0 {
		return errors.New("core: system needs at least one computer")
	}
	var total float64
	for i, m := range s.Mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("core: processing rate %d must be a positive finite number, got %g", i, m)
		}
		total += m
	}
	if s.Phi < 0 || math.IsNaN(s.Phi) {
		return fmt.Errorf("core: total arrival rate must be non-negative, got %g", s.Phi)
	}
	if s.Phi >= total {
		return fmt.Errorf("%w (phi=%g, sum mu=%g)", ErrOverload, s.Phi, total)
	}
	return nil
}

// TotalMu returns the aggregate processing rate Σμ.
func (s System) TotalMu() float64 {
	var t float64
	for _, m := range s.Mu {
		t += m
	}
	return t
}

// Allocation is the result of solving the cooperative game: the load
// vector (in the caller's computer order) together with the equalized
// spare capacity of the computers that received load.
type Allocation struct {
	Lambda []float64 // per-computer arrival rates, Σ = Φ
	// Spare is the common spare capacity d = μ_i − λ_i of every used
	// computer; the NBS response time at each used computer is 1/Spare.
	Spare float64
	// Used reports which computers received positive load. Computers
	// outside the bargaining set (Theorem 3.1's set J) have λ_i = 0.
	Used []bool
}

// ResponseTime returns the common expected response time 1/(μ_i − λ_i)
// of the used computers — by Theorem 3.8 every job sees this value
// regardless of where it is allocated.
func (a Allocation) ResponseTime() float64 {
	if a.Spare <= 0 {
		return math.Inf(1)
	}
	return 1 / a.Spare
}

// NumUsed returns how many computers received positive load.
func (a Allocation) NumUsed() int {
	n := 0
	for _, u := range a.Used {
		if u {
			n++
		}
	}
	return n
}

// COOP computes the Nash Bargaining Solution of the cooperative
// load-balancing game with the COOP algorithm of §3.3:
//
//  1. sort the computers in decreasing order of processing rate;
//  2. d ← (Σμ − Φ)/n;
//  3. while the slowest remaining computer has μ_c ≤ d, set λ_c = 0,
//     remove it and recompute d over the remainder;
//  4. λ_i ← μ_i − d for the remaining computers.
//
// The returned allocation is in the original computer order. Runtime is
// O(n log n) (Theorem 3.7 proves correctness; in general computing an NBS
// is NP-hard, but this game is convex).
func COOP(sys System) (Allocation, error) {
	return COOPObserved(sys, nil)
}

// COOPObserved is COOP reporting its water-fill trajectory to o: one
// CoopDrop event per dropped computer (A = the computer, V = the
// recomputed water level, Time = the drop step) and a final CoopSolve
// with the solution's level. A nil observer costs nothing.
func COOPObserved(sys System, o obs.Observer) (Allocation, error) {
	if err := sys.Validate(); err != nil {
		return Allocation{}, err
	}
	n := len(sys.Mu)

	// Indices sorted by decreasing rate; ties broken by original index so
	// the algorithm is deterministic.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sys.Mu[order[a]] > sys.Mu[order[b]]
	})

	// Step 2: initial spare capacity over all computers.
	sumMu := sys.TotalMu()
	c := n
	d := (sumMu - sys.Phi) / float64(c)

	// Step 3: drop computers whose rate cannot cover the common spare
	// capacity (their interior λ would be negative — "extremely slow
	// computers are assigned no jobs").
	step := 0
	for c > 1 && sys.Mu[order[c-1]] <= d {
		dropped := order[c-1]
		sumMu -= sys.Mu[dropped]
		c--
		d = (sumMu - sys.Phi) / float64(c)
		step++
		if o != nil {
			o.Observe(obs.Event{Kind: obs.CoopDrop, Time: float64(step), A: int32(dropped), V: d})
		}
	}
	if o != nil {
		o.Observe(obs.Event{Kind: obs.CoopSolve, Time: float64(step), V: d})
	}

	alloc := Allocation{
		Lambda: make([]float64, n),
		Spare:  d,
		Used:   make([]bool, n),
	}
	// Step 4: equal spare capacity on the retained computers.
	for k := 0; k < c; k++ {
		i := order[k]
		lam := sys.Mu[i] - d
		if lam <= 0 {
			// Zero happens when Φ = 0 on one computer; negative only
			// through floating-point underflow at the drop boundary.
			// Either way the computer carries no load: clamp and leave it
			// marked unused so Used stays consistent with Lambda.
			lam = 0
		} else {
			alloc.Used[i] = true
		}
		alloc.Lambda[i] = lam
	}
	return alloc, nil
}

// PerComputerResponseTimes returns T_i = 1/(μ_i − λ_i) for used computers
// and 0 for idle ones, the quantity plotted per computer in Figures
// 3.2/3.3.
func PerComputerResponseTimes(sys System, lambda []float64) []float64 {
	out := make([]float64, len(sys.Mu))
	for i := range sys.Mu {
		if lambda[i] > 0 {
			out[i] = queueing.ResponseTime(sys.Mu[i], lambda[i])
		}
	}
	return out
}
