// Package mechanism implements Chapter 5: algorithmic mechanism design
// for load balancing among selfish computers.
//
// Each computer (agent) i privately knows its true value t_i = 1/μ_i, the
// inverse of its processing rate, and reports a bid b_i to a centralized
// mechanism. The mechanism runs the optimal allocation algorithm (the
// Chapter 3 OPTIM square-root rule) on the bids to obtain loads x_i(b)
// and hands each agent a payment. The cost an agent incurs is its
// utilization t_i·x_i; its profit is payment minus cost. Archer & Tardos'
// framework for one-parameter agents gives the truthful payment
//
//	P_i(b) = b_i·x_i(b) + ∫_{b_i}^{∞} x_i(u, b_{-i}) du            (eq. 5.16)
//
// which is well defined because the load curve u ↦ x_i(u, b_{-i}) is
// decreasing (Theorem 5.1) and reaches zero at a finite cut-off bid —
// past it, the allocation drops the agent entirely. Truth-telling then
// maximizes every agent's profit (Theorem 5.2) and truthful agents never
// lose (voluntary participation).
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"gtlb/internal/numeric"
	"gtlb/internal/queueing"
	"gtlb/internal/schemes"
)

// Mechanism is the load-balancing mechanism for one total arrival rate.
type Mechanism struct {
	// Phi is the total job arrival rate the mechanism must place.
	Phi float64
	// Tol is the quadrature tolerance for the payment integral; 0 means
	// 1e-10 relative to the integral's scale.
	Tol float64
}

// ErrInfeasible is returned when the bids imply insufficient capacity,
// Σ 1/b_i ≤ Phi.
var ErrInfeasible = errors.New("mechanism: bids imply insufficient capacity")

// validateBids checks positivity and capacity.
func (m Mechanism) validateBids(bids []float64) error {
	if len(bids) == 0 {
		return errors.New("mechanism: need at least one agent")
	}
	var cap_ float64
	for i, b := range bids {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("mechanism: bid %d must be positive and finite, got %g", i, b)
		}
		cap_ += 1 / b
	}
	if m.Phi <= 0 {
		return fmt.Errorf("mechanism: total arrival rate must be positive, got %g", m.Phi)
	}
	if cap_ <= m.Phi {
		return fmt.Errorf("%w (capacity=%g, phi=%g)", ErrInfeasible, cap_, m.Phi)
	}
	return nil
}

// Allocate computes the loads x(b) the optimal algorithm assigns for the
// reported bids: the Chapter 3 OPTIM square-root rule on rates μ_i=1/b_i.
// The output function is decreasing in each agent's bid (Theorem 5.1),
// which is what makes a truthful payment scheme possible.
func (m Mechanism) Allocate(bids []float64) ([]float64, error) {
	if err := m.validateBids(bids); err != nil {
		return nil, err
	}
	mu := make([]float64, len(bids))
	for i, b := range bids {
		mu[i] = 1 / b
	}
	return schemes.Optim{}.Allocate(mu, m.Phi)
}

// loadOf returns agent i's load when it bids u against fixed others.
func (m Mechanism) loadOf(i int, u float64, bids []float64) float64 {
	tmp := append([]float64(nil), bids...)
	tmp[i] = u
	x, err := m.Allocate(tmp)
	if err != nil {
		// Raising one agent's bid only shrinks capacity toward the
		// others' total; if that is infeasible the agent's load is
		// irrelevant — treat as zero (the agent is effectively dropped).
		return 0
	}
	return x[i]
}

// CutoffBid returns the bid above which agent i receives no load, holding
// the other bids fixed. The load curve is continuous and decreasing, so
// the cut-off is found by doubling and bisection.
func (m Mechanism) CutoffBid(i int, bids []float64) (float64, error) {
	if err := m.validateBids(bids); err != nil {
		return 0, err
	}
	lo := bids[i]
	if m.loadOf(i, lo, bids) == 0 {
		return lo, nil
	}
	hi := lo
	for k := 0; k < 200; k++ {
		hi *= 2
		if m.loadOf(i, hi, bids) == 0 {
			// Refine the boundary.
			for j := 0; j < 100 && hi-lo > 1e-12*hi; j++ {
				mid := lo + (hi-lo)/2
				if m.loadOf(i, mid, bids) == 0 {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi, nil
		}
		lo = hi
	}
	return 0, fmt.Errorf("mechanism: agent %d load never reaches zero", i)
}

// Payment computes agent i's payment under eq. 5.16: compensation
// b_i·x_i(b) plus the area under the remaining load curve. The integral's
// upper limit is the cut-off bid, beyond which the integrand vanishes.
func (m Mechanism) Payment(i int, bids []float64) (float64, error) {
	x, err := m.Allocate(bids)
	if err != nil {
		return 0, err
	}
	cut, err := m.CutoffBid(i, bids)
	if err != nil {
		return 0, err
	}
	tol := m.Tol
	if tol <= 0 {
		tol = 1e-10 * math.Max(1, x[i]*(cut-bids[i]))
	}
	area := numeric.Simpson(func(u float64) float64 {
		return m.loadOf(i, u, bids)
	}, bids[i], cut, tol)
	return bids[i]*x[i] + area, nil
}

// Payments computes every agent's payment.
func (m Mechanism) Payments(bids []float64) ([]float64, error) {
	out := make([]float64, len(bids))
	for i := range bids {
		p, err := m.Payment(i, bids)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Outcome bundles everything an experiment needs about one run of the
// mechanism: allocation, payments, true costs and profits.
type Outcome struct {
	Loads    []float64 // x_i(b)
	Payments []float64 // P_i(b)
	Costs    []float64 // t_i · x_i(b), the agents' true utilization costs
	Profits  []float64 // payments minus costs
}

// Run executes the mechanism for the reported bids and evaluates costs
// and profits against the agents' true values.
func (m Mechanism) Run(bids, trueValues []float64) (Outcome, error) {
	if len(bids) != len(trueValues) {
		return Outcome{}, fmt.Errorf("mechanism: %d bids for %d true values", len(bids), len(trueValues))
	}
	x, err := m.Allocate(bids)
	if err != nil {
		return Outcome{}, err
	}
	pay, err := m.Payments(bids)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Loads:    x,
		Payments: pay,
		Costs:    make([]float64, len(bids)),
		Profits:  make([]float64, len(bids)),
	}
	for i := range bids {
		out.Costs[i] = trueValues[i] * x[i]
		out.Profits[i] = pay[i] - out.Costs[i]
	}
	return out, nil
}

// TrueResponseTime evaluates the system-wide expected response time when
// the loads x (computed from the bids) are executed on the computers'
// TRUE rates 1/t_i. When an underbidding agent attracts more load than
// its real capacity, the result is +Inf — the analytic signature of the
// "drastic" performance degradation the paper observes at high
// utilization.
func TrueResponseTime(loads, trueValues []float64) float64 {
	mu := make([]float64, len(trueValues))
	for i, t := range trueValues {
		mu[i] = 1 / t
	}
	return queueing.SystemResponseTime(mu, loads)
}
