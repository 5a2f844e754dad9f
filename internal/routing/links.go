// Package routing makes the §2.2.3 related-work framework executable:
// routing a divisible traffic rate over parallel links with affine
// latency functions — the setting of Orda et al., Koutsoupias &
// Papadimitriou's coordination ratio, Roughgarden & Tardos' 4/3 price of
// anarchy bound, and Korilis et al.'s Stackelberg management. The
// Chapter 6 computers (linear latency ℓ(x) = t·x) are the special case
// with zero constant terms, so this package also supplies independent
// cross-checks for internal/verification.
package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Link is one parallel link with affine latency ℓ(x) = Slope·x + Const.
type Link struct {
	Slope float64 // congestion sensitivity a ≥ 0
	Const float64 // fixed latency b ≥ 0
}

// Latency evaluates ℓ(x).
func (l Link) Latency(x float64) float64 { return l.Slope*x + l.Const }

// Network is a set of parallel links carrying a total rate.
type Network struct {
	Links []Link
	Rate  float64
}

// Validate checks link shapes and the rate.
func (n Network) Validate() error {
	if len(n.Links) == 0 {
		return errors.New("routing: need at least one link")
	}
	hasCapacity := false
	for i, l := range n.Links {
		if l.Slope < 0 || l.Const < 0 || math.IsNaN(l.Slope) || math.IsNaN(l.Const) {
			return fmt.Errorf("routing: link %d has invalid coefficients (%g, %g)", i, l.Slope, l.Const)
		}
		if l.Slope > 0 || l.Const == 0 {
			hasCapacity = true
		}
		_ = hasCapacity
	}
	if n.Rate < 0 || math.IsNaN(n.Rate) || math.IsInf(n.Rate, 0) {
		return fmt.Errorf("routing: rate must be non-negative and finite, got %g", n.Rate)
	}
	// A zero-slope link has unlimited capacity at fixed latency, so any
	// rate is feasible; with all positive slopes any finite rate is
	// feasible too. Nothing else to check.
	return nil
}

// TotalLatency returns C(x) = Σ x_i·ℓ_i(x_i), the social cost.
func (n Network) TotalLatency(x []float64) float64 {
	var c float64
	for i, l := range n.Links {
		c += x[i] * l.Latency(x[i])
	}
	return c
}

// waterfill solves the common-level problem shared by the Wardrop
// equilibrium and the social optimum: given per-link level functions
// level_i(x) = coef_i·x + const_i (strictly increasing where coef_i > 0),
// find flows x_i ≥ 0 with Σx = rate and a level L such that
// level_i(x_i) = L on used links and const_i ≥ L on idle ones.
//
// Zero-coefficient links absorb unlimited flow at their constant level;
// if the total rate cannot push the level past the cheapest constant,
// the cheapest constant links share the remainder (their split among
// equal-constant links does not affect the level or the cost).
func waterfill(coef, cnst []float64, rate float64) []float64 {
	n := len(coef)
	x := make([]float64, n)
	if rate == 0 {
		return x
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cnst[order[a]] < cnst[order[b]] })

	// Raise the water level link by link. With k links active at level
	// L: Σ_{i active, coef>0} (L − const_i)/coef_i = rate. A zero-coef
	// active link pins L at its constant and takes the whole residual.
	var invSum, weighted float64 // Σ 1/coef, Σ const/coef over active coef>0 links
	active := 0
	for {
		// Next activation threshold.
		nextConst := math.Inf(1)
		if active < n {
			nextConst = cnst[order[active]]
		}
		if invSum > 0 {
			// Level reached with current active set when all flow used.
			l := (rate + weighted) / invSum
			if l <= nextConst {
				for k := 0; k < active; k++ {
					i := order[k]
					if coef[i] > 0 {
						x[i] = (l - cnst[i]) / coef[i]
						if x[i] < 0 {
							x[i] = 0
						}
					}
				}
				return x
			}
		}
		if active >= n {
			// All links active and still "above" every threshold: only
			// possible when invSum == 0 (all zero-coef), split evenly
			// among the cheapest-constant links.
			minC := cnst[order[0]]
			var cheapest []int
			for _, i := range order {
				//lint:ignore floatcmp argmin membership over copied values is exact
				if cnst[i] == minC {
					cheapest = append(cheapest, i)
				}
			}
			for _, i := range cheapest {
				x[i] = rate / float64(len(cheapest))
			}
			return x
		}
		i := order[active]
		active++
		if coef[i] == 0 {
			// This link absorbs everything beyond the flow needed to
			// hold the level at its constant.
			l := cnst[i]
			var used float64
			for k := 0; k < active-1; k++ {
				j := order[k]
				if coef[j] > 0 {
					x[j] = (l - cnst[j]) / coef[j]
					if x[j] < 0 {
						x[j] = 0
					}
					used += x[j]
				}
			}
			rem := rate - used
			if rem < 0 {
				rem = 0
			}
			x[i] = rem
			return x
		}
		invSum += 1 / coef[i]
		weighted += cnst[i] / coef[i]
	}
}

// Wardrop returns the Wardrop equilibrium flows: every used link has the
// same latency and no unused link is faster — the individual optimum of
// infinitesimal selfish jobs.
func (n Network) Wardrop() ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	coef := make([]float64, len(n.Links))
	cnst := make([]float64, len(n.Links))
	for i, l := range n.Links {
		coef[i], cnst[i] = l.Slope, l.Const
	}
	return waterfill(coef, cnst, n.Rate), nil
}

// Optimum returns the social-optimum flows minimizing the total latency:
// marginal costs 2a·x + b are equalized across used links.
func (n Network) Optimum() ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	coef := make([]float64, len(n.Links))
	cnst := make([]float64, len(n.Links))
	for i, l := range n.Links {
		coef[i], cnst[i] = 2*l.Slope, l.Const
	}
	return waterfill(coef, cnst, n.Rate), nil
}

// PriceOfAnarchy returns C(wardrop)/C(optimum), Koutsoupias &
// Papadimitriou's coordination ratio. For affine latencies Roughgarden &
// Tardos bound it by 4/3; the Pigou network (ℓ1=1, ℓ2(x)=x, rate 1)
// attains the bound. A zero-cost optimum (rate 0) returns 1.
func (n Network) PriceOfAnarchy() (float64, error) {
	we, err := n.Wardrop()
	if err != nil {
		return 0, err
	}
	opt, err := n.Optimum()
	if err != nil {
		return 0, err
	}
	co := n.TotalLatency(opt)
	cw := n.TotalLatency(we)
	if co == 0 {
		return 1, nil
	}
	return cw / co, nil
}
