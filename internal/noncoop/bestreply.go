package noncoop

import (
	"errors"
	"math"
)

// BestReply solves user j's optimization problem OPT_j (eqs. 4.4–4.7):
// given the processing rates available to the user (avail, the μ̂_i^j of
// §4.2) and the user's total arrival rate phi, it returns the fractions
// s_ji minimizing the user's expected response time. This is the
// BEST-REPLY algorithm of §4.2 built on Theorem 4.1's square-root
// characterization:
//
//	s_ji = (1/φ_j)·(μ̂_i − √μ̂_i · (Σμ̂ − φ_j)/Σ√μ̂)   on the used set,
//
// with computers dropped slowest-available first while the closed form
// would go negative (eq. 4.9). Runtime O(n log n).
//
// Computers with non-positive available rate (saturated by other users)
// never receive load. An error is returned when φ_j is not less than the
// total available rate, i.e. the sub-problem is infeasible.
func BestReply(avail []float64, phi float64) ([]float64, error) {
	out := make([]float64, len(avail))
	ord := make([]int, len(avail))
	if err := BestReplyInto(avail, phi, out, ord); err != nil {
		return nil, err
	}
	return out, nil
}

// The errors of BestReplyInto, preallocated; the caller adds who failed.
var (
	errScratch    = errors.New("noncoop: best reply scratch must match the computers")
	errRate       = errors.New("noncoop: best reply needs a positive arrival rate")
	errInfeasible = errors.New("noncoop: user rate exceeds the available capacity")
)

// BestReplyInto is BestReply writing the fractions into out (len n),
// using ord (len n) as sorting scratch: it allocates nothing, not even
// to fail, which is what lets a protocol node run one best reply per
// token hop without GC pressure at m=10,000. The ordering uses a stable
// insertion sort — identical output to the former sort.SliceStable, and
// fast in the protocols because n is small and the available rates
// change little between consecutive sweeps.
func BestReplyInto(avail []float64, phi float64, out []float64, ord []int) error {
	n := len(avail)
	if len(out) != n || len(ord) != n {
		return errScratch
	}
	if phi <= 0 || math.IsNaN(phi) {
		return errRate
	}

	// Usable computers sorted by decreasing available rate.
	cnt := 0
	var sumAvail, sumSqrt float64
	for i, a := range avail {
		if a > 0 {
			ord[cnt] = i
			cnt++
			sumAvail += a
			sumSqrt += math.Sqrt(a)
		}
	}
	if sumAvail <= phi {
		return errInfeasible
	}
	order := ord[:cnt]
	for i := 1; i < cnt; i++ {
		for j := i; j > 0 && avail[order[j]] > avail[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Find the minimum index c satisfying inequality (4.9): drop the
	// slowest remaining computer while its closed-form load would be
	// non-positive.
	c := cnt
	alpha := (sumAvail - phi) / sumSqrt
	for c > 1 {
		slow := avail[order[c-1]]
		if math.Sqrt(slow) > alpha {
			break
		}
		sumAvail -= slow
		sumSqrt -= math.Sqrt(slow)
		c--
		alpha = (sumAvail - phi) / sumSqrt
	}

	for i := range out {
		out[i] = 0
	}
	for k := 0; k < c; k++ {
		i := order[k]
		lam := avail[i] - alpha*math.Sqrt(avail[i])
		if lam < 0 {
			lam = 0
		}
		out[i] = lam / phi
	}
	return nil
}

// BestReplyTime returns the expected response time user j obtains by
// playing fractions s against available rates avail with arrival rate
// phi: Σ_i s_i/(μ̂_i − s_i φ).
func BestReplyTime(avail, s []float64, phi float64) float64 {
	var t float64
	for i, f := range s {
		if f == 0 {
			continue
		}
		d := avail[i] - f*phi
		if d <= 0 {
			return math.Inf(1)
		}
		t += f / d
	}
	return t
}
