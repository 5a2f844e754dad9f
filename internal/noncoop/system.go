// Package noncoop implements Chapter 4: load balancing as a
// noncooperative game among m users sharing n heterogeneous M/M/1
// computers. User j generates jobs at rate φ_j and picks a strategy
// s_j = (s_j1,…,s_jn) — the fractions of its jobs sent to each computer —
// to minimize its own expected response time
//
//	D_j(s) = Σ_i s_ji / (μ_i − Σ_k s_ki φ_k).
//
// The Nash equilibrium of the game is the user-optimal operating point;
// BEST-REPLY computes one user's optimal strategy against fixed others
// (Theorem 4.1), and the NASH distributed algorithm iterates best replies
// round-robin until the equilibrium is reached. The comparison schemes of
// §4.4 (PS, GOS, IOS) are also provided.
package noncoop

import (
	"errors"
	"fmt"
	"math"

	"gtlb/internal/queueing"
)

// ErrOverload is returned when the total arrival rate of all users meets
// or exceeds the aggregate processing rate.
var ErrOverload = errors.New("noncoop: total arrival rate must be less than aggregate processing rate")

// System is a multi-user distributed system: n computers shared by m
// users (Figure 4.1).
type System struct {
	Mu  []float64 // per-computer processing rates, all positive
	Phi []float64 // per-user job arrival rates, all positive
}

// NewSystem constructs and validates a System.
func NewSystem(mu, phi []float64) (System, error) {
	s := System{Mu: mu, Phi: phi}
	if err := s.Validate(); err != nil {
		return System{}, err
	}
	return s, nil
}

// Validate checks rate positivity and aggregate stability Σφ < Σμ.
func (s System) Validate() error {
	if len(s.Mu) == 0 {
		return errors.New("noncoop: system needs at least one computer")
	}
	if len(s.Phi) == 0 {
		return errors.New("noncoop: system needs at least one user")
	}
	var sumMu float64
	for i, m := range s.Mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("noncoop: processing rate %d must be positive and finite, got %g", i, m)
		}
		sumMu += m
	}
	var sumPhi float64
	for j, p := range s.Phi {
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("noncoop: user %d arrival rate must be positive and finite, got %g", j, p)
		}
		sumPhi += p
	}
	if sumPhi >= sumMu {
		return fmt.Errorf("%w (sum phi=%g, sum mu=%g)", ErrOverload, sumPhi, sumMu)
	}
	return nil
}

// NumComputers returns n.
func (s System) NumComputers() int { return len(s.Mu) }

// NumUsers returns m.
func (s System) NumUsers() int { return len(s.Phi) }

// TotalPhi returns Φ = Σφ_j.
func (s System) TotalPhi() float64 {
	var t float64
	for _, p := range s.Phi {
		t += p
	}
	return t
}

// TotalMu returns Σμ_i.
func (s System) TotalMu() float64 {
	var t float64
	for _, m := range s.Mu {
		t += m
	}
	return t
}

// Profile is a strategy profile: S[j][i] is the fraction of user j's jobs
// routed to computer i. A feasible profile has non-negative rows summing
// to 1 with all computers stable.
type Profile struct {
	S [][]float64
}

// NewProfile returns an all-zero (m × n) profile. Its rows share one
// backing array, each capped at its own length.
func NewProfile(m, n int) Profile {
	s := make([][]float64, m)
	all := make([]float64, m*n)
	for j := range s {
		s[j] = all[j*n : (j+1)*n : (j+1)*n]
	}
	return Profile{S: s}
}

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	out := NewProfile(len(p.S), 0)
	for j, row := range p.S {
		out.S[j] = append([]float64(nil), row...)
	}
	return out
}

// Loads returns the per-computer total arrival rates λ_i = Σ_j s_ji φ_j
// induced by the profile.
func (s System) Loads(p Profile) []float64 {
	lam := make([]float64, len(s.Mu))
	for j, row := range p.S {
		for i, f := range row {
			lam[i] += f * s.Phi[j]
		}
	}
	return lam
}

// Available returns the processing rates visible to user j: the raw rates
// minus the flow placed by every other user,
// μ̂_i^j = μ_i − Σ_{k≠j} s_ki φ_k (§4.2). Entries can be ≤ 0 when other
// users saturate a computer; BestReply skips those computers.
func (s System) Available(p Profile, j int) []float64 {
	avail := append([]float64(nil), s.Mu...)
	for k, row := range p.S {
		if k == j {
			continue
		}
		for i, f := range row {
			avail[i] -= f * s.Phi[k]
		}
	}
	return avail
}

// UserTime returns user j's expected response time D_j(s) under the
// profile (eq. 4.2); +Inf if any computer the user touches is unstable.
func (s System) UserTime(p Profile, j int) float64 {
	return timeAt(s.Mu, s.Loads(p), p.S[j])
}

// timeAt is the expected response time Σ_i s_i/(μ_i − λ_i) of a user
// playing s under the per-computer loads lam; +Inf if a computer the
// user touches is unstable.
func timeAt(mu, lam, s []float64) float64 {
	var t float64
	for i, f := range s {
		if f == 0 {
			continue
		}
		r := queueing.ResponseTime(mu[i], lam[i])
		if math.IsInf(r, 1) {
			return r
		}
		t += f * r
	}
	return t
}

// UserTimes returns every user's expected response time.
func (s System) UserTimes(p Profile) []float64 {
	out := make([]float64, len(s.Phi))
	for j := range s.Phi {
		out[j] = s.UserTime(p, j)
	}
	return out
}

// OverallTime returns the system-wide expected response time
// (1/Φ) Σ_j φ_j D_j(s), the objective of the GOS scheme (eq. 4.11).
func (s System) OverallTime(p Profile) float64 {
	var t float64
	for j, phi := range s.Phi {
		t += phi * s.UserTime(p, j)
	}
	return t / s.TotalPhi()
}

// ValidateProfile checks feasibility: rows non-negative summing to 1
// (conservation, restriction ii of §4.2) and all computers stable
// (restriction iii).
func (s System) ValidateProfile(p Profile) error {
	if len(p.S) != len(s.Phi) {
		return fmt.Errorf("noncoop: profile has %d rows, want %d", len(p.S), len(s.Phi))
	}
	for j, row := range p.S {
		if len(row) != len(s.Mu) {
			return fmt.Errorf("noncoop: user %d strategy has %d entries, want %d", j, len(row), len(s.Mu))
		}
		var sum float64
		for i, f := range row {
			if f < -1e-12 {
				return fmt.Errorf("noncoop: user %d has negative fraction %g at computer %d", j, f, i)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("noncoop: user %d fractions sum to %g, want 1", j, sum)
		}
	}
	for i, lam := range s.Loads(p) {
		if lam >= s.Mu[i] {
			return fmt.Errorf("noncoop: computer %d unstable (lambda=%g, mu=%g)", i, lam, s.Mu[i])
		}
	}
	return nil
}
