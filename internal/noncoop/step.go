package noncoop

import "math"

// Stepper plays one user's turn of the §4.3 round-robin against a
// shared per-computer load vector: the one user step of the module,
// which Nash, Gap, the in-process sharded oracle (game.ShardedBestReply)
// and every distributed member (internal/dist) run, so that their
// arithmetic exists once: a fault-free distributed run stays
// bit-identical to the oracle, and the one-shard, one-sweep oracle to
// Nash. It owns its O(n) scratch: a step allocates nothing.
type Stepper struct {
	mu    []float64
	users float64 // the divisor of a non-finite norm term
	avail []float64
	next  []float64
	ord   []int
}

// NewStepper returns a Stepper over the computers' rates mu in a game of
// users players. A norm term that is +Inf or NaN counts
// MaxFloat64/users, so that users such terms sum to at most MaxFloat64.
func NewStepper(mu []float64, users int) *Stepper {
	return &NewSteppers(mu, users, 1)[0]
}

// NewSteppers returns k independent Steppers, each as NewStepper builds
// it, with their scratch carved from three allocations in all.
func NewSteppers(mu []float64, users, k int) []Stepper {
	n := len(mu)
	fs := make([]float64, 2*k*n)
	ord := make([]int, k*n)
	out := make([]Stepper, k)
	for i := range out {
		f := fs[2*i*n : 2*(i+1)*n : 2*(i+1)*n]
		out[i] = Stepper{
			mu: mu, users: float64(users),
			avail: f[:n:n], next: f[n:], ord: ord[i*n : (i+1)*n : (i+1)*n],
		}
	}
	return out
}

// StepState is what one user carries from its turn to the next.
type StepState struct {
	prev   float64 // D_j after the user's last reply
	played bool
	end    float64 // D_j at the last end-of-round loads the user was timed against
	timed  bool
}

// Step plays one turn of the user with arrival rate phi and strategy
// row (replaced in place by its best reply) against loads, which it
// moves in place by the user's change. It returns dt, the |ΔD_j| the
// token norm adds: the user's response time after the reply against
// the one after its previous reply (on the user's first turn, the time
// of row against these loads).
//
// end, when not empty, holds the loads the previous round ended at.
// Before replying, the user times row against them — D_j at the
// previous round's end profile — and returns in dEnd the change from
// the time it was last timed at: summed over a round's users, that is
// the §4.3 norm Σ_j |D_j^(l) − D_j^(l−1)| of the round before. A user's
// first such term has nothing to compare with and counts as far from
// equilibrium, like a non-finite one. With no end, dEnd is 0.
//
//lb:hotpath
func (s *Stepper) Step(loads, end, row []float64, phi float64, st *StepState) (dt, dEnd float64, err error) {
	if len(end) > 0 {
		t := timeAt(s.mu, end, row)
		dEnd = math.Inf(1)
		if st.timed {
			dEnd = math.Abs(t - st.end)
		}
		dEnd = s.finite(dEnd)
		st.end, st.timed = t, true
	}
	if err := s.move(loads, row, phi); err != nil {
		return 0, 0, err
	}
	if !st.played {
		st.prev = BestReplyTime(s.avail, row, phi)
		st.played = true
	}
	t := BestReplyTime(s.avail, s.next, phi)
	dt = s.finite(math.Abs(t - st.prev))
	copy(row, s.next)
	st.prev = t
	return dt, dEnd, nil
}

// move is the user step itself: it computes the rates available to the
// user with arrival rate phi and strategy row against loads, puts the
// best reply to them in s.next and moves loads by the change from row,
// which it leaves as it is. On error the loads are unmoved.
//
//lb:hotpath
func (s *Stepper) move(loads, row []float64, phi float64) error {
	for i := range s.avail {
		s.avail[i] = s.mu[i] - loads[i] + row[i]*phi
	}
	if err := BestReplyInto(s.avail, phi, s.next, s.ord); err != nil {
		return err
	}
	for i := range row {
		loads[i] += (s.next[i] - row[i]) * phi
	}
	return nil
}

// finite maps a non-finite norm term (Inf−Inf, two consecutive
// saturated turns, is NaN) to MaxFloat64/users: both mean "far from
// equilibrium".
func (s *Stepper) finite(d float64) float64 {
	if math.IsInf(d, 1) || math.IsNaN(d) {
		return math.MaxFloat64 / s.users
	}
	return d
}
