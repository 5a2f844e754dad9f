package noncoop

import (
	"errors"
	"fmt"
	"math"

	"gtlb/internal/obs"
)

// Init selects the initialization step of the NASH distributed algorithm.
type Init int

const (
	// InitZero is NASH_0: every user starts with the empty strategy and
	// the first round of best replies builds the profile from scratch.
	InitZero Init = iota
	// InitProportional is NASH_P: every user starts from the
	// proportional allocation s_ji = μ_i/Σμ, which is close to the
	// equilibrium and roughly halves the iterations (Figure 4.2).
	InitProportional
)

// String names the initialization as the paper does.
func (in Init) String() string {
	switch in {
	case InitZero:
		return "NASH_0"
	case InitProportional:
		return "NASH_P"
	default:
		return fmt.Sprintf("Init(%d)", int(in))
	}
}

// ErrNoConvergence is returned when the best-reply iteration does not
// reach the acceptance tolerance within the iteration budget.
var ErrNoConvergence = errors.New("noncoop: NASH iteration did not converge")

// Update selects how best replies are applied within a round — the
// design choice behind the §4.3 algorithm.
type Update int

const (
	// UpdateSequential is the paper's round-robin (Gauss–Seidel)
	// schedule: each user's best reply immediately becomes visible to
	// the users after it in the same round.
	UpdateSequential Update = iota
	// UpdateSimultaneous is the Jacobi schedule: all users best-reply
	// against the previous round's profile and the replies are applied
	// together. Included as an ablation; simultaneous best replies can
	// overshoot (two users grabbing the same spare capacity), which is
	// why the paper's protocol serializes updates around the ring.
	UpdateSimultaneous
)

// String names the update schedule.
func (u Update) String() string {
	switch u {
	case UpdateSequential:
		return "gauss-seidel"
	case UpdateSimultaneous:
		return "jacobi"
	default:
		return fmt.Sprintf("Update(%d)", int(u))
	}
}

// NashOptions configures the NASH distributed algorithm.
type NashOptions struct {
	Init    Init    // initialization step (NASH_0 or NASH_P)
	Eps     float64 // acceptance tolerance on the norm; 0 means 1e-10
	MaxIter int     // iteration budget; 0 means 10,000
	Update  Update  // best-reply schedule; the zero value is the paper's round-robin
	// Observer optionally receives one NashRound event per best-reply
	// round (Time = round index, V = the round's norm), recording the
	// Figure 4.2 convergence trajectory as it happens. nil disables.
	Observer obs.Observer
}

// NashResult is the outcome of the NASH iteration.
type NashResult struct {
	Profile    Profile   // the equilibrium strategy profile
	Iterations int       // rounds of best replies executed
	Norms      []float64 // the norm after each round (Figure 4.2's series)
}

// Nash computes the Nash equilibrium of the load-balancing game with the
// greedy round-robin best-reply algorithm of §4.3: in every round each
// user in turn recomputes its best reply against the current strategies
// of all the others; the round's norm is Σ_j |D_j^(l) − D_j^(l−1)|, and
// the iteration stops once the norm drops to Eps.
//
// Every best reply is a Stepper move over one running load vector, the
// user step of the sharded solve, so a round costs O(mn), and from
// NASH_P the Gauss–Seidel iteration is the one-shard, one-sweep ring of
// game.ShardedBestReply bit for bit: after k rounds both hold the same
// profile, and the ring's end-of-round norm is this norm one round late.
//
// Convergence of best-reply dynamics for M/M/1 costs and more than two
// players is an open problem (§4.3), but as in the paper's experiments
// the iteration converges on every configuration exercised here; the
// MaxIter budget turns a hypothetical cycle into ErrNoConvergence rather
// than a hang.
func Nash(sys System, opt NashOptions) (NashResult, error) {
	if err := sys.Validate(); err != nil {
		return NashResult{}, err
	}
	eps := opt.Eps
	if eps <= 0 {
		eps = 1e-10
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10_000
	}

	m, n := sys.NumUsers(), sys.NumComputers()
	var p Profile
	if opt.Init == InitProportional {
		p, _ = PS{}.Profile(sys) // sys was validated above
	} else {
		p = NewProfile(m, n)
	}
	jacobi := opt.Update == UpdateSimultaneous
	loads, frozen := sys.Loads(p), make([]float64, n)
	step := NewStepper(sys.Mu, m)

	// The norm baseline: each user's time at the initial profile, which
	// is zero for the empty NASH_0 start (the first round's norm is then
	// Σ_j D_j, a finite, meaningful distance).
	prev := make([]float64, m)
	for j, row := range p.S {
		prev[j] = timeAt(sys.Mu, loads, row)
	}

	res := NashResult{Profile: p} // the rows are played in place
	for iter := 1; iter <= maxIter; iter++ {
		copy(frozen, loads)
		for j, row := range p.S {
			if jacobi {
				copy(loads, frozen) // everyone replies to the round's start
			}
			if err := step.move(loads, row, sys.Phi[j]); err != nil {
				return NashResult{}, fmt.Errorf("noncoop: user %d best reply failed at iteration %d: %w", j, iter, err)
			}
			copy(row, step.next)
		}
		if jacobi {
			loads = sys.Loads(p)
		}
		var norm float64
		for j, row := range p.S {
			t := timeAt(sys.Mu, loads, row)
			norm += step.finite(math.Abs(t - prev[j]))
			prev[j] = t
		}
		res.Norms = append(res.Norms, norm)
		res.Iterations = iter
		if opt.Observer != nil {
			opt.Observer.Observe(obs.Event{Kind: obs.NashRound, Time: float64(iter), V: norm})
		}
		if norm <= eps {
			return res, nil
		}
	}
	return res, fmt.Errorf("%w after %d iterations (norm=%g)", ErrNoConvergence, maxIter, res.Norms[len(res.Norms)-1])
}

// Gap is the distance of p from equilibrium in the units of the NASH
// stop rule: the norm Σ_j |D_j(p') − D_j(p)| that one more round of the
// iteration would report, where the round lets every user in index
// order best-reply against the loads the users before it already moved
// and p' is the profile it ends at. An exact Nash equilibrium scores 0;
// a user whose response time is not finite scores +Inf. p is only read:
// the round is played twice as Stepper moves, once to find the loads p'
// ends at and once more (bit-identically) to time each user against
// them, so the scratch is O(n).
func Gap(sys System, p Profile) (float64, error) {
	m, n := sys.NumUsers(), sys.NumComputers()
	if len(p.S) != m {
		return 0, fmt.Errorf("noncoop: profile has %d rows, want %d", len(p.S), m)
	}
	for j, row := range p.S {
		if len(row) != n {
			return 0, fmt.Errorf("noncoop: user %d strategy has %d entries, want %d", j, len(row), n)
		}
	}
	start, end, loads := sys.Loads(p), make([]float64, n), make([]float64, n)
	step := NewStepper(sys.Mu, m)
	var gap float64
	for pass := 0; pass < 2; pass++ {
		copy(loads, start)
		for j, row := range p.S {
			if err := step.move(loads, row, sys.Phi[j]); err != nil {
				return 0, fmt.Errorf("noncoop: user %d best reply: %w", j, err)
			}
			if pass == 1 {
				d := math.Abs(timeAt(sys.Mu, end, step.next) - timeAt(sys.Mu, start, row))
				if math.IsNaN(d) {
					d = math.Inf(1)
				}
				gap += d
			}
		}
		copy(end, loads)
	}
	return gap, nil
}

// IsNashEquilibrium reports whether no user can lower its expected
// response time by more than tol by unilaterally switching to its best
// reply (Definition 4.1).
func IsNashEquilibrium(sys System, p Profile, tol float64) (bool, error) {
	for j := range sys.Phi {
		avail := sys.Available(p, j)
		best, err := BestReply(avail, sys.Phi[j])
		if err != nil {
			return false, err
		}
		cur := BestReplyTime(avail, p.S[j], sys.Phi[j])
		opt := BestReplyTime(avail, best, sys.Phi[j])
		if cur-opt > tol*(1+opt) {
			return false, nil
		}
	}
	return true, nil
}
