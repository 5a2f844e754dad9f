// Sharded best-reply: the shard-local solve + reconciliation scheme the
// hierarchical NASH runtime (internal/dist/shard.go) distributes.
//
// Users are partitioned into G shards. Within a round the shards are
// activated one at a time: each runs best-reply sweeps over its own
// members against a frozen view of the external load (the other
// shards' last reported per-computer loads), then its local loads are
// reconciled into the global load vector before the next shard sweeps
// — block Gauss–Seidel across shards, of Gauss–Seidel sweeps within
// them. "Approximate Congestion Games for Load Balancing"
// (PAPERS.md) licenses the scheme: group-local approximate equilibria
// reconcile to the global Nash point, which is also the fixed point of
// the flat best-reply ring.
//
// ShardedBestReply is the in-process oracle for the distributed
// runtime: it performs the identical floating-point operations in the
// identical order as a fault-free distributed run (the shard loads are
// reconciled in ascending shard order, and each user step is the
// noncoop.Stepper kernel every distributed member runs), so the two
// produce bit-identical profiles — the property the dist tests pin.
package game

import (
	"fmt"
	"math"

	"gtlb/internal/noncoop"
)

// GapFactor bounds the stop certificate: a sharded solve ends without
// error only when its stop norm is at most eps and one more flat
// best-reply round over its profile (noncoop.Gap) moves response times
// by at most GapFactor·eps. The active-set skip rule leaves ~2·eps of
// slack on top of the norm; EXPERIMENTS.md X8 has the measured spread.
const GapFactor = 4

// DefaultShardCount returns the default shard count for m users:
// shards of ~32 members (one token circulation stays short), capped at
// 512 shards so the reduction fan-in stays manageable.
func DefaultShardCount(m int) int {
	g := (m + 31) / 32
	if g < 1 {
		g = 1
	}
	if g > 512 {
		g = 512
	}
	return g
}

// PlanShards partitions users 0..m-1 into g contiguous groups with
// sizes differing by at most one. g is clamped to [1, m]. The
// assignment is deterministic: it is membership epoch 0 of the
// distributed runtime.
func PlanShards(m, g int) [][]int {
	if g < 1 {
		g = 1
	}
	if g > m {
		g = m
	}
	shards := make([][]int, g)
	base, rem := m/g, m%g
	next := 0
	for s := range shards {
		size := base
		if s < rem {
			size++
		}
		members := make([]int, size)
		for k := range members {
			members[k] = next
			next++
		}
		shards[s] = members
	}
	return shards
}

// ShardedResult is the outcome of an in-process sharded solve.
type ShardedResult struct {
	Profile noncoop.Profile
	// Rounds is the number of global reconciliation rounds.
	Rounds int
	// Sweeps is the total number of shard-local best-reply sweeps,
	// summed over shards.
	Sweeps int
	// Norm is the norm that ended the run: the last round's
	// end-of-round norm (the §4.3 norm Σ_j |D_j^(l) − D_j^(l−1)| of the
	// round before it) when that reached eps, otherwise the last
	// round's token norm, which sums each user's |ΔD_j| at its own turn.
	Norm float64
}

// satAdd accumulates a norm contribution, saturating at MaxFloat64 so
// several divergent users cannot overflow the sum to +Inf. Identical to
// the distributed token arithmetic.
func satAdd(norm, d float64) float64 {
	if sum := norm + d; !math.IsInf(sum, 1) {
		return sum
	}
	return math.MaxFloat64
}

// ShardedOpts tunes ShardedBestReply. The zero value is the default
// scheme: shards activated one at a time, each running up to four
// sweeps per activation.
type ShardedOpts struct {
	// LocalSweeps is the number of best-reply sweeps a shard runs per
	// activation (default 4, matching dist.ShardOptions). Sweeps
	// early-exit once the shard-local norm falls below the shard's eps
	// share (a one-member shard sweeps once), so a larger budget costs
	// nothing once a shard quiesces. Whether spending it while loads
	// move pays depends on the stop: at m=64 and eps=1e-9 (4 shards),
	// 4 sweeps take 4,295 sweeps where 1 takes 7,704, but at m=1000
	// and eps=1e-3 (32 shards) 4 sweeps take 773 where 1 takes 359,
	// since the end-of-round norm stops either within a dozen rounds
	// (EXPERIMENTS.md X8). Set 1 to reproduce the flat ring's exact
	// user visit order.
	LocalSweeps int
}

// ShardedBestReply runs the two-level scheme in process: per global
// round every (live) shard is activated once, in ascending shard order
// against the global loads the shards before it already updated (block
// Gauss–Seidel, which inherits the flat ring's convergence), running up
// to LocalSweeps best-reply sweeps over its members against the
// external load view, until a round's token norm or end-of-round norm
// reaches eps and the profile passes the stop certificate
// (noncoop.Gap ≤ GapFactor·eps), or maxRounds is exceeded. The
// end-of-round norm times every activated user, on its shard's first
// sweep, against the loads the previous round ended at: with one shard
// and one sweep it is noncoop.Nash's norm of the round before. A round
// whose norm reaches eps but whose profile fails the certificate
// rebuilds the shard loads from the rows and activates every shard
// again. A nil error therefore means the profile's flat best-reply gap
// is at most GapFactor·eps.
//
// This function is the in-process oracle for the distributed runtime
// (internal/dist.RunNashSharded): it performs the identical
// floating-point operations in the identical order as a fault-free
// distributed run with the same shard plan and options, so the two
// produce bit-identical profiles.
func ShardedBestReply(sys noncoop.System, shards [][]int, eps float64, maxRounds int, opt ShardedOpts) (ShardedResult, error) {
	if err := sys.Validate(); err != nil {
		return ShardedResult{}, err
	}
	if eps <= 0 {
		eps = 1e-9
	}
	if maxRounds <= 0 {
		maxRounds = 10_000
	}
	localSweeps := opt.LocalSweeps
	if localSweeps <= 0 {
		localSweeps = 4
	}
	m, n := sys.NumUsers(), sys.NumComputers()
	for _, members := range shards {
		for _, j := range members {
			if j < 0 || j >= m {
				return ShardedResult{}, fmt.Errorf("game: shard member %d out of range [0,%d)", j, m)
			}
		}
	}

	// NASH_P proportional initialization, as in the flat ring.
	prof, _ := noncoop.PS{}.Profile(sys) // sys was validated above

	// Per-shard local loads and the reconciled global loads.
	local := make([][]float64, len(shards))
	for g := range shards {
		local[g] = make([]float64, n)
	}
	global := make([]float64, n)

	step := noncoop.NewStepper(sys.Mu, m)
	states := make([]noncoop.StepState, m)
	ext := make([]float64, n)
	tok := make([]float64, n) // the "token" load vector: ext + local
	end := make([]float64, n)

	// Active-set skipping state: a shard whose last activation already
	// met its eps share is skipped while the external view has moved
	// less than that share since (see shouldSkip below). view[g] is the
	// reconciled global the shard last swept into; lastNorm[g] is its
	// last activation norm (+Inf until first activation, forcing it).
	view := make([][]float64, len(shards))
	lastNorm := make([]float64, len(shards))
	for g := range shards {
		view[g] = make([]float64, n)
	}

	// reconcile recomputes the global view from the shard locals, summed
	// in ascending shard order as the distributed root sums them.
	reconcile := func() {
		for i := 0; i < n; i++ {
			var sum float64
			for g := range shards {
				sum += local[g][i]
			}
			global[i] = sum
		}
	}

	// rebuild derives every shard's loads from the rows (the distributed
	// leader's resync arithmetic) and the global view from them, and
	// forces every shard's next activation: the start of the run, and
	// the restart after a profile fails the stop certificate.
	rebuild := func() {
		for g, members := range shards {
			for i := range local[g] {
				local[g][i] = 0
			}
			for _, j := range members {
				for i, f := range prof.S[j] {
					local[g][i] += f * sys.Phi[j]
				}
			}
			lastNorm[g] = math.Inf(1)
		}
		reconcile()
	}
	rebuild()

	// shouldSkip reports whether shard g can sit this round out: its
	// last activation was already within its eps share, and the global
	// view has drifted by less than that share since (so re-sweeping
	// could displace at most ~2·locEps). Summed over shards the slack is
	// bounded by ~2·eps, so the scheme converges to the same tolerance
	// class while the quiescent tail stops burning sweeps. The
	// distributed root (internal/dist) applies the identical float
	// logic, keeping oracle runs bit-exact.
	shouldSkip := func(g int, locEps float64) bool {
		if lastNorm[g] > locEps {
			return false
		}
		var delta float64
		for i := 0; i < n; i++ {
			delta = satAdd(delta, math.Abs(global[i]-view[g][i]))
		}
		return delta <= locEps
	}

	res := ShardedResult{Profile: prof}
	for round := 1; ; round++ {
		// The loads the previous round ended at, which every shard's
		// first sweep times its members against (the distributed root
		// sends them on each down).
		copy(end, global)
		var roundNorm, endNorm float64
		for g, members := range shards {
			k := len(members)
			if k == 0 {
				continue
			}
			locEps := eps * float64(k) / float64(m)
			if shouldSkip(g, locEps) {
				continue
			}
			for i := 0; i < n; i++ {
				ext[i] = global[i] - local[g][i]
			}
			// The token loads are computed once per round and carried
			// across sweeps (the distributed leader does the same), so
			// multi-sweep rounds stay bit-identical to the runtime.
			for i := 0; i < n; i++ {
				tok[i] = ext[i] + local[g][i]
			}
			// A lone member sweeps once: its second sweep would reply
			// to its own move and always read a norm of 0.
			budget := localSweeps
			if k == 1 {
				budget = 1
			}
			var norm, shardEnd float64
			for sweep := 1; sweep <= budget; sweep++ {
				// Only the first sweep carries the end loads, as the
				// leader puts them on its first token only; the other
				// sweeps' end terms are 0.
				sweepEnd := end
				if sweep > 1 {
					sweepEnd = nil
				}
				norm = 0
				for _, j := range members {
					d, dEnd, err := step.Step(tok, sweepEnd, prof.S[j], sys.Phi[j], &states[j])
					if err != nil {
						return res, fmt.Errorf("game: user %d best reply: %w", j, err)
					}
					norm = satAdd(norm, d)
					shardEnd = satAdd(shardEnd, dEnd)
				}
				res.Sweeps++
				if norm <= locEps {
					break
				}
			}
			for i := 0; i < n; i++ {
				local[g][i] = tok[i] - ext[i]
			}
			lastNorm[g] = norm
			// The next shard sweeps against this shard's moves.
			reconcile()
			copy(view[g], global)
			roundNorm = satAdd(roundNorm, norm)
			endNorm = satAdd(endNorm, shardEnd)
		}
		res.Rounds = round
		// The run stops on whichever norm reaches eps first: the round
		// norm, or the end-of-round norm of the round before.
		res.Norm = roundNorm
		if endNorm <= eps {
			res.Norm = endNorm
		}
		if res.Norm > eps && round < maxRounds {
			continue
		}
		// The stop certificate: the token norm sums each shard's last
		// sweep, which cannot see what its first sweep moved, and the
		// end-of-round norm leaves out the skipped shards, so the
		// profile must also pass one more flat best-reply round.
		gap, err := noncoop.Gap(sys, prof)
		if err != nil {
			return res, fmt.Errorf("game: stop certificate: %w", err)
		}
		if res.Norm <= eps && gap <= GapFactor*eps {
			return res, nil
		}
		if round == maxRounds {
			return res, fmt.Errorf("game: sharded best reply exceeded %d rounds (norm=%g, gap=%g)", maxRounds, res.Norm, gap)
		}
		rebuild()
	}
}
