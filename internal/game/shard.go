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
// runtime. The cross-shard schedule exists once, as Schedule (the
// root's half: reconcile, skip, rebuild, stop norm and certificate)
// and Shard (a leader's half: the per-activation sweep budget), which
// the oracle and the distributed root and leaders all drive, and each
// user step is the noncoop.Stepper kernel every distributed member
// runs. A fault-free distributed run therefore performs the oracle's
// floating-point operations in the oracle's order, and the two produce
// bit-identical profiles — the property the dist tests pin.
package game

import (
	"fmt"
	"math"
	"slices"

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
// 512 shards to bound the root's share of a round: a down, a partial
// and a reconcile over all G shards' loads per shard, O(G²·n).
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

// SatAdd accumulates a norm contribution, saturating at MaxFloat64 so
// several divergent users cannot overflow the sum to +Inf. Every norm
// of the sharded solve, in process and distributed, is summed with it.
func SatAdd(norm, d float64) float64 {
	if sum := norm + d; !math.IsInf(sum, 1) {
		return sum
	}
	return math.MaxFloat64
}

// ShardedOpts tunes ShardedBestReply. The zero value is the default
// scheme: shards activated one at a time, each running up to four
// sweeps per activation.
type ShardedOpts struct {
	// LocalSweeps caps the best-reply sweeps a shard runs per
	// activation (default 4, the default of dist.ShardOptions too).
	// Sweeps early-exit once the shard-local norm falls below the
	// shard's eps share (a one-member shard sweeps once), and, in a
	// shard that does not hold every user, once a sweep shrinks the
	// norm by less than half: the external view it sweeps against is
	// stale by the next reconcile. A growing norm keeps sweeping up to
	// the cap. On the systems of EXPERIMENTS.md X8 (rounds/sweeps) at
	// m=1000 and eps=1e-3 on 32 shards 4 take 9/503 where 1 takes 12/360,
	// on the 64-user warm-up of the repository's TCP benchmark 4 take
	// 67/301 where 1 takes 434/868, and at m=10,000 4 take 1/490 where 1
	// takes 3/939. Set 1 to reproduce the flat ring's exact user visit
	// order.
	LocalSweeps int
}

// Schedule is the cross-shard half of the sharded solve, written once
// for the in-process oracle (ShardedBestReply) and the distributed root
// (internal/dist): the per-shard loads and their ascending-order
// reconcile, the active-set skip, the rebuild from strategy rows, the
// choice of stop norm and the stop certificate. A round is BeginRound,
// then for every shard that Skip does not excuse an activation whose
// outcome Report takes, then EndRound. A fault-free distributed run
// drives the same calls in the same order as the oracle, so the two
// compute bit-identical loads. The caller owns the transport and the
// faults: EjectUser and EjectShard take members and shards out.
type Schedule struct {
	eps       float64
	maxRounds int
	sweeps    int // the per-activation sweep budget
	users     int // m: a shard of k members gets the eps share eps·k/m

	members [][]int     // live members of each shard, ascending
	live    []bool      // shards still in the reconcile
	local   [][]float64 // each shard's aggregate load
	global  []float64   // the live shards' loads, summed in ascending shard order
	end     []float64   // global at the start of the round

	// Active-set skipping state: view[g] is the global shard g last
	// swept into, last[g] its last activation norm (+Inf forces the
	// next activation).
	view [][]float64
	last []float64

	tokNorm, endNorm float64 // the round's sums, in ascending shard order

	// Rounds counts the completed rounds, Sweeps the shard sweeps over
	// all of them. Norm is the norm that ended the last round: its
	// end-of-round norm (the §4.3 norm Σ_j |D_j^(l) − D_j^(l−1)| of the
	// round before) when that reached eps, otherwise its token norm,
	// which sums each user's |ΔD_j| at its own turn.
	Rounds, Sweeps int
	Norm           float64
}

// NewSchedule returns the schedule of m users on n computers in the
// given shards (copied). It holds the one set of defaults of a sharded
// solve, in process and distributed: eps ≤ 0 selects 1e-9, maxRounds ≤
// 0 10,000 rounds and localSweeps ≤ 0 four sweeps per activation. The
// shard loads stay zero until Rebuild.
func NewSchedule(m, n int, shards [][]int, eps float64, maxRounds, localSweeps int) *Schedule {
	if eps <= 0 {
		eps = 1e-9
	}
	if maxRounds <= 0 {
		maxRounds = 10_000
	}
	if localSweeps <= 0 {
		localSweeps = 4
	}
	s := &Schedule{
		eps: eps, maxRounds: maxRounds, sweeps: localSweeps, users: m,
		members: make([][]int, len(shards)),
		live:    make([]bool, len(shards)),
		local:   make([][]float64, len(shards)),
		global:  make([]float64, n),
		end:     make([]float64, n),
		view:    make([][]float64, len(shards)),
		last:    make([]float64, len(shards)),
	}
	for g, members := range shards {
		s.members[g] = slices.Clone(members)
		s.live[g] = true
		s.local[g] = make([]float64, n)
		s.view[g] = make([]float64, n)
	}
	return s
}

// Global is the reconciled load vector: the loads a shard activated
// now sweeps against. The caller must not modify it.
func (s *Schedule) Global() []float64 { return s.global }

// End is the global loads the previous round ended at, which every
// activation's first sweep times its members against. The caller must
// not modify it.
func (s *Schedule) End() []float64 { return s.end }

// Live reports whether shard g is still in the reconcile.
func (s *Schedule) Live(g int) bool { return s.live[g] }

// NewShard returns shard g's side of an activation, starting from the
// shard's current loads (copied).
func (s *Schedule) NewShard(g int) *Shard {
	n := len(s.global)
	return &Shard{
		Local: slices.Clone(s.local[g]), Loads: make([]float64, n), ext: make([]float64, n),
		eps: s.eps, users: s.users, budget: s.sweeps,
	}
}

// Rebuild derives every live shard's loads from the strategy rows of
// its members (rows and phi indexed by user id), recomputes the global
// loads and forces every live shard's next activation: the start of a
// run, and the restart after a profile fails the stop certificate. The
// sum runs in member order, as a distributed leader's resync does, so
// the leader's external view comes out exact.
func (s *Schedule) Rebuild(rows [][]float64, phi []float64) {
	for g, members := range s.members {
		if !s.live[g] {
			continue
		}
		clear(s.local[g])
		for _, j := range members {
			addLoad(s.local[g], rows[j], phi[j])
		}
		s.last[g] = math.Inf(1)
	}
	s.reconcile()
}

// BeginRound opens a round: the global loads become the round's End,
// and both norms restart from zero.
func (s *Schedule) BeginRound() {
	copy(s.end, s.global)
	s.tokNorm, s.endNorm = 0, 0
}

// Skip reports whether shard g sits this round out: it was ejected, or
// its last activation was already within its eps share and the global
// view has drifted by less than that share since (so re-sweeping could
// displace at most ~2·locEps). Summed over shards the slack is bounded
// by ~2·eps, so the scheme converges to the same tolerance class while
// the quiescent tail stops burning sweeps.
//
//lb:hotpath
func (s *Schedule) Skip(g int) bool {
	if !s.live[g] {
		return true
	}
	locEps := s.eps * float64(len(s.members[g])) / float64(s.users)
	if s.last[g] > locEps {
		return false
	}
	var delta float64
	for i, v := range s.global {
		delta = SatAdd(delta, math.Abs(v-s.view[g][i]))
	}
	return delta <= locEps
}

// Report takes the outcome of shard g's activation: its new loads,
// the norm of its last sweep, the end-of-round norm of its first and
// its sweep count. The global loads are reconciled at once, so the
// next shard sweeps against this one's moves.
//
//lb:hotpath
func (s *Schedule) Report(g int, loads []float64, norm, endNorm float64, sweeps int) {
	copy(s.local[g], loads)
	s.reconcile()
	s.last[g] = norm
	copy(s.view[g], s.global)
	s.tokNorm = SatAdd(s.tokNorm, norm)
	s.endNorm = SatAdd(s.endNorm, endNorm)
	s.Sweeps += sweeps
}

// reconcile recomputes the global loads from the live shards' loads,
// summed in ascending shard order.
func (s *Schedule) reconcile() {
	for i := range s.global {
		var sum float64
		for g, loc := range s.local {
			if s.live[g] {
				sum += loc[i]
			}
		}
		s.global[i] = sum
	}
}

// EndRound closes a round and reports whether the run should gather
// its profile for the stop certificate: the round's stop norm reached
// eps, or the round budget is spent. The run stops on whichever norm
// reaches eps first: the token norm, or the end-of-round norm of the
// round before.
func (s *Schedule) EndRound() bool {
	s.Rounds++
	s.Norm = s.tokNorm
	if s.endNorm <= s.eps {
		s.Norm = s.endNorm
	}
	return s.Norm <= s.eps || s.Rounds >= s.maxRounds
}

// Settle applies the stop certificate to a gathered profile whose one
// more flat best-reply round moves response times by gap in total
// (noncoop.Gap). The token norm sums each shard's last sweep, which
// cannot see what its first sweep moved, and the end-of-round norm
// leaves out the skipped shards, so a run is over only when the stop
// norm is at most eps and gap at most GapFactor·eps, or, with an error,
// when the round budget is spent. Otherwise the caller rebuilds from
// the profile and the rounds resume.
func (s *Schedule) Settle(gap float64) (bool, error) {
	if s.Norm <= s.eps && gap <= GapFactor*s.eps {
		return true, nil
	}
	if s.Rounds < s.maxRounds {
		return false, nil
	}
	return true, fmt.Errorf("exceeded %d rounds (norm=%g, gap=%g)", s.maxRounds, s.Norm, gap)
}

// EjectUser takes user j out of its shard: the shard's eps share
// shrinks, and the next Rebuild leaves j's row out.
func (s *Schedule) EjectUser(j int) {
	for g, members := range s.members {
		if i := slices.Index(members, j); i >= 0 {
			s.members[g] = slices.Delete(members, i, i+1)
			return
		}
	}
}

// EjectShard takes shard g out of the reconcile and returns the members
// it still had.
func (s *Schedule) EjectShard(g int) []int {
	members := s.members[g]
	s.live[g], s.members[g] = false, nil
	s.reconcile()
	return members
}

// Shard is one shard's side of an activation: its aggregate load and
// the per-activation sweep budget. The oracle plays it in process; a
// distributed leader owns one and circulates each sweep through its
// members.
type Shard struct {
	// Local is the shard's aggregate load: Σ row·φ over its members.
	Local []float64
	// Loads is the token: the loads a sweep plays against and moves.
	Loads []float64
	// Norm is the last sweep's norm, EndNorm the first sweep's
	// end-of-round norm, Sweeps the sweeps run by the last activation.
	Norm, EndNorm float64
	Sweeps        int

	ext    []float64 // the activation's frozen external view
	end    []float64 // the loads the previous round ended at
	eps    float64
	users  int
	budget int
}

// Activate freezes an activation's external view, global − Local, and
// the loads the previous round ended at, which its first sweep carries.
// end must stay unmodified until the activation ends.
//
//lb:hotpath
func (s *Shard) Activate(global, end []float64) {
	for i, v := range global {
		s.ext[i] = v - s.Local[i]
	}
	s.end = end
}

// Run plays the activation's sweeps with k live members. Each call of
// sweep plays every member once against Loads, moving them, and returns
// the sweep's token norm and end-of-round norm; only the first sweep
// gets end, the later ones nil. The sweeps stop at the budget, once a
// sweep's norm is within the shard's eps share, after one sweep of a
// lone member (its second sweep would reply to its own move and always
// read a norm of 0), or, unless the shard holds every user of the game,
// once a sweep shrank the norm by less than half (prev/2 < norm < prev):
// further sweeps would refine a reply to an external view the next
// reconcile changes. On perfbench's m=1000 system this brings the
// default plan to 9 rounds and 503 sweeps, where running each
// activation to its eps share or the budget takes 11 and 773. A shard
// that holds every user has no external view and sweeps on; a growing
// norm sweeps on too. Local then takes the shard's new load. A sweep
// error aborts the activation; the next Run restarts it from Local
// against the same external view.
//
//lb:hotpath
func (s *Shard) Run(k int, sweep func(end []float64) (norm, endNorm float64, err error)) error {
	s.Norm, s.EndNorm, s.Sweeps = 0, 0, 0
	if k == 0 {
		return nil // a fully ejected shard adds nothing
	}
	locEps := s.eps * float64(k) / float64(s.users)
	for i, e := range s.ext {
		s.Loads[i] = e + s.Local[i]
	}
	budget := s.budget
	if k == 1 {
		budget = 1
	}
	end := s.end
	for s.Sweeps < budget {
		norm, endNorm, err := sweep(end)
		if err != nil {
			return err
		}
		if s.Sweeps == 0 {
			s.EndNorm = endNorm
		}
		stalled := s.Sweeps > 0 && k < s.users && s.Norm/2 < norm && norm < s.Norm
		s.Norm, end = norm, nil
		s.Sweeps++
		if norm <= locEps || stalled {
			break
		}
	}
	for i, e := range s.ext {
		s.Local[i] = s.Loads[i] - e
	}
	return nil
}

// Rebuild sets Local from the live members' strategy rows and arrival
// rates, aligned by member, in member order.
func (s *Shard) Rebuild(rows [][]float64, phi []float64) {
	clear(s.Local)
	for k, row := range rows {
		addLoad(s.Local, row, phi[k])
	}
}

// addLoad adds the load a strategy row puts on each computer at
// arrival rate phi.
func addLoad(dst, row []float64, phi float64) {
	for i, f := range row {
		dst[i] += f * phi
	}
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
// (internal/dist.RunNashShardedWith): it drives the same Schedule and Shard
// calls, and each user step is the noncoop.Stepper kernel every
// distributed member runs, so a fault-free distributed run with the
// same shard plan and options produces a bit-identical profile.
func ShardedBestReply(sys noncoop.System, shards [][]int, eps float64, maxRounds int, opt ShardedOpts) (ShardedResult, error) {
	if err := sys.Validate(); err != nil {
		return ShardedResult{}, err
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
	s := NewSchedule(m, n, shards, eps, maxRounds, opt.LocalSweeps)
	s.Rebuild(prof.S, sys.Phi)

	step := noncoop.NewStepper(sys.Mu, m)
	states := make([]noncoop.StepState, m)
	sh := s.NewShard(0) // reused: each activation points Local at its shard's loads
	var members []int
	sweep := func(end []float64) (float64, float64, error) {
		var norm, endNorm float64
		for _, j := range members {
			d, dEnd, err := step.Step(sh.Loads, end, prof.S[j], sys.Phi[j], &states[j])
			if err != nil {
				return 0, 0, fmt.Errorf("game: user %d best reply: %w", j, err)
			}
			norm = SatAdd(norm, d)
			endNorm = SatAdd(endNorm, dEnd)
		}
		return norm, endNorm, nil
	}

	res := ShardedResult{Profile: prof}
	for {
		s.BeginRound()
		for g := range shards {
			if s.Skip(g) {
				continue
			}
			members, sh.Local = shards[g], s.local[g]
			sh.Activate(s.global, s.end)
			if err := sh.Run(len(members), sweep); err != nil {
				return res, err
			}
			s.Report(g, sh.Local, sh.Norm, sh.EndNorm, sh.Sweeps)
		}
		gather := s.EndRound()
		res.Rounds, res.Sweeps, res.Norm = s.Rounds, s.Sweeps, s.Norm
		if !gather {
			continue
		}
		gap, err := noncoop.Gap(sys, prof)
		if err != nil {
			return res, fmt.Errorf("game: stop certificate: %w", err)
		}
		if done, err := s.Settle(gap); done {
			if err != nil {
				return res, fmt.Errorf("game: sharded best reply %w", err)
			}
			return res, nil
		}
		s.Rebuild(prof.S, sys.Phi)
	}
}
