package des

import (
	"errors"
	"fmt"

	"gtlb/internal/metrics"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// Config describes one simulation scenario.
type Config struct {
	// Mu are the computers' processing rates; service times at computer
	// i are exponential with rate Mu[i] (the M/M/1 model) unless
	// overridden per computer by Service.
	Mu []float64

	// Service optionally overrides the service-time distribution per
	// computer: a nil slice (or a nil entry) keeps the exponential
	// Mu[i] draw, so existing configurations are untouched. To change
	// the shape without changing the offered load, build entries with
	// the mean-matched constructors (e.g.
	// queueing.NewParetoFromMean(1/Mu[i], alpha)); Mu[i] stays the
	// analytic reference rate either way. Stateful distributions
	// implementing Fork() get one fork per replication, like
	// InterArrival. Caveat: with Breakdowns, a job interrupted by a
	// failure re-draws its full service time on repair — exact for
	// exponential service by memorylessness, a preemptive-repeat-
	// with-resample approximation for general distributions.
	Service []queueing.Distribution

	// InterArrival is the system-wide inter-arrival distribution. Use
	// queueing.NewExponential(phi) for a Poisson stream of total rate
	// phi, or a HyperExponential for the Figure 3.6/4.8 experiments.
	InterArrival queueing.Distribution

	// UserShare[j] is the probability an arriving job belongs to user j.
	// Leave nil for a single-class system (all jobs are user 0).
	UserShare []float64

	// Routing[j][i] is the probability that a user-j job is dispatched
	// to computer i — the strategy profile of the scheme under test. For
	// a single-class system provide one row. Rows must sum to 1.
	Routing [][]float64

	// Horizon is the virtual duration of a replication in seconds.
	Horizon float64

	// Warmup discards jobs arriving before this virtual time so queues
	// reach steady state before measurement begins.
	Warmup float64

	// Seed seeds the root random stream; each replication derives an
	// independent stream (the paper's "different random number
	// streams").
	Seed uint64

	// Replications is the number of independent runs averaged; 0 means
	// 5, the paper's count.
	Replications int

	// Workers bounds how many replications execute concurrently. 0 (or
	// unset) means runtime.GOMAXPROCS(0); 1 forces the sequential path.
	// Any worker count produces bit-identical results: every replication
	// draws from its own pre-split random stream and results are
	// aggregated in replication order.
	Workers int

	// Observer optionally receives the run's events (arrivals,
	// departures, requeues, reroutes, failures, repairs) with virtual
	// timestamps. nil disables observation at the cost of one predicted
	// branch per event — the steady-state loop stays allocation-free
	// either way. Observers implementing obs.RepForker (the obs
	// Tracer, in either flush encoding) get one fork per replication so
	// event streams stay deterministic at any worker count; other
	// observers are shared across the pool and must be safe for
	// concurrent use.
	Observer obs.Observer

	// Breakdowns optionally injects failures: computer i alternates
	// exponentially distributed up-times (rate FailRate) and repair
	// times (rate RepairRate). While a computer is down its service
	// pauses (the job in service resumes after repair — valid as a
	// fresh exponential draw by memorylessness) and the dispatcher
	// reroutes arrivals destined for it proportionally among the up
	// computers. Leave nil or per-entry zero FailRate for no failures.
	Breakdowns []Breakdown
}

// Breakdown is one computer's failure/repair model.
type Breakdown struct {
	FailRate   float64 // rate of the exponential up-time (0 = never fails)
	RepairRate float64 // rate of the exponential repair time
}

func (c Config) validate() error {
	if len(c.Mu) == 0 {
		return errors.New("des: need at least one computer")
	}
	for i, m := range c.Mu {
		if m <= 0 {
			return fmt.Errorf("des: computer %d has non-positive rate %g", i, m)
		}
	}
	if c.InterArrival == nil {
		return errors.New("des: missing inter-arrival distribution")
	}
	if c.Service != nil && len(c.Service) != len(c.Mu) {
		return fmt.Errorf("des: %d service distributions for %d computers", len(c.Service), len(c.Mu))
	}
	if len(c.Routing) == 0 {
		return errors.New("des: missing routing fractions")
	}
	users := len(c.Routing)
	if c.UserShare != nil && len(c.UserShare) != users {
		return fmt.Errorf("des: %d user shares for %d routing rows", len(c.UserShare), users)
	}
	if c.UserShare == nil && users != 1 {
		return errors.New("des: multi-user routing requires UserShare")
	}
	for j, row := range c.Routing {
		if len(row) != len(c.Mu) {
			return fmt.Errorf("des: routing row %d has %d entries, want %d", j, len(row), len(c.Mu))
		}
		var sum float64
		for i, f := range row {
			if f < 0 {
				return fmt.Errorf("des: routing row %d has negative fraction at computer %d", j, i)
			}
			sum += f
		}
		if sum <= 0 {
			return fmt.Errorf("des: routing row %d routes nowhere", j)
		}
	}
	if c.Horizon <= 0 {
		return errors.New("des: horizon must be positive")
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("des: warmup %g outside [0, horizon)", c.Warmup)
	}
	if c.Workers < 0 {
		return fmt.Errorf("des: negative worker count %d", c.Workers)
	}
	if c.Breakdowns != nil {
		if len(c.Breakdowns) != len(c.Mu) {
			return fmt.Errorf("des: %d breakdown models for %d computers", len(c.Breakdowns), len(c.Mu))
		}
		for i, bd := range c.Breakdowns {
			if bd.FailRate < 0 || bd.RepairRate < 0 {
				return fmt.Errorf("des: computer %d has negative breakdown rates", i)
			}
			if bd.FailRate > 0 && bd.RepairRate == 0 {
				return fmt.Errorf("des: computer %d fails but never repairs", i)
			}
		}
	}
	return nil
}

// Result aggregates a simulation's measurements across replications.
type Result struct {
	// Overall is the job-averaged response time: per-replication means
	// summarized across replications.
	Overall metrics.Summary
	// P95 summarizes the per-replication 95th-percentile response time
	// (P² streaming estimate) — the tail the mean hides.
	P95 metrics.Summary
	// PerComputer[i] summarizes the mean response time at computer i
	// across replications (0 observations if the computer was idle).
	PerComputer []metrics.Summary
	// PerUser[j] summarizes user j's mean response time.
	PerUser []metrics.Summary
	// Utilization[i] is computer i's measured busy-time fraction over
	// the horizon, averaged across replications; it should match the
	// analytic λ_i/μ_i for stable stations.
	Utilization []float64
	// Jobs is the total number of measured job completions.
	Jobs int
}

// server is one computer's FCFS queue state.
type server struct {
	queue        jobRing
	busy         bool
	inService    jobID   // the job being served while busy (noJob otherwise)
	serviceStart float64 // when the current service began
	busyTime     float64 // accumulated service time inside the horizon
}

// samplers are the precomputed routing tables shared by every
// replication of a Run: Walker alias tables for the user-share draw and
// each user's routing row. Construction is deterministic and consumes no
// randomness, and the tables are immutable afterwards, so sharing them
// across the worker pool preserves the bit-identical-at-any-worker-count
// contract. Every routed job consumes exactly one Float64 per table
// consulted (see the RNG-draw discipline note on runOnce).
type samplers struct {
	user  *queueing.AliasSampler   // nil for single-class systems
	route []*queueing.AliasSampler // one table per user row
}

func buildSamplers(cfg Config) (samplers, error) {
	var sp samplers
	if cfg.UserShare != nil {
		u, err := queueing.NewAliasSampler(cfg.UserShare)
		if err != nil {
			return samplers{}, fmt.Errorf("des: user shares: %w", err)
		}
		sp.user = u
	}
	sp.route = make([]*queueing.AliasSampler, len(cfg.Routing))
	for j, row := range cfg.Routing {
		t, err := queueing.NewAliasSampler(row)
		if err != nil {
			return samplers{}, fmt.Errorf("des: routing row %d: %w", j, err)
		}
		sp.route[j] = t
	}
	return sp, nil
}

// Run executes the scenario and returns averaged measurements. Each
// replication simulates Config.Horizon virtual seconds; jobs arriving
// before Warmup are served but not measured.
//
// Replications execute on a bounded worker pool (Config.Workers); the
// output is bit-identical for any worker count because each replication
// draws from its own pre-split random stream and the per-replication
// results are aggregated in replication order (see pool.go).
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	reps := cfg.Replications
	if reps <= 0 {
		reps = 5
	}
	users := len(cfg.Routing)

	sp, err := buildSamplers(cfg)
	if err != nil {
		return Result{}, err
	}
	streams := splitStreams(cfg.Seed, reps)
	arrivals := make([]queueing.Distribution, reps)
	services := make([][]queueing.Distribution, reps)
	for r := range arrivals {
		arrivals[r] = forkDistribution(cfg.InterArrival)
		services[r] = forkServices(cfg.Service)
	}
	observers := make([]obs.Observer, reps)
	for r := range observers {
		observers[r] = obs.ForkRep(cfg.Observer, r)
	}
	results := make([]replication, reps)
	forEachReplication(reps, workerCount(cfg.Workers, reps), func(r int) {
		results[r] = runOnce(cfg, arrivals[r], services[r], streams[r], users, sp, observers[r])
	})

	overall := make([]float64, 0, reps)
	p95s := make([]float64, 0, reps)
	perComp := make([][]float64, len(cfg.Mu))
	perUser := make([][]float64, users)
	util := make([]float64, len(cfg.Mu))
	totalJobs := 0

	for r := 0; r < reps; r++ {
		rep := &results[r]
		totalJobs += rep.total.N()
		if rep.total.N() > 0 {
			overall = append(overall, rep.total.Mean())
			p95s = append(p95s, rep.p95.Value())
		}
		for i := range cfg.Mu {
			if rep.comp[i].N() > 0 {
				perComp[i] = append(perComp[i], rep.comp[i].Mean())
			}
			util[i] += rep.busyTime[i] / cfg.Horizon / float64(reps)
		}
		for j := 0; j < users; j++ {
			if rep.user[j].N() > 0 {
				perUser[j] = append(perUser[j], rep.user[j].Mean())
			}
		}
	}

	res := Result{
		Overall:     metrics.Summarize(overall),
		P95:         metrics.Summarize(p95s),
		PerComputer: make([]metrics.Summary, len(cfg.Mu)),
		PerUser:     make([]metrics.Summary, users),
		Utilization: util,
		Jobs:        totalJobs,
	}
	for i := range perComp {
		res.PerComputer[i] = metrics.Summarize(perComp[i])
	}
	for j := range perUser {
		res.PerUser[j] = metrics.Summarize(perUser[j])
	}
	return res, nil
}

type replication struct {
	total    metrics.Accumulator
	p95      *metrics.Quantile
	comp     []metrics.Accumulator
	user     []metrics.Accumulator
	busyTime []float64
}

// runOnce executes one replication. The steady-state loop performs no
// heap allocations: the one pending arrival is a scalar, each computer's
// pending departure sits in its slot of a winner tree, failures and
// repairs are values in a flat 4-ary heap, jobs live in an
// index-addressed arena, FCFS queues are ring-buffer deques, and the
// failure-reroute renormalization reuses a scratch buffer. A failure
// clears its computer's slot, so no cancelled departure is ever popped.
//
// RNG-draw discipline (the bit-identical-across-worker-counts contract):
// every replication draws only from its own pre-split stream, and the
// draw sequence is fixed by event order — per arrival, one inter-arrival
// sample, one user-share alias draw (multi-user systems only), one
// routing alias draw, plus one renormalization draw only when the routed
// computer is down; one service-time sample per service start (the
// ziggurat Exp for the default exponential path, or the overriding
// Service[i] distribution's documented draw count — one Float64 for the
// heavy-tail inversion samplers); one draw per failure/repair
// scheduling. The alias tables are built before the worker pool starts
// and consume no randomness, so worker scheduling can never perturb any
// stream.
//
// Observation discipline: every emission is guarded by `if o != nil`, so
// the disabled path adds one predicted branch per event and no
// allocations (gated by TestSteadyStateAllocs and TestDESAllocBudget).
// Emissions never draw randomness, so traces cannot perturb streams.
//
//lb:hotpath
func runOnce(cfg Config, interArrival queueing.Distribution, service []queueing.Distribution, rng *queueing.RNG, users int, sp samplers, o obs.Observer) replication {
	rep := replication{
		p95:      metrics.MustQuantile(0.95),
		comp:     make([]metrics.Accumulator, len(cfg.Mu)),
		user:     make([]metrics.Accumulator, users),
		busyTime: make([]float64, len(cfg.Mu)),
	}
	n := len(cfg.Mu)
	servers := make([]server, n)
	for i := range servers {
		servers[i].inService = noJob
	}
	down := make([]bool, n)
	sched := &scheduler{}
	deps := newDepartures(n)
	arena := &jobArena{}
	scratch := make([]float64, n) // failure-reroute renormalization buffer

	// Prime the arrival stream and the failure processes. The pending
	// events live in three places, merged by the one (time, seq) order:
	// the single pending arrival in a scalar, each computer's pending
	// departure in its slot of the departures tree, and failures and
	// repairs in the event heap, which stays empty without Breakdowns.
	arrival := stampOf(interArrival.Sample(rng), sched.nextSeq())
	arrivalsOpen := true
	for i := range cfg.Breakdowns {
		if cfg.Breakdowns[i].FailRate > 0 {
			sched.schedule(rng.Exp(cfg.Breakdowns[i].FailRate), evFail, i, noJob)
		}
	}

	// startService starts serving computer i's next job if it can, and
	// reports whether it did.
	startService := func(i int, now float64) bool {
		s := &servers[i]
		if s.busy || down[i] || s.queue.len() == 0 {
			return false
		}
		s.busy = true
		j := s.queue.popFront()
		s.inService = j
		s.serviceStart = now
		var svc float64
		if service != nil && service[i] != nil {
			svc = service[i].Sample(rng)
		} else {
			svc = rng.Exp(cfg.Mu[i])
		}
		deps.set(i, now+svc, sched.nextSeq())
		return true
	}

	// clampBusy accumulates the [start, end] service interval clipped to
	// the measurement horizon, for utilization reporting.
	clampBusy := func(i int, start, end float64) {
		if start > cfg.Horizon {
			return
		}
		if end > cfg.Horizon {
			end = cfg.Horizon
		}
		if end > start {
			rep.busyTime[i] += end - start
		}
	}

	// route picks the destination for a job of user u, rerouting away
	// from failed computers by renormalizing the routing row over the
	// up set; if everything it would use is down, the original pick is
	// kept and the job waits out the repair.
	route := func(u int, now float64) int {
		i := sp.route[u].Sample(rng)
		if !down[i] {
			return i
		}
		var total float64
		for k, w := range cfg.Routing[u] {
			if down[k] {
				scratch[k] = 0
			} else {
				scratch[k] = w
				total += w
			}
		}
		if total <= 0 {
			return i
		}
		// One extra Float64 draw; a cumulative scan over the scratch
		// buffer, because the up-set changes with every failure/repair
		// and rebuilding an alias table here would allocate.
		x := rng.Float64() * total
		pick := -1
		for k, w := range scratch {
			x -= w
			if x < 0 {
				pick = k
				break
			}
		}
		if pick < 0 {
			for k := n - 1; k >= 0; k-- { // rounding guard at the boundary
				if scratch[k] > 0 {
					pick = k
					break
				}
			}
		}
		if pick < 0 {
			return i
		}
		if o != nil {
			o.Observe(obs.Event{Kind: obs.DESReroute, Time: now, A: int32(i), B: int32(pick)})
		}
		return pick
	}

	for {
		dep := deps.next()
		if arrivalsOpen && arrival.before(dep.stamp) && (sched.empty() || arrival.before(sched.peek().stamp())) {
			now := arrival.time()
			if now > cfg.Horizon {
				// Stop admitting new jobs; drain the remaining events so
				// in-flight jobs complete (run-to-completion). Failures
				// stop at the horizon too (inside evFail) while pending
				// repairs still fire so paused jobs can finish.
				arrivalsOpen = false
				continue
			}
			arrival = stampOf(now+interArrival.Sample(rng), sched.nextSeq())
			// Classify and route the job.
			u := 0
			if sp.user != nil {
				u = sp.user.Sample(rng)
			}
			i := route(u, now)
			if o != nil {
				o.Observe(obs.Event{Kind: obs.DESArrival, Time: now, A: int32(i), B: int32(u)})
			}
			id := arena.alloc(int32(u), now)
			servers[i].queue.pushBack(id)
			startService(i, now)
			continue
		}
		if sched.empty() || dep.before(sched.peek().stamp()) {
			if dep.key == noStamp {
				break // nothing pending anywhere
			}
			// The earliest departure: computer i completes its job. Its
			// slot is overwritten by the next service start, or cleared
			// if the computer idles.
			i := int(dep.server)
			now := dep.time()
			s := &servers[i]
			s.busy = false
			jid := s.inService
			s.inService = noJob
			clampBusy(i, s.serviceStart, now)
			j := arena.jobs[jid]
			arena.release(jid)
			rt := now - j.arrival
			if o != nil {
				o.Observe(obs.Event{Kind: obs.DESDeparture, Time: now, A: int32(i), B: j.user, V: rt})
			}
			if j.arrival >= cfg.Warmup {
				rep.total.Add(rt)
				rep.comp[i].Add(rt)
				if sp.user != nil {
					rep.user[j.user].Add(rt)
				}
				rep.p95.Add(rt)
			}
			if !startService(i, now) {
				deps.clear(i)
			}
			continue
		}
		ev := sched.next()
		switch ev.kind {
		case evFail:
			i := ev.server
			if ev.time > cfg.Horizon {
				continue
			}
			down[i] = true
			if o != nil {
				o.Observe(obs.Event{Kind: obs.DESFail, Time: ev.time, A: int32(i)})
			}
			if servers[i].busy {
				// Push the interrupted job back to the head of the
				// queue; its remaining service is re-drawn on repair —
				// distributionally identical by memorylessness for the
				// exponential default, preemptive-repeat-with-resample
				// for general Service distributions (see Config.Service).
				interrupted := servers[i].inService
				deps.clear(int(i)) // the interrupted job's departure
				servers[i].busy = false
				servers[i].inService = noJob
				clampBusy(int(i), servers[i].serviceStart, ev.time)
				servers[i].queue.pushFront(interrupted)
				if o != nil {
					o.Observe(obs.Event{Kind: obs.DESRequeue, Time: ev.time, A: int32(i)})
				}
			}
			sched.schedule(ev.time+rng.Exp(cfg.Breakdowns[i].RepairRate), evRepair, int(i), noJob)

		case evRepair:
			i := int(ev.server)
			down[i] = false
			if o != nil {
				o.Observe(obs.Event{Kind: obs.DESRepair, Time: ev.time, A: int32(i)})
			}
			startService(i, ev.time)
			// Schedule the next failure.
			sched.schedule(ev.time+rng.Exp(cfg.Breakdowns[i].FailRate), evFail, i, noJob)
		}
	}
	if sp.user == nil {
		// One class: user 0's jobs are all the jobs, so its accumulator
		// is the total's, fed the same stream by the same operations.
		rep.user[0] = rep.total
	}
	return rep
}
