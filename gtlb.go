// Package gtlb is a game-theoretic load-balancing library for
// distributed systems, reproducing Grosu, Chronopoulos & Leung, "Load
// Balancing in Distributed Systems: An Approach Using Cooperative
// Games" (IPPS 2002) and the surrounding dissertation work.
//
// The package is the library's public face; the implementation lives in
// the internal packages and is re-exported here:
//
//   - COOP computes the Nash Bargaining Solution of the cooperative game
//     among computers — the paper's primary contribution: a Pareto
//     optimal allocation in which every job sees the same expected
//     response time (fairness index exactly 1).
//   - Schemes returns the comparison allocators (PROP, OPTIM, WARDROP)
//     alongside COOP behind one interface.
//   - NashEquilibrium solves the multi-user noncooperative game by
//     iterated best replies; RunNashSharded runs the same computation as
//     the distributed §4.3 message-passing protocol.
//   - Mechanism is the truthful load-balancing mechanism (Archer–Tardos
//     payments); VerifiedMechanism is the compensation-and-bonus
//     mechanism with execution verification; RunLBM drives the bidding
//     protocol over a transport.
//   - Simulate validates any allocation on a discrete-event simulation
//     of the dispatcher/FCFS-computers system.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every reproduced table and figure.
package gtlb

import (
	"gtlb/internal/bayes"
	"gtlb/internal/core"
	"gtlb/internal/des"
	"gtlb/internal/dist"
	"gtlb/internal/dynamic"
	"gtlb/internal/mechanism"
	"gtlb/internal/metrics"
	"gtlb/internal/multiclass"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
	"gtlb/internal/routing"
	"gtlb/internal/schemes"
	"gtlb/internal/theorems"
	"gtlb/internal/verification"
	"gtlb/internal/workload"
)

// System is a single-class distributed system: per-computer processing
// rates and a total external arrival rate.
type System = core.System

// Allocation is the result of solving the cooperative game.
type Allocation = core.Allocation

// NewSystem constructs and validates a single-class system.
func NewSystem(mu []float64, phi float64) (System, error) {
	return core.NewSystem(mu, phi)
}

// COOP computes the Nash Bargaining Solution of the cooperative
// load-balancing game with the paper's O(n log n) COOP algorithm.
// Observers attached via options receive one CoopDrop event per
// computer removed from the used set and a final CoopSolve.
func COOP(sys System, opts ...Option) (Allocation, error) {
	ro := applyOptions(opts)
	a, err := core.COOPObserved(sys, ro.observer())
	return a, ro.finish(err)
}

// Allocator is a static single-class load-balancing scheme.
type Allocator = schemes.Allocator

// Schemes returns COOP, PROP, WARDROP and OPTIM behind the common
// Allocator interface, in the order the paper's figures list them.
func Schemes() []Allocator { return schemes.All() }

// FairnessIndex is Jain's fairness index over the positive entries of x;
// 1 means perfectly fair.
func FairnessIndex(x []float64) float64 { return metrics.FairnessIndex(x) }

// SystemResponseTime is the job-averaged expected response time of
// parallel M/M/1 computers under the load vector lambda.
func SystemResponseTime(mu, lambda []float64) float64 {
	return queueing.SystemResponseTime(mu, lambda)
}

// MultiSystem is the Chapter 4 multi-user system: n computers shared by
// m selfish users.
type MultiSystem = noncoop.System

// Profile is a strategy profile of the noncooperative game.
type Profile = noncoop.Profile

// NashOptions configures the best-reply iteration.
type NashOptions = noncoop.NashOptions

// NashResult is the outcome of the best-reply iteration.
type NashResult = noncoop.NashResult

// Init selects the NASH initialization; InitZero is NASH_0 and
// InitProportional is NASH_P.
type Init = noncoop.Init

// The NASH initializations.
const (
	InitZero         = noncoop.InitZero
	InitProportional = noncoop.InitProportional
)

// NewMultiSystem constructs and validates a multi-user system.
func NewMultiSystem(mu, phi []float64) (MultiSystem, error) {
	return noncoop.NewSystem(mu, phi)
}

// NashEquilibrium computes the Nash equilibrium of the noncooperative
// load-balancing game by round-robin best replies.
func NashEquilibrium(sys MultiSystem, opt NashOptions) (NashResult, error) {
	return noncoop.Nash(sys, opt)
}

// UserSchemes returns the Chapter 4 comparison schemes (NASH, GOS, IOS,
// PS) behind one interface.
func UserSchemes() []noncoop.Scheme { return noncoop.AllSchemes() }

// Mechanism is the Chapter 5 truthful load-balancing mechanism for
// selfish computers bidding their inverse processing rates.
type Mechanism = mechanism.Mechanism

// MechanismOutcome bundles loads, payments, costs and profits.
type MechanismOutcome = mechanism.Outcome

// FaultTolerantMechanism extends Mechanism with per-agent failure
// probabilities (the dissertation's §7.3 future-work item).
type FaultTolerantMechanism = mechanism.FaultTolerant

// VerifiedMechanism is the Chapter 6 compensation-and-bonus mechanism
// with execution verification for linear-latency computers.
type VerifiedMechanism = verification.Mechanism

// VerifiedExperiment is one Table 6.2 experiment row.
type VerifiedExperiment = verification.Experiment

// VerifiedExperiments returns the eight Table 6.2 experiments.
func VerifiedExperiments() []VerifiedExperiment { return verification.Experiments() }

// Network abstracts a message transport for the distributed protocols.
type Network = dist.Network

// NewMemNetwork returns the in-memory transport.
func NewMemNetwork() Network { return dist.NewMemNetwork() }

// NewTCPNetwork starts a TCP loopback broker; see dist.NewTCPNetwork.
func NewTCPNetwork(addr string) (Network, string, func() error, error) {
	return dist.NewTCPNetwork(addr)
}

// LBMResult is the outcome of the distributed LBM bidding protocol.
type LBMResult = dist.LBMResult

// ShardOptions tunes the NASH protocol runtime: shard count,
// per-activation sweep budget, and the fault-tolerance knobs (the
// root's wait for a shard, the leader's wait for its ring, retries,
// deadline, seed); the zero value uses safe defaults. Each link is
// retried only by the node that waits on it: the root re-sends a down
// its shard does not answer, a leader re-sends a token or sync its
// members do not answer, and a leader never times out on the root.
// ShardOptions{Shards: 1, LocalSweeps: 1} runs the paper's §4.3 ring.
type ShardOptions = dist.ShardOptions

// NashShardedResult is the outcome of a NASH protocol run, including
// reconciliation rounds, total shard-local sweeps, and any users
// ejected while it ran.
type NashShardedResult = dist.NashShardedResult

// RunNashSharded runs the §4.3 NASH protocol over a network of user
// nodes, organised as a two-level hierarchy: users are partitioned into
// shards that pass an epoch-fenced token around a ring, while a root
// node activates them one at a time and reconciles their aggregate
// loads: a round visits the users in turn, O(m) as on a single ring,
// but a quiescent shard sits it out (see DESIGN.md "Hierarchical
// protocols"). With
// WithShardOptions(ShardOptions{Shards: 1, LocalSweeps: 1}) it is the
// paper's single ring. Options tune convergence (WithEpsilon,
// WithMaxIter), resume from a checkpoint (WithCheckpoint), set the
// topology and hardening (WithShardOptions), inject faults
// (WithFaultPlan) and observe the run (WithObserver, WithTrace). A nil
// error certifies the profile: one more flat round of best replies
// would move the surviving users' response times by at most 4·ε in
// total.
func RunNashSharded(n Network, sys MultiSystem, opts ...Option) (NashShardedResult, error) {
	ro := applyOptions(opts)
	so := ro.shard
	so.Observer = obs.Multi(so.Observer, ro.observer())
	res, err := dist.RunNashShardedWith(ro.network(n), sys, ro.resume, ro.eps, ro.maxIter, so)
	return res, ro.finish(err)
}

// BidPolicy decides what a computer agent bids given its true value.
type BidPolicy = dist.BidPolicy

// ScaledBid returns a policy bidding factor × the true value.
func ScaledBid(factor float64) BidPolicy { return dist.ScaledBid(factor) }

// RunLBM runs the §5.4 bidding protocol over a network. Options harden
// the dispatcher (WithLBMOptions), inject faults (WithFaultPlan) and
// observe the run (WithObserver, WithTrace).
func RunLBM(n Network, trueValues []float64, policies []BidPolicy, phi float64, opts ...Option) (LBMResult, error) {
	ro := applyOptions(opts)
	lbm := ro.lbm
	lbm.Observer = obs.Multi(lbm.Observer, ro.observer())
	res, err := dist.RunLBMWith(ro.network(n), trueValues, policies, phi, lbm)
	return res, ro.finish(err)
}

// FaultPlan is a seeded chaos schedule for fault-injection testing; the
// zero value injects nothing.
type FaultPlan = dist.FaultPlan

// PartitionPlan cuts a FaultPlan's network in two for a traffic window.
type PartitionPlan = dist.PartitionPlan

// NewChaosNetwork wraps a transport with deterministic, seeded fault
// injection (drop, delay, duplicate, reorder, crash, partition). The
// same plan replayed over the same traffic produces the same schedule.
// Injected faults are reported to observers attached via WithObserver
// (pass a *Registry to reproduce the historical chaos.* counters);
// WithTrace is not supported here — the network has no run boundary to
// flush at, so attach the tracer to the protocol entry point instead.
func NewChaosNetwork(inner Network, plan FaultPlan, opts ...Option) Network {
	ro := applyOptions(opts)
	return dist.NewChaosNetwork(inner, plan, ro.observer())
}

// LBMOptions tunes the hardened LBM dispatcher (bid deadline, retries,
// backoff); the zero value uses safe defaults.
type LBMOptions = dist.LBMOptions

// SimConfig configures the discrete-event simulator. Replications run
// concurrently on a bounded worker pool (SimConfig.Workers; 0 means
// runtime.GOMAXPROCS(0), 1 forces the sequential path). Results are
// bit-identical for any worker count: each replication draws from its
// own random stream split deterministically from Seed, and results are
// aggregated in replication order.
type SimConfig = des.Config

// SimResult is the simulator's averaged measurements.
type SimResult = des.Result

// Simulate runs the discrete-event simulation of the central-dispatcher
// system. Observers attached via options (WithObserver, WithTrace)
// receive the per-event stream — arrivals, departures, requeues,
// reroutes, failures and repairs — alongside any cfg.Observer.
func Simulate(cfg SimConfig, opts ...Option) (SimResult, error) {
	ro := applyOptions(opts)
	cfg.Observer = obs.Multi(cfg.Observer, ro.observer())
	res, err := des.Run(cfg)
	return res, ro.finish(err)
}

// Distribution is a service-time or inter-arrival distribution usable
// in SimConfig (InterArrival, Service) and DynamicConfig.
type Distribution = queueing.Distribution

// Exponential returns a Poisson-process inter-arrival distribution of
// the given rate for use in SimConfig.
func Exponential(rate float64) queueing.Distribution {
	return queueing.NewExponential(rate)
}

// HyperExponential returns a two-stage balanced-means hyper-exponential
// distribution with the given mean and coefficient of variation (> 1).
func HyperExponential(mean, cv float64) (queueing.Distribution, error) {
	return queueing.NewHyperExponential(mean, cv)
}

// Pareto returns a heavy-tail Pareto distribution with the given mean
// and tail index alpha (> 1), for SimConfig.Service or InterArrival.
// The variance is infinite for alpha ≤ 2.
func Pareto(mean, alpha float64) (queueing.Distribution, error) {
	return queueing.NewParetoFromMean(mean, alpha)
}

// Weibull returns a Weibull distribution with the given mean and shape
// k; k < 1 gives a heavier-than-exponential tail, k = 1 is exponential.
func Weibull(mean, k float64) (queueing.Distribution, error) {
	return queueing.NewWeibullFromMean(mean, k)
}

// Lognormal returns a lognormal distribution with the given mean and
// coefficient of variation.
func Lognormal(mean, cv float64) (queueing.Distribution, error) {
	return queueing.NewLognormalFromMeanCV(mean, cv)
}

// DiurnalArrivals returns a periodic piecewise-constant nonhomogeneous
// Poisson inter-arrival process for SimConfig.InterArrival: the rate
// multipliers (one per equal segment of the period) are normalized to
// mean 1 and scaled by the base rate, so the time-average offered load
// equals base exactly. The simulator forks the process once per
// replication, keeping results bit-identical at any worker count.
func DiurnalArrivals(base float64, multipliers []float64, segment float64) (queueing.Distribution, error) {
	return queueing.NewDiurnalFromMultipliers(base, multipliers, segment)
}

// DynamicPolicy is a dynamic load-balancing policy for the simulator's
// dynamic mode (the §2.2.2 survey world).
type DynamicPolicy = des.DynamicPolicy

// DynamicConfig configures the dynamic-mode simulation.
type DynamicConfig = des.DynamicConfig

// DynamicResult is the dynamic-mode outcome.
type DynamicResult = des.DynamicResult

// SimulateDynamic runs the dynamic-mode simulation: per-computer arrival
// streams and a policy that may transfer jobs based on queue lengths.
// Observers attached via options receive arrivals, departures and
// inter-computer transfers.
func SimulateDynamic(cfg DynamicConfig, opts ...Option) (DynamicResult, error) {
	ro := applyOptions(opts)
	cfg.Observer = obs.Multi(cfg.Observer, ro.observer())
	res, err := des.RunDynamic(cfg)
	return res, ro.finish(err)
}

// DynamicPolicies returns the surveyed dynamic policies (LOCAL, RANDOM,
// THRESHOLD, SHORTEST, RECEIVER, SYMMETRIC, JSQ) with their conventional
// parameters.
func DynamicPolicies() []DynamicPolicy { return dynamic.All() }

// MultiClassSystem is the Chapter 2 (§2.2.1-II) multi-class model: R job
// classes with per-class processing rates on every computer.
type MultiClassSystem = multiclass.System

// MultiClassOptions tunes the multi-class Frank–Wolfe solver.
type MultiClassOptions = multiclass.Options

// MultiClassResult is the multi-class optimization outcome.
type MultiClassResult = multiclass.Result

// NewMultiClassSystem constructs and validates a multi-class system.
func NewMultiClassSystem(mu [][]float64, phi []float64) (MultiClassSystem, error) {
	return multiclass.NewSystem(mu, phi)
}

// OptimizeMultiClass computes the overall-optimal multi-class allocation
// (Kim & Kameda's eq. 2.13 objective) by Frank–Wolfe.
func OptimizeMultiClass(sys MultiClassSystem, opt MultiClassOptions) (MultiClassResult, error) {
	return multiclass.Optimize(sys, opt)
}

// RoutingNetwork is a set of parallel links with affine latencies — the
// §2.2.3 selfish-routing setting (price of anarchy, Stackelberg).
type RoutingNetwork = routing.Network

// RoutingLink is one affine-latency link.
type RoutingLink = routing.Link

// Trace is a recorded arrival workload; see internal/workload.
type Trace = workload.Trace

// GenerateTrace records n arrivals drawn from dist with the given seed.
func GenerateTrace(dist queueing.Distribution, n int, seed uint64) (Trace, error) {
	return workload.Generate(dist, n, queueing.NewRNG(seed))
}

// ReplayTrace wraps a trace as an inter-arrival distribution for
// SimConfig; the replay is deterministic and cycles when exhausted.
// The simulator forks the replay once per replication, so every
// replication sees the same arrival sequence regardless of the worker
// count.
func ReplayTrace(t Trace) (queueing.Distribution, error) {
	return workload.NewReplay(t)
}

// TheoremCatalog returns the executable theorem checks of Chapters 3–6
// (see cmd/lbverify).
func TheoremCatalog() []theorems.Entry { return theorems.All() }

// BayesScenario is one state of the world in the Bayesian game: a rate
// vector and its prior probability.
type BayesScenario = bayes.Scenario

// BayesSystem is the §7.3 Bayesian load-balancing game: the
// noncooperative game under incomplete information about the computers'
// rates.
type BayesSystem = bayes.System

// NewBayesSystem constructs and validates a Bayesian system.
func NewBayesSystem(scenarios []BayesScenario, phi []float64) (BayesSystem, error) {
	return bayes.NewSystem(scenarios, phi)
}

// BayesianEquilibrium computes a Bayesian-Nash equilibrium by iterated
// expected-cost best replies.
func BayesianEquilibrium(sys BayesSystem, eps float64, maxIter int) (bayes.Result, error) {
	return bayes.Equilibrium(sys, eps, maxIter)
}
