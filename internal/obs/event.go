// Package obs is the repository's deterministic observability layer: a
// typed event vocabulary (Event/Kind), an Observer interface the DES
// engine, the iterative solvers and the distributed protocols report
// into, a metrics Registry (counters, gauges, fixed-bucket histograms),
// and one event recorder, the Tracer, that buffers compact binary
// records and flushes them either as the binary trace format or,
// decoded, as JSON Lines; for a fixed seed either output is
// byte-identical at any worker count.
//
// Determinism contract: nothing in this package reads the wall clock or
// draws randomness. Every Event carries the emitter's own notion of time
// (virtual seconds in the simulator, iteration indices in the solvers);
// protocol events from concurrent goroutines are mutex-ordered and
// therefore arrive in a schedule-dependent order — their *counts* are
// deterministic, their interleaving is not (see Tracer for how the
// simulator sidesteps this with per-replication buffers).
//
// Hot-path contract: observers are threaded as plain interface values
// and every emission site is guarded by a nil check, so the nil
// (disabled) path costs one predicted branch and zero allocations — the
// DES engine's zero-steady-state-allocation property is gated on this
// (see TestDESAllocBudget).
package obs

// Kind identifies what happened. The numeric values are internal; the
// stable identity of an event kind is its Name, which doubles as the
// counter key in a Registry. The chaos.*, nash.* and lbm.* names
// predate this package (they were ad-hoc FaultCounters keys) and are
// preserved verbatim so recorded baselines stay comparable.
type Kind uint8

const (
	// KindUnknown is the zero Kind; it is never emitted.
	KindUnknown Kind = iota

	// Discrete-event simulator (internal/des), both static and dynamic
	// modes. Time is virtual seconds.
	DESArrival   // a job arrived and was routed: A = computer, B = user/home
	DESDeparture // a job completed: A = computer, B = user, V = response time
	DESRequeue   // an in-service job was pushed back by a failure: A = computer
	DESReroute   // routing renormalized away from a down computer: A = original, B = actual
	DESFail      // computer A failed
	DESRepair    // computer A was repaired
	DESTransfer  // dynamic mode moved a job: A = source, B = destination

	// Iterative solvers. Time is the iteration index.
	CoopDrop     // COOP water-fill dropped computer A; V = new water level
	CoopSolve    // COOP finished; V = final water level
	NashRound    // one best-reply round (in-process or ring); V = convergence norm
	FWIter       // one Frank–Wolfe iteration; V = duality gap
	WardropStep  // one Wardrop bisection step; V = midpoint level
	WardropSolve // Wardrop finished; V = final level

	// Chaos transport (internal/dist). Names match the historical
	// FaultCounters keys exactly.
	ChaosDrop      // message dropped
	ChaosDelay     // message delayed
	ChaosDuplicate // message duplicated
	ChaosReorder   // message reordered
	ChaosCrash     // node crash window opened
	ChaosPartition // network partition window opened

	// Sharded NASH traffic (internal/dist/shard.go).
	NashSend             // token sent by member A, or by the leader of shard A (each send of a circulation)
	NashTimeout          // a leader's wait for a token or sync answer, or the root's for a shard's report, ran out
	NashRetry            // a leader re-sent a token or sync, or the root re-sent a down
	NashEjected          // the root took a user out of the game
	NashTokenRegenerated // leader regenerated a lost token under a fresh epoch
	NashTokenStale       // stale token generation discarded

	// LBM bidding protocol (internal/dist/lbm.go).
	LBMBid        // bid received: A = computer, V = bid
	LBMRound      // one bid-collection attempt; Time = attempt index
	LBMAward      // load awarded: A = computer, V = load
	LBMRetry      // N bid requests retransmitted
	LBMTimeout    // a bid-collection attempt timed out
	LBMExcluded   // N computers excluded from the final allocation
	LBMBadMsg     // malformed protocol message discarded
	LBMAgentError // a computer agent reported an error

	// Live control plane (internal/ctrl). Time is the estimate's
	// logical timestamp; the epoch counter rides in B.
	CtrlEstimate   // a load estimate was ingested: Time = estimate time
	CtrlHold       // drift below the hysteresis deadband; V = observed drift
	CtrlRealloc    // an epoch committed: B = epoch, V = load moved (jobs/s), N = computers moved
	CtrlShed       // admission control shed demand; V = shed rate (jobs/s)
	CtrlBacklog    // queue policy backlog level after the epoch; V = queued jobs
	CtrlEject      // computer A left the active set (crash/leave)
	CtrlJoin       // computer A entered the active set
	CtrlStale      // a stale/duplicate/expired estimate was discarded
	CtrlInvalid    // a malformed estimate was rejected
	CtrlCheckpoint // control state checkpointed; B = epoch
	CtrlResume     // controller restored from a checkpoint; B = epoch

	// Hierarchical sharded NASH protocol (internal/dist/shard.go).
	// Shard-internal token traffic reuses the nash.* kinds above.
	HierRound        // one global reconciliation round; Time = round, V = norm
	HierShardEjected // shard A ejected by the root failure detector
	HierJoin         // emitted by nothing; kept so the binary tracer's kind-name table (and its goldens) stay unchanged
	HierSync         // a leader row-sync answered by user A

	kindCount // sentinel; keep last
)

// kindNames maps Kind to its stable dotted name. Counter keys in a
// Registry are exactly these strings.
var kindNames = [kindCount]string{
	KindUnknown: "unknown",

	DESArrival:   "des.arrival",
	DESDeparture: "des.departure",
	DESRequeue:   "des.requeue",
	DESReroute:   "des.reroute",
	DESFail:      "des.fail",
	DESRepair:    "des.repair",
	DESTransfer:  "des.transfer",

	CoopDrop:     "coop.drop",
	CoopSolve:    "coop.solve",
	NashRound:    "nash.round",
	FWIter:       "fw.iter",
	WardropStep:  "wardrop.step",
	WardropSolve: "wardrop.solve",

	ChaosDrop:      "chaos.drop",
	ChaosDelay:     "chaos.delay",
	ChaosDuplicate: "chaos.duplicate",
	ChaosReorder:   "chaos.reorder",
	ChaosCrash:     "chaos.crash",
	ChaosPartition: "chaos.partition",

	NashSend:             "nash.send",
	NashTimeout:          "nash.timeout",
	NashRetry:            "nash.retry",
	NashEjected:          "nash.ejected",
	NashTokenRegenerated: "nash.token.regenerated",
	NashTokenStale:       "nash.token.stale",

	LBMBid:        "lbm.bid",
	LBMRound:      "lbm.round",
	LBMAward:      "lbm.award",
	LBMRetry:      "lbm.retry",
	LBMTimeout:    "lbm.timeout",
	LBMExcluded:   "lbm.excluded",
	LBMBadMsg:     "lbm.badmsg",
	LBMAgentError: "lbm.agent.error",

	CtrlEstimate:   "ctrl.estimate",
	CtrlHold:       "ctrl.hold",
	CtrlRealloc:    "ctrl.realloc",
	CtrlShed:       "ctrl.shed",
	CtrlBacklog:    "ctrl.backlog",
	CtrlEject:      "ctrl.eject",
	CtrlJoin:       "ctrl.join",
	CtrlStale:      "ctrl.stale",
	CtrlInvalid:    "ctrl.invalid",
	CtrlCheckpoint: "ctrl.checkpoint",
	CtrlResume:     "ctrl.resume",

	HierRound:        "hier.round",
	HierShardEjected: "hier.shard.ejected",
	HierJoin:         "hier.join",
	HierSync:         "hier.sync",
}

// Name returns the kind's stable dotted name (e.g. "des.arrival").
func (k Kind) Name() string {
	if k >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// Event is one observed occurrence. It is a small value type passed by
// value so emission never allocates. Field meaning is per-Kind (see the
// Kind constants); unused fields are zero.
type Event struct {
	// Kind says what happened.
	Kind Kind
	// Time is the emitter's own clock: virtual seconds in the
	// simulator, the iteration/attempt index in solvers and protocols.
	// Never wall-clock time.
	Time float64
	// A and B are small integer operands (computer, user or node
	// indices).
	A, B int32
	// N is an occurrence count for batched events; 0 means 1.
	N int64
	// V is a measured value (response time, bid, convergence norm).
	V float64
	// Node optionally names the reporting protocol node.
	Node string
}

// Count returns the number of occurrences the event represents: N, with
// the 0-means-1 convention applied.
func (e Event) Count() int64 {
	if e.N <= 0 {
		return 1
	}
	return e.N
}
