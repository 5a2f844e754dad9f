package ctrl

import (
	"fmt"
	"math"
	"strings"

	"gtlb/internal/core"
	"gtlb/internal/game"
	"gtlb/internal/obs"
)

// Policy selects what admission control does with demand that exceeds
// the Φ-feasibility bound.
type Policy uint8

const (
	// Shed drops excess demand: the controller admits up to the
	// feasibility bound and reports the remainder as shed. Nothing is
	// remembered between epochs.
	Shed Policy = iota
	// Queue retains excess demand as a backlog (in jobs, integrated
	// over logical time) and re-admits it once capacity returns, at a
	// rate damped by DrainGain so recovery cannot oscillate.
	Queue
)

// String names the policy for logs and flags.
func (p Policy) String() string {
	if p == Queue {
		return "queue"
	}
	return "shed"
}

// ParsePolicy reads a policy name ("shed" or "queue").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "shed":
		return Shed, nil
	case "queue":
		return Queue, nil
	}
	return Shed, fmt.Errorf("ctrl: unknown admission policy %q (want shed or queue)", s)
}

// Config tunes the reconciliation controller. The zero value is usable:
// every field below defaults as documented.
type Config struct {
	// Deadband is the hysteresis threshold: a relative drift (of any
	// user rate or any up computer's rate, against the last committed
	// estimate) below it holds the active allocation instead of
	// re-solving, so sub-threshold wiggles never thrash assignments.
	// Structural changes (churn, user-count changes, backlog to drain)
	// always bypass the deadband. The zero value takes the default
	// 0.05; negative is rejected. Use a tiny positive value (e.g.
	// 1e-12) to re-solve on effectively every estimate.
	Deadband float64
	// Headroom is the Φ-feasibility margin η ∈ (0,1): admitted demand
	// never exceeds η·Σμ over the up computers, keeping the COOP
	// subproblem strictly feasible. Default 0.95.
	Headroom float64
	// Policy says whether excess demand is shed or queued. Default Shed.
	Policy Policy
	// DrainGain γ ∈ (0,1] bounds how fast a queued backlog re-admits:
	// at most γ·(capacity − offered) jobs/s per epoch. The damping is
	// what keeps churn recovery from oscillating (rate-limited
	// reallocation in the sense of Berenbrink et al.). Default 0.5.
	DrainGain float64
	// MaxAge expires stale estimates: one whose Time lags the newest
	// seen estimate by more than MaxAge (logical seconds) is discarded
	// even if its Seq would advance. Zero disables age expiry (Seq
	// fencing always applies). Default 0.
	MaxAge float64
	// Observer receives ctrl.* events; nil is disabled.
	Observer obs.Observer
}

// withDefaults fills the documented defaults and validates ranges.
func (c Config) withDefaults() (Config, error) {
	if c.Deadband == 0 {
		c.Deadband = 0.05
	}
	if c.Deadband < 0 || math.IsNaN(c.Deadband) {
		return c, fmt.Errorf("ctrl: deadband must be non-negative, got %g", c.Deadband)
	}
	if c.Headroom == 0 {
		c.Headroom = 0.95
	}
	if !(c.Headroom > 0 && c.Headroom < 1) {
		return c, fmt.Errorf("ctrl: headroom must be in (0,1), got %g", c.Headroom)
	}
	if c.DrainGain == 0 {
		c.DrainGain = 0.5
	}
	if !(c.DrainGain > 0 && c.DrainGain <= 1) {
		return c, fmt.Errorf("ctrl: drain gain must be in (0,1], got %g", c.DrainGain)
	}
	if c.MaxAge < 0 || math.IsNaN(c.MaxAge) {
		return c, fmt.Errorf("ctrl: max age must be non-negative, got %g", c.MaxAge)
	}
	return c, nil
}

// Action says what the controller did with an estimate.
type Action uint8

const (
	// ActionRealloc committed a new epoch: drift exceeded the deadband
	// (or the change was structural) and COOP re-ran.
	ActionRealloc Action = iota
	// ActionHold kept the active allocation: drift stayed inside the
	// hysteresis deadband.
	ActionHold
	// ActionStale discarded the estimate: its Seq did not advance past
	// the last seen one, or it aged out past MaxAge.
	ActionStale
)

// String names the action for the epoch log.
func (a Action) String() string {
	switch a {
	case ActionRealloc:
		return "realloc"
	case ActionHold:
		return "hold"
	case ActionStale:
		return "stale"
	}
	return "unknown"
}

// Decision is the controller's verdict on one estimate — the unit of
// the epoch log. For a fixed estimate stream the decision sequence
// (including its String rendering) is byte-identical across runs and
// across checkpoint restarts.
type Decision struct {
	Seq    int     // the estimate's sequence number
	Time   float64 // the estimate's logical time
	Action Action
	Epoch  int // committed epoch count after this estimate

	Drift float64 // observed relative drift vs the committed baseline

	Offered  float64 // Σφ offered by the estimate
	Admitted float64 // demand admitted into the COOP solve
	Shed     float64 // demand shed this epoch (Policy Shed)
	Backlog  float64 // queued jobs awaiting re-admission (Policy Queue)

	Moved  float64 // load moved between computers (jobs/s), Σ|Δλ|/2
	MovedN int     // computers whose assignment materially changed

	Ejected []int // computers that left the active set this epoch
	Joined  []int // computers that entered the active set this epoch

	Spare float64 // committed common spare capacity (0 when nothing runs)
	Warm  game.WarmStats
}

// String renders the fixed-format epoch log line. Floats print with
// %g (shortest round-trip form), so identical decisions render
// byte-identically.
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d t=%g %s epoch=%d offered=%g admitted=%g shed=%g backlog=%g moved=%g movedn=%d spare=%g drift=%g",
		d.Seq, d.Time, d.Action, d.Epoch, d.Offered, d.Admitted, d.Shed, d.Backlog, d.Moved, d.MovedN, d.Spare, d.Drift)
	if len(d.Ejected) > 0 {
		fmt.Fprintf(&b, " ejected=%v", d.Ejected)
	}
	if len(d.Joined) > 0 {
		fmt.Fprintf(&b, " joined=%v", d.Joined)
	}
	if d.Warm.Warm {
		fmt.Fprintf(&b, " warm=%d+%d-%d", d.Warm.Sweeps, d.Warm.Added, d.Warm.Dropped)
	}
	return b.String()
}

// Controller is the pure reconciliation state machine. It is not safe
// for concurrent use — the Daemon serializes access; tests and the X7
// experiment drive it directly.
type Controller struct {
	cfg Config

	epoch    int     // committed epochs so far
	seenSeq  int     // highest estimate Seq applied or held (fencing)
	seenTime float64 // highest estimate Time seen (age expiry)

	// Committed baseline: the estimate behind the active allocation.
	baseMu  []float64
	basePhi []float64
	baseT   float64 // committed logical time (checkpoint inspection)

	alloc    core.Allocation // active allocation, full estimate width
	admitted float64         // Σλ of alloc, reported by every hold
	backlog  float64         // queued jobs (Policy Queue)
	have     bool            // an epoch has committed
}

// New returns a controller with no active allocation; the first
// estimate always commits epoch 1.
func New(cfg Config) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, seenSeq: math.MinInt}, nil
}

// Epoch returns the number of committed epochs.
func (c *Controller) Epoch() int { return c.epoch }

// Backlog returns the queued demand (jobs) awaiting re-admission.
func (c *Controller) Backlog() float64 { return c.backlog }

// Allocation returns a copy of the active allocation; ok is false
// before the first committed epoch.
func (c *Controller) Allocation() (core.Allocation, bool) {
	if !c.have {
		return core.Allocation{}, false
	}
	out := core.Allocation{
		Lambda: append([]float64(nil), c.alloc.Lambda...),
		Spare:  c.alloc.Spare,
		Used:   append([]bool(nil), c.alloc.Used...),
	}
	return out, true
}

// scan is Ingest's one pass over an estimate: validity (Validate's
// predicates), the offered load Σφ, and the steady-state class against
// the committed baseline. structural is true for churn (an up-status
// flip) or a width change, both of which bypass the deadband; drift is
// the maximum symmetric relative change over the user rates and the
// surviving computer rates (0 when structural). Drift is measured
// against the last *committed* estimate, so sub-deadband creep
// accumulates until it trips the band. The builtin max has math.Max's
// NaN and ±0 rules, so drift equals a math.Max fold, bit for bit.
//
//lb:hotpath
func (c *Controller) scan(e *Estimate) (offered, drift float64, structural, ok bool) {
	ok = len(e.Phi) > 0 && len(e.Mu) > 0 && validRate(e.Time)
	structural = !c.have || len(e.Phi) != len(c.basePhi) || len(e.Mu) != len(c.baseMu)
	for j, p := range e.Phi {
		ok = ok && validRate(p)
		offered += p
		if !structural {
			drift = max(drift, relDrift(p, c.basePhi[j]))
		}
	}
	for i, m := range e.Mu {
		ok = ok && finite(m)
		if structural {
			continue
		}
		if b := c.baseMu[i]; (b > 0) != (m > 0) {
			structural = true
		} else if m > 0 {
			drift = max(drift, relDrift(m, b))
		}
	}
	if structural {
		drift = 0
	}
	return offered, drift, structural, ok
}

// relDrift is the symmetric relative change between two rates.
func relDrift(a, b float64) float64 {
	den := max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// observe emits through the configured observer (nil-safe).
func (c *Controller) observe(e obs.Event) {
	if c.cfg.Observer != nil {
		c.cfg.Observer.Observe(e)
	}
}

// Ingest applies one estimate and returns the decision. Invalid
// estimates return an error and change nothing (the daemon counts and
// drops them); admission pressure is never an error — excess demand is
// shed or queued per the configured policy.
func (c *Controller) Ingest(e Estimate) (Decision, error) {
	offered, drift, structural, ok := c.scan(&e)
	if !ok {
		c.observe(obs.Event{Kind: obs.CtrlInvalid, Time: e.Time})
		return Decision{}, e.Validate()
	}

	// Epoch fencing: duplicates and reordered deliveries never reach
	// the solver; neither do estimates that aged past MaxAge.
	if e.Seq <= c.seenSeq || (c.cfg.MaxAge > 0 && e.Time+c.cfg.MaxAge < c.seenTime) {
		c.observe(obs.Event{Kind: obs.CtrlStale, Time: e.Time})
		return Decision{Seq: e.Seq, Time: e.Time, Action: ActionStale, Epoch: c.epoch,
			Backlog: c.backlog, Spare: c.alloc.Spare}, nil
	}
	c.seenSeq = e.Seq
	prevTime := c.seenTime // backlog integrates over the inter-estimate gap
	if e.Time > c.seenTime {
		c.seenTime = e.Time
	}
	c.observe(obs.Event{Kind: obs.CtrlEstimate, Time: e.Time})

	dec := Decision{Seq: e.Seq, Time: e.Time, Offered: offered, Drift: drift}

	// The churn membership lists are only materialized off the hold path.
	if structural && c.have {
		for i := range max(len(e.Mu), len(c.baseMu)) {
			was, is := i < len(c.baseMu) && c.baseMu[i] > 0, i < len(e.Mu) && e.Mu[i] > 0
			if was && !is {
				dec.Ejected = append(dec.Ejected, i)
			} else if !was && is {
				dec.Joined = append(dec.Joined, i)
			}
		}
	}

	// Hysteresis hold: inside the deadband, with no structural change
	// and no backlog waiting to drain, the active allocation stands and
	// zero assignments move.
	if c.have && !structural && dec.Drift < c.cfg.Deadband && c.backlog == 0 {
		dec.Action = ActionHold
		dec.Epoch = c.epoch
		dec.Admitted = c.admitted
		if c.cfg.Policy == Shed && dec.Offered > dec.Admitted {
			// Shedding stays in force while the allocation holds.
			dec.Shed = dec.Offered - dec.Admitted
		}
		dec.Backlog = c.backlog
		dec.Spare = c.alloc.Spare
		c.observe(obs.Event{Kind: obs.CtrlHold, Time: e.Time, V: dec.Drift})
		return dec, nil
	}

	// Admission control: Φ-feasibility is an invariant, never an error.
	capSum, up := e.UpCapacity()
	capacity := c.cfg.Headroom * capSum
	dec.Admitted = math.Min(dec.Offered, capacity)
	overflow := dec.Offered - dec.Admitted
	switch c.cfg.Policy {
	case Queue:
		dt := 0.0
		if c.have && e.Time > prevTime {
			dt = e.Time - prevTime
		}
		c.backlog += overflow * dt
		if overflow == 0 && c.backlog > 0 && dt > 0 {
			// Damped drain: re-admit at most γ of the spare admission
			// room, and never more than the backlog itself.
			drain := math.Min(c.backlog/dt, c.cfg.DrainGain*(capacity-dec.Admitted))
			dec.Admitted += drain
			c.backlog -= drain * dt
			if c.backlog < 1e-9 {
				c.backlog = 0
			}
		}
	default:
		dec.Shed = overflow
	}
	dec.Backlog = c.backlog

	// Re-solve on the up subset, warm-started from the previous fixed
	// point projected onto it.
	n := len(e.Mu)
	next := core.Allocation{Lambda: make([]float64, n), Used: make([]bool, n)}
	if up > 0 && dec.Admitted >= 0 {
		subMu := make([]float64, 0, up)
		subIdx := make([]int, 0, up)
		prevUsed := make([]bool, 0, up)
		for i, m := range e.Mu {
			if m <= 0 {
				continue
			}
			subMu = append(subMu, m)
			subIdx = append(subIdx, i)
			prevUsed = append(prevUsed, c.have && i < len(c.alloc.Used) && c.alloc.Used[i])
		}
		sub := core.System{Mu: subMu, Phi: dec.Admitted}
		solved, stats, err := game.WarmCOOP(sub, core.Allocation{Used: prevUsed, Spare: c.alloc.Spare, Lambda: make([]float64, len(subMu))})
		if err != nil {
			// Unreachable by construction (admitted < Σμ via headroom);
			// degrade to an empty allocation rather than failing the
			// control loop.
			solved = core.Allocation{Lambda: make([]float64, len(subMu)), Used: make([]bool, len(subMu))}
			stats = game.WarmStats{}
			if c.cfg.Policy == Shed {
				dec.Shed = dec.Offered
			}
			dec.Admitted = 0
		}
		dec.Warm = stats
		next.Spare = solved.Spare
		for k, i := range subIdx {
			next.Lambda[i] = solved.Lambda[k]
			next.Used[i] = solved.Used[k]
		}
	} else if c.cfg.Policy == Shed {
		// No capacity at all: everything sheds, the allocation is empty.
		dec.Shed = dec.Offered
		dec.Admitted = 0
	}

	// Reallocation cost: load moved between computers.
	const tiny = 1e-9
	w := min(n, len(c.alloc.Lambda))
	var absDelta float64
	for i := 0; i < w; i++ {
		d := math.Abs(next.Lambda[i] - c.alloc.Lambda[i])
		absDelta += d
		if d > tiny*math.Max(1, c.alloc.Lambda[i]) || next.Used[i] != c.alloc.Used[i] {
			dec.MovedN++
		}
	}
	for i := w; i < n; i++ {
		absDelta += next.Lambda[i]
		if next.Lambda[i] > tiny {
			dec.MovedN++
		}
	}
	for i := w; i < len(c.alloc.Lambda); i++ {
		absDelta += c.alloc.Lambda[i]
		if c.alloc.Lambda[i] > tiny {
			dec.MovedN++
		}
	}
	dec.Moved = absDelta / 2

	// Commit the epoch.
	c.epoch++
	c.baseMu = append(c.baseMu[:0], e.Mu...)
	c.basePhi = append(c.basePhi[:0], e.Phi...)
	c.baseT = e.Time
	c.alloc = next
	c.admitted = sum(next.Lambda)
	c.have = true
	dec.Action = ActionRealloc
	dec.Epoch = c.epoch
	dec.Spare = next.Spare

	for _, i := range dec.Ejected {
		c.observe(obs.Event{Kind: obs.CtrlEject, Time: e.Time, A: int32(i)})
	}
	for _, i := range dec.Joined {
		c.observe(obs.Event{Kind: obs.CtrlJoin, Time: e.Time, A: int32(i)})
	}
	c.observe(obs.Event{Kind: obs.CtrlRealloc, Time: e.Time, B: int32(c.epoch), V: dec.Moved, N: int64(dec.MovedN)})
	if dec.Shed > 0 {
		c.observe(obs.Event{Kind: obs.CtrlShed, Time: e.Time, V: dec.Shed})
	}
	if c.cfg.Policy == Queue {
		c.observe(obs.Event{Kind: obs.CtrlBacklog, Time: e.Time, V: c.backlog})
	}
	return dec, nil
}

// sum adds a slice in order (Σλ of a committed or restored allocation).
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
