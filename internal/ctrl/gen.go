package ctrl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gtlb/internal/queueing"
)

// ChurnKind is a scripted churn event type.
type ChurnKind uint8

const (
	// ChurnCrash takes a computer down (its μ reports as 0).
	ChurnCrash ChurnKind = iota
	// ChurnRestore brings a crashed computer back at its base rate.
	ChurnRestore
	// ChurnJoin adds a brand-new computer with the event's Mu.
	ChurnJoin
)

// String names the churn kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnCrash:
		return "crash"
	case ChurnRestore:
		return "restore"
	case ChurnJoin:
		return "join"
	}
	return "unknown"
}

// ChurnEvent schedules one churn action at a generator step.
type ChurnEvent struct {
	Step     int       // estimate index (0-based) at which the event applies
	Kind     ChurnKind // crash, restore or join
	Computer int       // target computer (ignored for join, which appends)
	Mu       float64   // processing rate of the joining computer
}

// GenConfig configures the deterministic load generator: synthetic
// diurnal traffic (the PR 6 NHPP profile shape) with seeded jitter and
// scripted churn, emitted as an Estimate stream. Two generators built
// from the same config produce byte-identical streams.
type GenConfig struct {
	Seed  uint64    // RNG seed for the jitter stream
	Mu    []float64 // base per-computer processing rates, all positive
	Users []float64 // base per-user arrival rates, all non-negative
	Steps int       // number of estimates to emit; <= 0 means unbounded
	DT    float64   // logical seconds between estimates, default 1

	// Multipliers and Segment shape the diurnal profile: the per-user
	// rates are scaled by the piecewise profile evaluated at the
	// estimate's logical time (exactly the PR 6 NHPP intensity shape).
	// Empty multipliers mean a flat profile.
	Multipliers []float64
	Segment     float64

	// Jitter is the relative uniform wiggle amplitude a ∈ [0,1): every
	// rate is scaled by (1 + a·(2u−1)) with one RNG draw per rate per
	// step. Draws happen for down computers too, so the jitter stream
	// stays aligned under churn.
	Jitter float64

	Events []ChurnEvent
	Source string
}

// Generator emits the configured estimate stream.
type Generator struct {
	cfg     GenConfig
	profile *queueing.Diurnal
	rng     *queueing.RNG
	events  []ChurnEvent // sorted by step

	step   int
	nextEv int
	mu     []float64 // current base rates (grows on join)
	down   []bool
}

// NewGenerator validates the config and returns a generator at step 0.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if len(cfg.Mu) == 0 {
		return nil, errors.New("ctrl: generator needs at least one computer")
	}
	if len(cfg.Users) == 0 {
		return nil, errors.New("ctrl: generator needs at least one user")
	}
	for i, m := range cfg.Mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("ctrl: generator computer rate %d must be a positive finite number, got %g", i, m)
		}
	}
	for j, p := range cfg.Users {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("ctrl: generator user rate %d must be a non-negative finite number, got %g", j, p)
		}
	}
	if cfg.DT == 0 {
		cfg.DT = 1
	}
	if cfg.DT <= 0 || math.IsNaN(cfg.DT) || math.IsInf(cfg.DT, 0) {
		return nil, fmt.Errorf("ctrl: generator step must be a positive finite number, got %g", cfg.DT)
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		return nil, fmt.Errorf("ctrl: generator jitter must be in [0,1), got %g", cfg.Jitter)
	}
	var profile *queueing.Diurnal
	if len(cfg.Multipliers) > 0 {
		seg := cfg.Segment
		if seg <= 0 {
			return nil, fmt.Errorf("ctrl: diurnal profile needs a positive segment, got %g", seg)
		}
		var err error
		profile, err = queueing.NewDiurnalFromMultipliers(1, cfg.Multipliers, seg)
		if err != nil {
			return nil, err
		}
	}
	events := append([]ChurnEvent(nil), cfg.Events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].Step < events[b].Step })
	nComputers := len(cfg.Mu)
	joins := 0
	for _, ev := range events {
		switch ev.Kind {
		case ChurnJoin:
			if ev.Mu <= 0 || math.IsNaN(ev.Mu) || math.IsInf(ev.Mu, 0) {
				return nil, fmt.Errorf("ctrl: join event at step %d needs a positive rate, got %g", ev.Step, ev.Mu)
			}
			joins++
		case ChurnCrash, ChurnRestore:
			if ev.Computer < 0 || ev.Computer >= nComputers+joins {
				return nil, fmt.Errorf("ctrl: %s event at step %d targets computer %d of %d", ev.Kind, ev.Step, ev.Computer, nComputers+joins)
			}
		default:
			return nil, fmt.Errorf("ctrl: unknown churn kind %d at step %d", ev.Kind, ev.Step)
		}
		if ev.Step < 0 {
			return nil, fmt.Errorf("ctrl: churn event step %d is negative", ev.Step)
		}
	}
	g := &Generator{
		cfg:     cfg,
		profile: profile,
		rng:     queueing.NewRNG(cfg.Seed),
		events:  events,
		mu:      append([]float64(nil), cfg.Mu...),
		down:    make([]bool, len(cfg.Mu)),
	}
	return g, nil
}

// Next emits the next estimate; ok is false once Steps estimates have
// been produced (never for an unbounded generator).
func (g *Generator) Next() (Estimate, bool) {
	if g.cfg.Steps > 0 && g.step >= g.cfg.Steps {
		return Estimate{}, false
	}
	// Apply scripted churn due at this step.
	for g.nextEv < len(g.events) && g.events[g.nextEv].Step <= g.step {
		ev := g.events[g.nextEv]
		g.nextEv++
		switch ev.Kind {
		case ChurnCrash:
			if ev.Computer < len(g.mu) {
				g.down[ev.Computer] = true
			}
		case ChurnRestore:
			if ev.Computer < len(g.mu) {
				g.down[ev.Computer] = false
			}
		case ChurnJoin:
			g.mu = append(g.mu, ev.Mu)
			g.down = append(g.down, false)
		}
	}

	t := float64(g.step) * g.cfg.DT
	mult := 1.0
	if g.profile != nil {
		mult = g.profile.Rate(t)
	}
	jitter := func() float64 {
		u := g.rng.Float64()
		return 1 + g.cfg.Jitter*(2*u-1)
	}
	e := Estimate{
		Seq:    g.step + 1,
		Time:   t,
		Phi:    make([]float64, len(g.cfg.Users)),
		Mu:     make([]float64, len(g.mu)),
		Source: g.cfg.Source,
	}
	for j, base := range g.cfg.Users {
		e.Phi[j] = base * mult * jitter()
	}
	for i, base := range g.mu {
		// Draw for down computers too: the jitter stream's alignment
		// must not depend on the churn script.
		w := jitter()
		if g.down[i] {
			e.Mu[i] = 0
		} else {
			e.Mu[i] = base * w
		}
	}
	g.step++
	return e, true
}
