// Package workload records and replays job arrival traces, making
// simulation workloads reproducible and portable: a trace generated from
// any distribution (or captured elsewhere) can be saved as JSON, loaded
// back, and fed to the discrete-event simulator as an inter-arrival
// distribution. This is the repository's stand-in for the production
// traces a deployment would replay against the allocation schemes.
package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"gtlb/internal/queueing"
)

// Trace is a recorded arrival process: successive inter-arrival gaps and
// optional per-job user tags.
type Trace struct {
	// Description is free-form provenance ("table 4.1 rho=0.6 H2 cv=1.6").
	Description string `json:"description,omitempty"`
	// InterArrivals are the successive gaps between jobs (seconds).
	InterArrivals []float64 `json:"inter_arrivals"`
	// Users optionally tags each job with its originating user; empty
	// means single-class. When present it must match InterArrivals.
	Users []int `json:"users,omitempty"`
}

// Validate checks the trace's internal consistency.
func (t Trace) Validate() error {
	if len(t.InterArrivals) == 0 {
		return errors.New("workload: trace has no jobs")
	}
	for i, g := range t.InterArrivals {
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("workload: gap %d invalid: %g", i, g)
		}
	}
	if t.Users != nil && len(t.Users) != len(t.InterArrivals) {
		return fmt.Errorf("workload: %d user tags for %d jobs", len(t.Users), len(t.InterArrivals))
	}
	for i, u := range t.Users {
		if u < 0 {
			return fmt.Errorf("workload: job %d has negative user %d", i, u)
		}
	}
	return nil
}

// Jobs returns the number of recorded arrivals.
func (t Trace) Jobs() int { return len(t.InterArrivals) }

// Mean returns the empirical mean inter-arrival time.
func (t Trace) Mean() float64 {
	if len(t.InterArrivals) == 0 {
		return 0
	}
	var s float64
	for _, g := range t.InterArrivals {
		s += g
	}
	return s / float64(len(t.InterArrivals))
}

// CV returns the empirical coefficient of variation of the gaps.
func (t Trace) CV() float64 {
	m := t.Mean()
	if m == 0 || len(t.InterArrivals) < 2 {
		return 0
	}
	var sq float64
	for _, g := range t.InterArrivals {
		d := g - m
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(t.InterArrivals)-1)) / m
}

// Generate records n arrivals drawn from dist using rng.
func Generate(dist queueing.Distribution, n int, rng *queueing.RNG) (Trace, error) {
	if n <= 0 {
		return Trace{}, errors.New("workload: need a positive job count")
	}
	t := Trace{InterArrivals: make([]float64, n)}
	for i := range t.InterArrivals {
		t.InterArrivals[i] = dist.Sample(rng)
	}
	return t, nil
}

// Save writes the trace as JSON.
func (t Trace) Save(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Load reads a JSON trace and validates it.
func Load(r io.Reader) (Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("workload: decode trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// Replay replays a trace's gaps as a queueing.Distribution: Sample
// returns the recorded gaps in order and cycles back to the start when
// exhausted, so any simulation horizon is covered. The replay is
// deterministic — the rng argument is ignored.
type Replay struct {
	trace Trace
	next  int
	// cycles counts how many times the trace wrapped around; exposed so
	// callers can detect when a horizon outruns the recording.
	cycles int
}

// NewReplay validates the trace and returns a fresh replayer.
func NewReplay(t Trace) (*Replay, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Replay{trace: t}, nil
}

// Sample returns the next recorded gap.
func (r *Replay) Sample(_ *queueing.RNG) float64 {
	g := r.trace.InterArrivals[r.next]
	r.next++
	if r.next == len(r.trace.InterArrivals) {
		r.next = 0
		r.cycles++
	}
	return g
}

// Mean returns the trace's empirical mean.
func (r *Replay) Mean() float64 { return r.trace.Mean() }

// CV returns the trace's empirical coefficient of variation.
func (r *Replay) CV() float64 { return r.trace.CV() }

// Cycles reports how many times the replay wrapped around the trace.
func (r *Replay) Cycles() int { return r.cycles }

// Fork returns an independent replay starting at r's current position.
// The simulator forks the inter-arrival distribution once per
// replication so concurrent replications never share the cursor — which
// both removes the data race and makes the result independent of the
// worker count (every replication replays the same arrival sequence).
func (r *Replay) Fork() queueing.Distribution {
	return &Replay{trace: r.trace, next: r.next}
}
