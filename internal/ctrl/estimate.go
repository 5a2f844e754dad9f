// Package ctrl is the live control plane: a resident reconciliation
// loop that keeps the §2.2.1 COOP/NBS allocation current as load drifts
// and machines churn. It splits into two layers:
//
//   - Controller, a pure deterministic state machine: it ingests load
//     estimates, detects drift against the active allocation, re-runs
//     COOP incrementally (warm-started from the previous fixed point via
//     game.WarmCOOP) behind a hysteresis deadband, applies Φ-feasibility
//     admission control that sheds or queues excess demand instead of
//     erroring, treats computer churn (join/leave/crash) as a
//     first-class input, and checkpoints its state for crash recovery;
//   - Daemon, the goroutine wrapper that feeds a Controller from a
//     dist transport endpoint with timeouts, backoff and duplicate
//     fencing, flushes checkpoints after committed epochs, and shuts
//     down gracefully (drain, flush, join) on request.
//
// Determinism contract: the Controller is a pure function of its
// estimate stream — for a fixed generator seed the sequence of Decision
// values (and their formatted epoch log) is byte-identical across runs,
// restarts from a checkpoint included. Nothing in this package reads
// the wall clock or draws randomness outside seeded generator streams.
package ctrl

import (
	"errors"
	"fmt"
	"math"

	"gtlb/internal/dist"
)

// EstimateKind is the dist.Message kind carrying a wire-encoded
// Estimate between a load reporter (lbgen) and the daemon (lbd).
const EstimateKind = "ctrl.estimate"

// Estimate is one observation of the system's offered load and
// capacity: the per-user arrival rates φ_j and the per-computer
// processing rates μ_i. A non-positive μ_i means computer i is down
// (crashed or administratively drained); growing the Mu vector reports
// newly joined computers. Estimates are produced by a single reporter
// stream with strictly increasing Seq and non-decreasing Time, which is
// what lets the daemon fence duplicates and reordered deliveries.
type Estimate struct {
	// Seq is the reporter-assigned sequence number, strictly
	// increasing. The controller discards estimates whose Seq does not
	// advance past the last applied one.
	Seq int `json:"seq"`
	// Time is the reporter's logical clock in seconds (the generator's
	// virtual time, never wall time). Used for stale-estimate expiry
	// and backlog integration.
	Time float64 `json:"time"`
	// Phi are the per-user arrival rates (jobs/s), all non-negative.
	Phi []float64 `json:"phi"`
	// Mu are the per-computer processing rates (jobs/s); values at or
	// below zero mark the computer as down.
	Mu []float64 `json:"mu"`
	// Source optionally names the reporter.
	Source string `json:"source,omitempty"`
}

// Validate checks the estimate is well-formed: at least one computer,
// finite non-negative user rates, finite computer rates. The
// controller's scan checks the same predicates in its one pass.
func (e Estimate) Validate() error {
	if len(e.Mu) == 0 {
		return errors.New("ctrl: estimate has no computers")
	}
	if len(e.Phi) == 0 {
		return errors.New("ctrl: estimate has no users")
	}
	if !validRate(e.Time) {
		return fmt.Errorf("ctrl: estimate time must be a non-negative finite number, got %g", e.Time)
	}
	for j, p := range e.Phi {
		if !validRate(p) {
			return fmt.Errorf("ctrl: user rate %d must be a non-negative finite number, got %g", j, p)
		}
	}
	for i, m := range e.Mu {
		if !finite(m) {
			return fmt.Errorf("ctrl: computer rate %d must be finite, got %g", i, m)
		}
	}
	return nil
}

// validRate reports whether x is finite and non-negative.
func validRate(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return x-x == 0 }

// UpCapacity returns the aggregate rate of the up computers and how
// many there are.
func (e Estimate) UpCapacity() (sum float64, up int) {
	for _, m := range e.Mu {
		if m > 0 {
			sum += m
			up++
		}
	}
	return sum, up
}

// WireID, AppendWire and DecodeWire give Estimate the dist wire codec:
// Seq, Time, Phi, Mu, Source in field order, under the id dist reserves
// for it.
func (Estimate) WireID() byte { return dist.WireEstimate }
func (e Estimate) AppendWire(b []byte) []byte {
	b = dist.AppendInt(b, e.Seq)
	b = dist.AppendF64(b, e.Time)
	b = dist.AppendF64s(b, e.Phi)
	b = dist.AppendF64s(b, e.Mu)
	return dist.AppendStr(b, e.Source)
}
func (e *Estimate) DecodeWire(d *dist.WireDec) {
	e.Seq = d.Int()
	e.Time = d.F64()
	e.Phi = d.F64s(e.Phi)
	e.Mu = d.F64s(e.Mu)
	e.Source = d.Str(e.Source)
}

// EncodeMessage packs the estimate into a transport message addressed
// to the given node.
func EncodeMessage(to string, e Estimate) (dist.Message, error) {
	m := dist.Message{To: to, Kind: EstimateKind}
	if err := m.Encode(e); err != nil {
		return dist.Message{}, err
	}
	return m, nil
}

// DecodeEstimate unpacks and validates an estimate from its wire form:
// a message of the wrong kind, a malformed payload or an invalid
// estimate is an error, which callers count and drop.
func DecodeEstimate(m dist.Message) (Estimate, error) {
	var e Estimate
	if err := e.decode(m); err != nil {
		return Estimate{}, err
	}
	if err := e.Validate(); err != nil {
		return Estimate{}, err
	}
	return e, nil
}

// decode unpacks an estimate message into e, reusing its slices and
// keeping its Source when the bytes spell it. It does not validate.
func (e *Estimate) decode(m dist.Message) error {
	if m.Kind != EstimateKind {
		return fmt.Errorf("ctrl: message kind %q is not %q", m.Kind, EstimateKind)
	}
	return m.Decode(e)
}
