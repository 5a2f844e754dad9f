package queueing

import (
	"fmt"
	"math"
)

// This file adds the piecewise-nonstationary arrival model: a
// nonhomogeneous Poisson process (NHPP) whose rate function is
// piecewise-constant and periodic — the diurnal traffic pattern every
// production load balancer actually sees, and the one arrival model the
// paper's M/M/1 analysis cannot express.
//
// Sampling is by thinning (Lewis & Shedler 1979): candidate arrivals
// are drawn from a homogeneous Poisson process at the peak rate rmax
// and each candidate at time t is accepted with probability
// λ(t)/rmax. Correctness: the candidate stream is Poisson(rmax), and
// independent thinning of a Poisson process with location-dependent
// acceptance probability p(t) yields a Poisson process of intensity
// rmax·p(t) = λ(t) — exactly the target NHPP.
//
// Draw-count discipline: each candidate consumes exactly two Float64
// draws (one inversion-sampled Exp(rmax) gap, one acceptance uniform);
// a returned inter-arrival gap consumes 2·G draws where G ≥ 1 is the
// geometric-like number of candidates until acceptance. The count is a
// pure function of the stream itself, which is all the
// bit-identical-at-any-worker-count contract requires (the same
// variable-draw argument as RNG.Intn's rejection loop).
//
// The process is stateful — it carries the virtual clock of the last
// arrival — so it implements Fork(); the DES engine forks one instance
// per replication exactly as it does for trace replays, keeping
// concurrent replications off a shared cursor.

// Diurnal is a periodic piecewise-constant-rate NHPP inter-arrival
// source. The period is divided into len(rates) equal segments;
// segment s has arrival rate rates[s].
type Diurnal struct {
	rates   []float64
	segment float64 // duration of one constant-rate segment
	period  float64 // segment * len(rates)
	rmax    float64 // peak rate: the thinning envelope
	avg     float64 // time-average rate: total mass / period
	now     float64 // virtual time of the last generated arrival
}

// NewDiurnal validates the profile once: every rate non-negative and
// finite, at least one positive, segment duration positive. The
// returned process starts at virtual time 0, aligned with the
// simulator's clock (the engine accumulates the same gaps this source
// generates, so the two clocks advance in lockstep).
func NewDiurnal(rates []float64, segment float64) (*Diurnal, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("queueing: diurnal profile needs at least one segment")
	}
	if math.IsNaN(segment) || segment <= 0 {
		return nil, fmt.Errorf("queueing: diurnal segment duration must be positive, got %g", segment)
	}
	var rmax, sum float64
	for i, rate := range rates {
		if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("queueing: diurnal rate %d invalid: %g", i, rate)
		}
		if rate > rmax {
			rmax = rate
		}
		sum += rate
	}
	if rmax <= 0 {
		return nil, fmt.Errorf("queueing: diurnal profile needs a positive peak rate")
	}
	d := &Diurnal{
		rates:   append([]float64(nil), rates...),
		segment: segment,
		period:  segment * float64(len(rates)),
		rmax:    rmax,
		avg:     sum / float64(len(rates)),
	}
	return d, nil
}

// NewDiurnalFromMultipliers builds a profile with time-average rate
// base: the multipliers are normalized to mean 1 and scaled by base, so
// swapping a Poisson stream for a diurnal one preserves the offered
// load exactly (the experiments' mean-matched discipline).
func NewDiurnalFromMultipliers(base float64, mult []float64, segment float64) (*Diurnal, error) {
	if math.IsNaN(base) || base <= 0 {
		return nil, fmt.Errorf("queueing: diurnal base rate must be positive, got %g", base)
	}
	if len(mult) == 0 {
		return nil, fmt.Errorf("queueing: diurnal profile needs at least one multiplier")
	}
	var sum float64
	for i, m := range mult {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("queueing: diurnal multiplier %d invalid: %g", i, m)
		}
		sum += m
	}
	if sum <= 0 {
		return nil, fmt.Errorf("queueing: diurnal profile needs a positive multiplier sum")
	}
	mean := sum / float64(len(mult))
	rates := make([]float64, len(mult))
	for i, m := range mult {
		rates[i] = base * m / mean
	}
	return NewDiurnal(rates, segment)
}

// Rate returns the instantaneous arrival rate λ(t).
func (d *Diurnal) Rate(t float64) float64 {
	if t < 0 {
		t = 0
	}
	phase := math.Mod(t, d.period)
	i := int(phase / d.segment)
	if i >= len(d.rates) { // phase == period after float rounding
		i = len(d.rates) - 1
	}
	return d.rates[i]
}

// CumulativeIntensity returns Λ(t) = ∫₀ᵗ λ(s) ds. Under the
// time-rescaling theorem the transformed arrival times Λ(t₁), Λ(t₂), …
// of the NHPP form a unit-rate Poisson process — the closed form the
// validation harness KS-tests the thinning sampler against.
func (d *Diurnal) CumulativeIntensity(t float64) float64 {
	if t <= 0 {
		return 0
	}
	cycles := math.Floor(t / d.period)
	total := cycles * d.avg * d.period
	rem := t - cycles*d.period
	for _, rate := range d.rates {
		if rem <= 0 {
			break
		}
		dt := d.segment
		if rem < dt {
			dt = rem
		}
		total += rate * dt
		rem -= dt
	}
	return total
}

// Period returns the profile's period in seconds.
func (d *Diurnal) Period() float64 { return d.period }

// Now returns the virtual time of the last generated arrival.
func (d *Diurnal) Now() float64 { return d.now }

// Sample returns the next inter-arrival gap by thinning. Each candidate
// consumes exactly two Float64 draws; candidates repeat until one is
// accepted, which terminates with probability 1 because at least one
// segment has λ = rmax (acceptance probability 1 there).
func (d *Diurnal) Sample(r *RNG) float64 {
	start := d.now
	for {
		// Candidate gap at the envelope rate, by inversion (exactly one
		// draw — the documented-count discipline; the ziggurat's
		// variable draw count would be fine too, but a fixed count makes
		// the 2-per-candidate arithmetic exact).
		d.now += -math.Log(1-r.Float64()) / d.rmax
		if r.Float64()*d.rmax < d.Rate(d.now) {
			return d.now - start
		}
	}
}

// Mean returns the time-average inter-arrival time 1/avg-rate. (Gaps of
// an NHPP are not identically distributed; this is the long-run mean by
// the renewal-reward theorem.)
func (d *Diurnal) Mean() float64 { return 1 / d.avg }

// CV summarizes burstiness as the gap CV of the rate-weighted
// exponential mixture (each segment contributes arrivals in proportion
// to its rate): a heuristic — gaps straddling segment boundaries are
// not exponential — but it is exact in the slow-switching limit and
// ≥ 1 whenever the profile actually varies.
func (d *Diurnal) CV() float64 {
	var mass, m1, m2 float64
	for _, rate := range d.rates {
		if rate <= 0 {
			continue
		}
		w := rate * d.segment // expected arrivals in the segment
		mass += w
		m1 += w / rate // each contributes mean 1/rate
		m2 += w * 2 / (rate * rate)
	}
	m1 /= mass
	m2 /= mass
	return math.Sqrt(m2-m1*m1) / m1
}

// Fork returns an independent copy with its own clock, resuming from
// the parent's current position; the DES engine calls it once per
// replication so concurrent replications never share the cursor.
func (d *Diurnal) Fork() Distribution {
	cp := *d
	cp.rates = d.rates // immutable after construction; shared safely
	return &cp
}
