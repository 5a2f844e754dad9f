package queueing

import (
	"fmt"
	"math"
)

// This file breaks the exponential assumption: Pareto, Weibull and
// lognormal service-time distributions for the heavy-tail experiments.
// All three sample by inverse transform on top of the RNG's Float64
// stream with a fixed draw count — exactly one Float64 per draw — so the
// engine's bit-identical-at-any-worker-count contract extends to them
// unchanged (the draw sequence of a replication stays a pure function of
// its pre-split stream).
//
// Parameter validation happens once, in the constructors, mirroring
// NewAliasSampler: an invalid shape (Pareto α ≤ 1 with an
// infinite mean, Weibull k ≤ 0, lognormal σ ≤ 0) fails at construction,
// never mid-replication. The value types are immutable after
// construction and therefore safe to share across the worker pool.
//
// Each distribution also exposes CDF, for the Kolmogorov–Smirnov
// harness in validate.go.

// CDFer is implemented by distributions whose cumulative distribution
// function has a closed form; the KS harness tests samplers against it.
type CDFer interface {
	CDF(x float64) float64
}

// Pareto is the (type I) Pareto distribution with shape Alpha and scale
// Xm: support [Xm, ∞), survival (Xm/x)^Alpha. Its mean is finite only
// for Alpha > 1 and its variance only for Alpha > 2 — the classic
// heavy-tail service model (file sizes, job runtimes).
type Pareto struct {
	Alpha, Xm float64
}

// NewPareto validates the shape and scale once: Alpha ≤ 1 requests an
// infinite mean, which no load-balancing scheme in this repository can
// consume (every allocator needs finite expected service times), so it
// is rejected at construction rather than producing NaN means
// mid-replication.
func NewPareto(alpha, xm float64) (Pareto, error) {
	if math.IsNaN(alpha) || alpha <= 1 {
		return Pareto{}, fmt.Errorf("queueing: Pareto shape must exceed 1 (finite mean), got %g", alpha)
	}
	if math.IsNaN(xm) || xm <= 0 {
		return Pareto{}, fmt.Errorf("queueing: Pareto scale must be positive, got %g", xm)
	}
	return Pareto{Alpha: alpha, Xm: xm}, nil
}

// NewParetoFromMean builds a Pareto with the given mean by solving
// mean = α·xm/(α−1) for the scale — the mean-matched form the
// experiments use to swap service models without changing the offered
// load.
func NewParetoFromMean(mean, alpha float64) (Pareto, error) {
	if math.IsNaN(mean) || mean <= 0 {
		return Pareto{}, fmt.Errorf("queueing: Pareto mean must be positive, got %g", mean)
	}
	if math.IsNaN(alpha) || alpha <= 1 {
		return Pareto{}, fmt.Errorf("queueing: Pareto shape must exceed 1 (finite mean), got %g", alpha)
	}
	return NewPareto(alpha, mean*(alpha-1)/alpha)
}

// Sample draws one Pareto variate by inverse transform,
// x = xm·(1−U)^(−1/α), consuming exactly one Float64. 1−U lies in
// (0,1], so the power is finite and the sample is ≥ Xm.
func (p Pareto) Sample(r *RNG) float64 {
	return p.Xm * math.Pow(1-r.Float64(), -1/p.Alpha)
}

// Mean returns α·xm/(α−1).
func (p Pareto) Mean() float64 { return p.Alpha * p.Xm / (p.Alpha - 1) }

// SecondMoment returns E[X²] = α·xm²/(α−2), or +Inf for α ≤ 2.
func (p Pareto) SecondMoment() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm * p.Xm / (p.Alpha - 2)
}

// Variance returns the variance, +Inf for α ≤ 2.
func (p Pareto) Variance() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	m := p.Mean()
	return p.SecondMoment() - m*m
}

// CV returns stddev/mean; +Inf for α ≤ 2 (infinite variance).
func (p Pareto) CV() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return math.Sqrt(p.Variance()) / p.Mean()
}

// CDF returns 1 − (xm/x)^α for x ≥ xm and 0 below the support.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Weibull is the Weibull distribution with shape K and scale Lambda:
// CDF 1 − exp(−(x/λ)^k). K < 1 gives a heavier-than-exponential tail
// (the DFR regime of empirical job-size studies), K = 1 collapses to
// Exponential{1/λ}, K > 1 is lighter than exponential.
type Weibull struct {
	K, Lambda float64
}

// NewWeibull validates the shape and scale once; k ≤ 0 or λ ≤ 0 is not
// a distribution.
func NewWeibull(k, lambda float64) (Weibull, error) {
	if math.IsNaN(k) || k <= 0 {
		return Weibull{}, fmt.Errorf("queueing: Weibull shape must be positive, got %g", k)
	}
	if math.IsNaN(lambda) || lambda <= 0 {
		return Weibull{}, fmt.Errorf("queueing: Weibull scale must be positive, got %g", lambda)
	}
	return Weibull{K: k, Lambda: lambda}, nil
}

// NewWeibullFromMean builds a Weibull with the given mean by solving
// mean = λ·Γ(1+1/k) for the scale.
func NewWeibullFromMean(mean, k float64) (Weibull, error) {
	if math.IsNaN(mean) || mean <= 0 {
		return Weibull{}, fmt.Errorf("queueing: Weibull mean must be positive, got %g", mean)
	}
	if math.IsNaN(k) || k <= 0 {
		return Weibull{}, fmt.Errorf("queueing: Weibull shape must be positive, got %g", k)
	}
	return NewWeibull(k, mean/math.Gamma(1+1/k))
}

// Sample draws one Weibull variate by inverse transform,
// x = λ·(−ln(1−U))^(1/k), consuming exactly one Float64.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Lambda * math.Pow(-math.Log(1-r.Float64()), 1/w.K)
}

// Mean returns λ·Γ(1+1/k).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// SecondMoment returns E[X²] = λ²·Γ(1+2/k).
func (w Weibull) SecondMoment() float64 { return w.Lambda * w.Lambda * math.Gamma(1+2/w.K) }

// Variance returns λ²·(Γ(1+2/k) − Γ(1+1/k)²).
func (w Weibull) Variance() float64 {
	m := w.Mean()
	return w.SecondMoment() - m*m
}

// CV returns sqrt(Γ(1+2/k)/Γ(1+1/k)² − 1).
func (w Weibull) CV() float64 { return math.Sqrt(w.Variance()) / w.Mean() }

// CDF returns 1 − exp(−(x/λ)^k) for x > 0 and 0 otherwise.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Lambda, w.K))
}

// Lognormal is the lognormal distribution: X = exp(Mu + Sigma·Z) with
// Z standard normal. All moments are finite, yet the tail is heavier
// than any exponential — the moderate heavy-tail service model.
type Lognormal struct {
	Mu, Sigma float64
}

// NewLognormal validates the log-scale parameters once; σ ≤ 0 is not a
// distribution (σ = 0 callers want Deterministic).
func NewLognormal(mu, sigma float64) (Lognormal, error) {
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return Lognormal{}, fmt.Errorf("queueing: lognormal log-mean must be finite, got %g", mu)
	}
	if math.IsNaN(sigma) || sigma <= 0 {
		return Lognormal{}, fmt.Errorf("queueing: lognormal log-stddev must be positive, got %g", sigma)
	}
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}

// NewLognormalFromMeanCV builds a lognormal with the given mean and
// coefficient of variation: σ² = ln(1+cv²), μ = ln(mean) − σ²/2.
func NewLognormalFromMeanCV(mean, cv float64) (Lognormal, error) {
	if math.IsNaN(mean) || mean <= 0 {
		return Lognormal{}, fmt.Errorf("queueing: lognormal mean must be positive, got %g", mean)
	}
	if math.IsNaN(cv) || cv <= 0 {
		return Lognormal{}, fmt.Errorf("queueing: lognormal cv must be positive, got %g", cv)
	}
	s2 := math.Log(1 + cv*cv)
	return NewLognormal(math.Log(mean)-s2/2, math.Sqrt(s2))
}

// Sample draws one lognormal variate by inverse transform: exactly one
// Float64 u is consumed and mapped through the normal quantile
// z = √2·erfinv(2u−1), giving exp(μ+σz). The u = 0 corner (probability
// 2⁻⁵³) would map to erfinv(−1) = −∞ and collapse the sample to 0; it
// is nudged to the smallest positive draw instead so samples stay in
// the open support, at a uniformity cost of one part in 2⁵³.
func (l Lognormal) Sample(r *RNG) float64 {
	u := r.Float64()
	if u < 0x1p-53 {
		u = 0x1p-53
	}
	z := math.Sqrt2 * math.Erfinv(2*u-1)
	return math.Exp(l.Mu + l.Sigma*z)
}

// Mean returns exp(μ + σ²/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// CV returns sqrt(exp(σ²) − 1).
func (l Lognormal) CV() float64 { return math.Sqrt(math.Expm1(l.Sigma * l.Sigma)) }

// CDF returns Φ((ln x − μ)/σ) for x > 0 and 0 otherwise.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2))
}

// CDF returns 1 − exp(−rate·x) for x > 0 and 0 otherwise; it completes
// the Exponential for the KS harness.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// CDF returns the two-branch mixture CDF of the hyper-exponential.
func (h HyperExponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -(h.P1*math.Expm1(-h.R1*x) + (1-h.P1)*math.Expm1(-h.R2*x))
}
