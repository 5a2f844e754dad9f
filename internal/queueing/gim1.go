package queueing

import (
	"errors"
	"fmt"
)

// This file adds GI/M/1 analysis: a single exponential server fed by a
// renewal arrival process with a general inter-arrival distribution. It
// gives the closed-form counterpart of the hyper-exponential arrival
// experiments (Figures 3.6/4.8): the simulator's measured response times
// under H2 arrivals can be checked against the GI/M/1 formula instead of
// only against each other.
//
// Classical result (Kendall): the stationary queue seen by an arrival is
// geometric with parameter σ, the unique root in (0,1) of
//
//	σ = Â(μ(1−σ))
//
// where Â is the Laplace–Stieltjes transform (LST) of the inter-arrival
// distribution; the expected response time is T = 1/(μ(1−σ)). With
// exponential arrivals Â(s) = λ/(λ+s), the fixed point is σ = ρ and T
// collapses to the M/M/1 value 1/(μ−λ).

// LaplaceTransformer is implemented by distributions whose
// Laplace–Stieltjes transform Â(s) = E[e^(−sX)] has a closed form.
type LaplaceTransformer interface {
	LST(s float64) float64
}

// LST returns the exponential distribution's transform rate/(rate+s).
func (e Exponential) LST(s float64) float64 {
	return e.Rate / (e.Rate + s)
}

// LST returns the hyper-exponential mixture transform
// p1·r1/(r1+s) + p2·r2/(r2+s).
func (h HyperExponential) LST(s float64) float64 {
	return h.P1*h.R1/(h.R1+s) + (1-h.P1)*h.R2/(h.R2+s)
}

// ErrGIM1Unstable is returned when the arrival rate meets or exceeds the
// service rate.
var ErrGIM1Unstable = errors.New("queueing: GI/M/1 stability requires arrival rate < mu")

// GIM1Sigma solves the Kendall fixed point for a GI/M/1 queue with the
// given inter-arrival distribution and service rate mu. The arrival
// distribution must satisfy 1/Mean < mu (stability).
func GIM1Sigma(arrival interface {
	Distribution
	LaplaceTransformer
}, mu float64) (float64, error) {
	if mu <= 0 {
		return 0, fmt.Errorf("queueing: GI/M/1 service rate must be positive, got %g", mu)
	}
	lambda := 1 / arrival.Mean()
	if lambda >= mu {
		return 0, fmt.Errorf("%w (lambda=%g, mu=%g)", ErrGIM1Unstable, lambda, mu)
	}
	// Fixed-point iteration σ_{k+1} = Â(μ(1−σ_k)) starting from ρ; the
	// map is monotone and contractive on (0,1) for stable queues.
	sigma := lambda / mu
	for k := 0; k < 10_000; k++ {
		next := arrival.LST(mu * (1 - sigma))
		if next < 0 || next >= 1 {
			return 0, fmt.Errorf("queueing: GI/M/1 fixed point left (0,1): %g", next)
		}
		if diff := next - sigma; diff < 1e-15 && diff > -1e-15 {
			return next, nil
		}
		sigma = next
	}
	return sigma, nil
}

// GIM1ResponseTime returns the expected response time 1/(μ(1−σ)) of a
// GI/M/1 queue.
func GIM1ResponseTime(arrival interface {
	Distribution
	LaplaceTransformer
}, mu float64) (float64, error) {
	sigma, err := GIM1Sigma(arrival, mu)
	if err != nil {
		return 0, err
	}
	return 1 / (mu * (1 - sigma)), nil
}
