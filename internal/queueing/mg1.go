package queueing

import (
	"errors"
	"fmt"
)

// MG1 analysis: Poisson arrivals, generally distributed service times —
// the Pollaczek–Khinchine formula. Its role here is to ground the
// Chapter 6 model: §6.2 notes that the linear load-dependent latency
// ℓ(x) = t·x "could represent the expected waiting time in a M/G/1
// queue, under light load conditions". Expanding P-K,
//
//	W(λ) = λ·E[S²] / (2(1−ρ))  =  λ·E[S²]/2 + O(λ²),
//
// so under light load the waiting time is linear in the arrival rate
// with coefficient E[S²]/2 — exactly a Chapter 6 computer with
// t = E[S²]/2. The tests verify the expansion against the exact
// formula.

// MG1 is an M/G/1 station: Poisson arrivals at rate Lambda, service
// times with the given first two moments.
type MG1 struct {
	Lambda  float64 // arrival rate
	MeanS   float64 // E[S], mean service time
	SecondS float64 // E[S²], second moment of the service time
}

// Validate checks moments, rates and stability ρ = λ·E[S] < 1.
func (q MG1) Validate() error {
	if q.MeanS <= 0 {
		return fmt.Errorf("queueing: M/G/1 mean service time must be positive, got %g", q.MeanS)
	}
	if q.SecondS < q.MeanS*q.MeanS {
		return fmt.Errorf("queueing: M/G/1 second moment %g below mean² %g (impossible distribution)",
			q.SecondS, q.MeanS*q.MeanS)
	}
	if q.Lambda < 0 {
		return fmt.Errorf("queueing: M/G/1 arrival rate must be non-negative, got %g", q.Lambda)
	}
	if q.Lambda*q.MeanS >= 1 {
		return errors.New("queueing: M/G/1 stability requires lambda*E[S] < 1")
	}
	return nil
}

// Utilization returns ρ = λ·E[S].
func (q MG1) Utilization() float64 { return q.Lambda * q.MeanS }

// WaitingTime returns the Pollaczek–Khinchine expected waiting time
// W = λ·E[S²]/(2(1−ρ)).
func (q MG1) WaitingTime() float64 {
	return q.Lambda * q.SecondS / (2 * (1 - q.Utilization()))
}

// ResponseTime returns W + E[S].
func (q MG1) ResponseTime() float64 { return q.WaitingTime() + q.MeanS }

// MG1FromService builds an M/G/1 station from a service-time
// distribution with known mean and CV (moments derived as
// E[S²] = (1+cv²)·E[S]²).
func MG1FromService(lambda float64, service Distribution) MG1 {
	mean := service.Mean()
	cv := service.CV()
	return MG1{
		Lambda:  lambda,
		MeanS:   mean,
		SecondS: (1 + cv*cv) * mean * mean,
	}
}
