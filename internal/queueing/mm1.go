package queueing

import "math"

// ResponseTime returns the expected response time (waiting plus service)
// of an M/M/1 station, 1/(mu-lambda): the F_i(β_i) of eq. 3.5 and the
// model of every computer in Chapters 3-5. Returns +Inf when
// lambda >= mu, at and beyond the stability boundary.
func ResponseTime(mu, lambda float64) float64 {
	d := mu - lambda
	if d <= 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// SystemResponseTime returns the job-averaged expected response time of a
// set of parallel M/M/1 stations under the load vector lambda:
//
//	T(λ) = (1/Φ) Σ λ_i / (μ_i - λ_i)
//
// which is the objective D(β) of the overall-optimal scheme (eq. 3.26)
// divided by the total arrival rate Φ = Σ λ_i. Stations with λ_i = 0
// contribute nothing. If any station is unstable the result is +Inf; a
// zero total load returns 0.
func SystemResponseTime(mu, lambda []float64) float64 {
	if len(mu) != len(lambda) {
		panic("queueing: SystemResponseTime length mismatch")
	}
	var total, weighted float64
	for i := range mu {
		if lambda[i] == 0 {
			continue
		}
		t := ResponseTime(mu[i], lambda[i])
		weighted += lambda[i] * t
		total += lambda[i]
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}
