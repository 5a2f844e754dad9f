package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMG1Validate(t *testing.T) {
	bad := []MG1{
		{Lambda: 1, MeanS: 0, SecondS: 1},
		{Lambda: 1, MeanS: 1, SecondS: 0.5}, // E[S²] < E[S]²
		{Lambda: -1, MeanS: 0.1, SecondS: 0.02},
		{Lambda: 10, MeanS: 0.2, SecondS: 0.08}, // rho = 2
	}
	for i, q := range bad {
		if q.Validate() == nil {
			t.Errorf("case %d validated: %+v", i, q)
		}
	}
	good := MG1{Lambda: 2, MeanS: 0.25, SecondS: 0.125}
	if err := good.Validate(); err != nil {
		t.Errorf("valid station rejected: %v", err)
	}
}

// TestMG1ReducesToMM1: exponential service (E[S²] = 2/μ²) recovers the
// M/M/1 response time 1/(μ−λ).
func TestMG1ReducesToMM1(t *testing.T) {
	const mu, lambda = 4.0, 2.5
	q := MG1FromService(lambda, NewExponential(mu))
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	want := ResponseTime(mu, lambda)
	if got := q.ResponseTime(); math.Abs(got-want) > 1e-12 {
		t.Errorf("M/G/1 with exp service = %v, M/M/1 gives %v", got, want)
	}
}

func TestMG1ReducesToMM1Quick(t *testing.T) {
	prop := func(a, b float64) bool {
		mu := math.Abs(math.Mod(a, 50)) + 0.1
		rho := math.Abs(math.Mod(b, 0.95))
		q := MG1FromService(rho*mu, NewExponential(mu))
		return math.Abs(q.ResponseTime()-ResponseTime(mu, rho*mu)) < 1e-9*(1+q.ResponseTime())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMG1DeterministicService: M/D/1 waits are half the M/M/1 waits.
func TestMG1DeterministicService(t *testing.T) {
	const s, lambda = 0.2, 3.0
	md1 := MG1FromService(lambda, Deterministic{Value: s})
	mm1 := MG1FromService(lambda, NewExponential(1/s))
	if math.Abs(md1.WaitingTime()-mm1.WaitingTime()/2) > 1e-12 {
		t.Errorf("M/D/1 wait %v, want half of M/M/1 wait %v", md1.WaitingTime(), mm1.WaitingTime())
	}
}

// TestChapter6LightLoadDerivation verifies the §6.2 remark this package
// makes precise: under light load the M/G/1 waiting time is t·λ with
// t = E[S²]/2 — a Chapter 6 linear-latency computer.
func TestChapter6LightLoadDerivation(t *testing.T) {
	service := MustHyperExponential(0.1, 1.6)
	tCoef := MG1FromService(0, service).SecondS / 2
	for _, lambda := range []float64{0.01, 0.05, 0.1} {
		q := MG1FromService(lambda, service)
		linear := tCoef * lambda
		exact := q.WaitingTime()
		// The error term is O(λ²·E[S]) relative: (exact − linear)/exact = ρ.
		if rel := (exact - linear) / exact; rel > 1.5*q.Utilization() {
			t.Errorf("lambda=%v: linear model off by %v, want O(rho=%v)", lambda, rel, q.Utilization())
		}
		if linear > exact {
			t.Errorf("lambda=%v: linear model %v exceeds exact %v", lambda, linear, exact)
		}
	}
}

func TestMG1BurstierServiceWaitsLonger(t *testing.T) {
	// Same mean service, higher CV → longer waits (P-K in action).
	const lambda = 2.0
	low := MG1FromService(lambda, Deterministic{Value: 0.2})
	mid := MG1FromService(lambda, NewExponential(5))
	high := MG1FromService(lambda, MustHyperExponential(0.2, 2.0))
	if !(low.WaitingTime() < mid.WaitingTime() && mid.WaitingTime() < high.WaitingTime()) {
		t.Errorf("waits not ordered by service CV: %v, %v, %v",
			low.WaitingTime(), mid.WaitingTime(), high.WaitingTime())
	}
}
