package metrics

import "math"

// Summary holds the summary statistics of a sample, as reported for the
// replicated simulation runs of §3.4.1: five replications with different
// random streams, results averaged, standard error below 5% at the 95%
// confidence level.
type Summary struct {
	N      int     // sample size
	Mean   float64 // sample mean
	Var    float64 // unbiased sample variance
	StdErr float64 // standard error of the mean
	Min    float64
	Max    float64
}

// Summarize computes summary statistics using Welford's online algorithm
// (numerically stable for the long response-time streams the simulator
// produces). An empty sample returns the zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.N = len(xs)
	s.Min, s.Max = xs[0], xs[0]
	var mean, m2 float64
	for i, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	if s.N > 1 {
		s.Var = m2 / float64(s.N-1)
		s.StdErr = math.Sqrt(s.Var / float64(s.N))
	}
	return s
}

// RelativeError returns StdErr/Mean, the figure of merit the paper keeps
// below 5%; it returns 0 for a zero mean.
func (s Summary) RelativeError() float64 {
	if s.Mean == 0 {
		return 0
	}
	return math.Abs(s.StdErr / s.Mean)
}

// Accumulator collects a stream of observations without retaining them,
// using Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations recorded so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 if no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Summary converts the accumulated state into a Summary.
func (a *Accumulator) Summary() Summary {
	s := Summary{N: a.n, Mean: a.mean, Min: a.min, Max: a.max}
	if a.n > 1 {
		s.Var = a.m2 / float64(a.n-1)
		s.StdErr = math.Sqrt(s.Var / float64(a.n))
	}
	return s
}

// Merge combines another accumulator into a (parallel reduction of
// per-replication statistics). Uses Chan et al.'s pairwise update.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}
