// Command lbtrace generates, inspects and replays workload traces, and
// decodes binary event traces.
//
// The tool handles two unrelated kinds of "trace". Workload traces
// (-gen, -info, -replay) are arrival-gap recordings that drive the
// simulator's inter-arrival process. Event traces (-decode) are the
// structured observation streams the run drivers record with
// -trace/-trace-format; -decode converts the compact binary encoding
// back to the JSONL form with the decoder -trace-format jsonl flushes
// through, so the output is byte-identical to what it would have
// written for the same run.
//
// Usage:
//
//	lbtrace -gen -rate 100 -cv 1.6 -jobs 50000 -out trace.json
//	lbtrace -gen -rate 100 -dist pareto:alpha=2.2 -jobs 50000 -out heavy.json
//	lbtrace -gen -rate 100 -dist diurnal:mult=0.5,1.5;segment=60 -out day.json
//	lbtrace -info trace.json
//	lbtrace -replay trace.json -mu 65,65,130 -scheme COOP
//	lbtrace -decode events.bin -out events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"gtlb"
	"gtlb/internal/cliutil"
	"gtlb/internal/des"
	"gtlb/internal/queueing"
	"gtlb/internal/workload"
)

func main() {
	gen := flag.Bool("gen", false, "generate a trace")
	rate := flag.Float64("rate", 100, "arrival rate for -gen (jobs/sec)")
	cv := flag.Float64("cv", 1, "inter-arrival CV for -gen (1 = Poisson)")
	dist := flag.String("dist", "", "arrival process for -gen: poisson, hyperexp:cv=, diurnal:mult=...;segment=..., pareto:alpha=, weibull:k=, lognormal:cv= (overrides -cv)")
	jobs := flag.Int("jobs", 100_000, "jobs to record for -gen")
	seed := flag.Uint64("seed", 1, "random seed for -gen")
	out := flag.String("out", "", "output file for -gen (default stdout)")
	info := flag.String("info", "", "print statistics of a trace file")
	decode := flag.String("decode", "", "decode a binary event trace to JSONL (-out file, default stdout)")
	replay := flag.String("replay", "", "replay a trace through the simulator")
	muFlag := flag.String("mu", "", "processing rates for -replay")
	scheme := flag.String("scheme", "COOP", "allocation scheme for -replay")
	flag.Parse()

	switch {
	case *gen:
		runGen(*rate, *cv, *dist, *jobs, *seed, *out)
	case *info != "":
		runInfo(*info)
	case *decode != "":
		runDecode(*decode, *out)
	case *replay != "":
		runReplay(*replay, *muFlag, *scheme)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lbtrace: %v\n", err)
	os.Exit(1)
}

func runGen(rate, cv float64, spec string, jobs int, seed uint64, out string) {
	var dist queueing.Distribution
	var err error
	switch {
	case spec != "":
		dist, err = cliutil.ArrivalProfile(spec, rate)
	case cv > 1:
		dist, err = queueing.NewHyperExponential(1/rate, cv)
	default:
		dist = queueing.NewExponential(rate)
	}
	if err != nil {
		fatal(err)
	}
	tr, err := workload.Generate(dist, jobs, queueing.NewRNG(seed))
	if err != nil {
		fatal(err)
	}
	if spec != "" {
		tr.Description = fmt.Sprintf("rate=%g dist=%s jobs=%d seed=%d", rate, spec, jobs, seed)
	} else {
		tr.Description = fmt.Sprintf("rate=%g cv=%g jobs=%d seed=%d", rate, cv, jobs, seed)
	}
	w := os.Stdout
	var f *os.File
	if out != "" {
		var err error
		if f, err = os.Create(out); err != nil {
			fatal(err)
		}
		w = f
	}
	if err := tr.Save(w); err != nil {
		fatal(err)
	}
	if f != nil {
		// The close error matters: a failed flush here means a
		// truncated trace file behind a success message.
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d jobs to %s (mean gap %.6g s, cv %.3f)\n", tr.Jobs(), out, tr.Mean(), tr.CV())
	}
}

func loadTrace(path string) workload.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	//lint:ignore errcheck read-only file; a close error cannot lose data
	defer f.Close()
	tr, err := workload.Load(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func runInfo(path string) {
	tr := loadTrace(path)
	fmt.Printf("description:  %s\n", tr.Description)
	fmt.Printf("jobs:         %d\n", tr.Jobs())
	fmt.Printf("mean gap:     %.6g s (rate %.6g jobs/s)\n", tr.Mean(), 1/tr.Mean())
	fmt.Printf("gap CV:       %.4f\n", tr.CV())
	if tr.Users != nil {
		users := map[int]int{}
		for _, u := range tr.Users {
			users[u]++
		}
		fmt.Printf("users:        %d\n", len(users))
	}
}

func runDecode(path, out string) {
	in, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	//lint:ignore errcheck read-only file; a close error cannot lose data
	defer in.Close()
	w := os.Stdout
	var f *os.File
	if out != "" {
		if f, err = os.Create(out); err != nil {
			fatal(err)
		}
		w = f
	}
	if err := gtlb.DecodeTrace(in, w); err != nil {
		fatal(err)
	}
	if f != nil {
		// The close error matters: a failed flush here means a
		// truncated trace file behind a success message.
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func runReplay(path, muFlag, scheme string) {
	tr := loadTrace(path)
	mu, err := cliutil.ParseRates(muFlag)
	if err != nil {
		fatal(err)
	}
	alloc, err := cliutil.SchemeByName(scheme)
	if err != nil {
		fatal(err)
	}
	phi := 1 / tr.Mean()
	lam, err := alloc.Allocate(mu, phi)
	if err != nil {
		fatal(err)
	}
	routing := make([]float64, len(lam))
	for i, l := range lam {
		routing[i] = l / phi
	}
	rep, err := workload.NewReplay(tr)
	if err != nil {
		fatal(err)
	}
	horizon := tr.Mean() * float64(tr.Jobs()) * 0.95
	res, err := des.Run(des.Config{
		Mu:           mu,
		InterArrival: rep,
		Routing:      [][]float64{routing},
		Horizon:      horizon,
		Warmup:       horizon / 20,
		Seed:         1,
		Replications: 1,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s over %d replayed jobs: E[T] = %.6g s (analytic M/M/1 %.6g s)\n",
		alloc.Name(), res.Jobs, res.Overall.Mean, queueing.SystemResponseTime(mu, lam))
	if rep.Cycles() > 0 {
		fmt.Printf("note: the trace wrapped %d time(s)\n", rep.Cycles())
	}
}
