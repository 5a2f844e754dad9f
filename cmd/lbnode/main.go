// Command lbnode demonstrates the distributed protocols over real TCP
// loopback sockets: a broker relays messages among node processes
// (goroutines here, one per protocol role).
//
// Usage:
//
//	lbnode -proto nash -rho 0.6          # §4.3 NASH ring (one shard), 10 users
//	lbnode -proto lbm -liar 1.33         # §5.4 LBM bidding, C1 lies
//
// Fault injection (the deterministic chaos transport) is enabled by the
// chaos flags; the run then reports its fault/retry counters:
//
//	lbnode -proto nash -chaos-seed 7 -drop 0.05   # lossy links
//	lbnode -proto nash -crash user-2:4            # user 2 dies mid-run, is ejected
//	lbnode -proto nash -crash shard-0:4           # the ring's leader dies: typed error
//	lbnode -proto lbm -crash computer-5:0         # C6 never bids
//
// Observability:
//
//	lbnode -proto nash -metrics                        # print the metrics registry
//	lbnode -proto lbm -trace out.jsonl                 # record the event trace
//	lbnode -proto lbm -trace out.bin -trace-format bin # compact binary trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gtlb"
	"gtlb/internal/cliutil"
)

func main() {
	proto := flag.String("proto", "nash", "protocol to run: nash or lbm")
	rho := flag.Float64("rho", 0.6, "system utilization for the NASH ring")
	liar := flag.Float64("liar", 1.0, "bid factor applied by computer C1 in the LBM protocol")
	addr := flag.String("addr", "127.0.0.1:0", "broker listen address")
	chaosSeed := flag.Uint64("chaos-seed", 0, "seed of the deterministic fault schedule")
	drop := flag.Float64("drop", 0, "chaos: per-message drop probability in [0,1]")
	delay := flag.Float64("delay", 0, "chaos: per-message delay probability in [0,1] (delays up to 5ms)")
	crash := flag.String("crash", "", "chaos: crash fault as node:step (e.g. user-2:4, computer-5:0)")
	showMetrics := flag.Bool("metrics", false, "print the metrics registry after the run")
	traceFlags := cliutil.RegisterTraceFlags(flag.CommandLine)
	flag.Parse()

	netw, brokerAddr, closeFn, err := gtlb.NewTCPNetwork(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
		os.Exit(1)
	}
	// teardown runs exactly once: on normal exit via the defers below,
	// or early from the signal handler before its exit(0).
	var teardownOnce sync.Once
	teardown := func() {
		teardownOnce.Do(func() {
			//lint:ignore errcheck broker teardown as the process exits
			closeFn()
		})
	}
	defer teardown()
	fmt.Printf("broker listening on %s\n\n", brokerAddr)

	// Graceful shutdown: the first SIGINT/SIGTERM tears the broker down
	// cleanly and exits 0; a second signal kills the process as usual.
	sigCh, stopSig := cliutil.ShutdownSignal()
	defer stopSig()
	go func() {
		s := <-sigCh
		stopSig()
		fmt.Fprintf(os.Stderr, "\nlbnode: caught %v, shutting down\n", s)
		teardown()
		os.Exit(0)
	}()

	chaosOn := *drop > 0 || *delay > 0 || *crash != "" || *chaosSeed != 0
	reg := gtlb.NewRegistry()
	opts := []gtlb.Option{gtlb.WithObserver(reg)}
	if chaosOn {
		plan := gtlb.FaultPlan{
			Seed:     *chaosSeed,
			Drop:     *drop,
			Delay:    *delay,
			MaxDelay: 5 * time.Millisecond,
		}
		if *crash != "" {
			node, step, err := parseCrash(*crash)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
				os.Exit(2)
			}
			plan.Crash = map[string]int{node: step}
		}
		opts = append(opts, gtlb.WithFaultPlan(plan))
		fmt.Printf("chaos transport enabled (seed %d, drop %.3g, delay %.3g, crash %q)\n\n",
			*chaosSeed, *drop, *delay, *crash)
	}
	traceOpt, err := traceFlags.Option()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
		os.Exit(2)
	}
	if traceOpt != nil {
		defer func() {
			if err := traceFlags.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lbnode: closing trace: %v\n", err)
			}
		}()
		opts = append(opts, traceOpt)
	}

	report := func() {
		if chaosOn || *showMetrics {
			fmt.Println()
			//lint:ignore errcheck stdout exposition as the run exits
			cliutil.WriteRegistry(os.Stdout, reg)
		}
	}
	switch *proto {
	case "nash":
		runNash(netw, *rho, *chaosSeed, chaosOn, report, opts)
	case "lbm":
		runLBM(netw, *liar, *chaosSeed, report, opts)
	default:
		fmt.Fprintf(os.Stderr, "lbnode: unknown protocol %q\n", *proto)
		os.Exit(2)
	}
}

// parseCrash splits a node:step crash spec.
func parseCrash(spec string) (string, int, error) {
	node, stepStr, ok := strings.Cut(spec, ":")
	if !ok || node == "" {
		return "", 0, fmt.Errorf("bad -crash %q: want node:step", spec)
	}
	step, err := strconv.Atoi(stepStr)
	if err != nil || step < 0 {
		return "", 0, fmt.Errorf("bad -crash step in %q: want a non-negative integer", spec)
	}
	return node, step, nil
}

func runNash(netw gtlb.Network, rho float64, seed uint64, chaosOn bool, report func(), opts []gtlb.Option) {
	mu := []float64{10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 50, 50, 50, 100, 100}
	fractions := []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}
	total := rho * 510
	phi := make([]float64, len(fractions))
	for j, f := range fractions {
		phi[j] = f * total
	}
	sys, err := gtlb.NewMultiSystem(mu, phi)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
		os.Exit(1)
	}
	// One shard, one sweep per round: the §4.3 ring, with shard-0 as its
	// leader and the root as the round closer.
	ring := gtlb.ShardOptions{Shards: 1, LocalSweeps: 1, Seed: seed}
	if chaosOn {
		// Chaos run: repair token losses quickly so the demo converges
		// under sustained loss instead of idling on the 2s default.
		ring.Watchdog = 300 * time.Millisecond
		ring.ProbeTimeout = 50 * time.Millisecond
	}
	opts = append(opts, gtlb.WithEpsilon(1e-8), gtlb.WithShardOptions(ring))
	res, err := gtlb.RunNashSharded(netw, sys, opts...)
	if err != nil {
		report()
		fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("NASH ring converged in %d rounds\n\n", res.Rounds)
	if len(res.Ejected) > 0 {
		fmt.Printf("ejected users (silent past the retry budget): %v\n\n", res.Ejected)
	}
	fmt.Printf("%-8s %-12s %-16s\n", "user", "phi (jobs/s)", "expected T (s)")
	for j, t := range sys.UserTimes(res.Profile) {
		fmt.Printf("%-8d %-12.4g %-16.6g\n", j+1, sys.Phi[j], t)
	}
	fmt.Printf("\noverall expected response time: %.6g s\n", sys.OverallTime(res.Profile))
	report()
}

func runLBM(netw gtlb.Network, liar float64, seed uint64, report func(), opts []gtlb.Option) {
	mus := []float64{0.13, 0.13, 0.065, 0.065, 0.065,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013}
	trueVals := make([]float64, len(mus))
	for i, m := range mus {
		trueVals[i] = 1 / m
	}
	policies := make([]gtlb.BidPolicy, len(trueVals))
	//lint:ignore floatcmp the flag default 1.0 is exact; parsed values round-trip exactly
	if liar != 1.0 {
		policies[0] = gtlb.ScaledBid(liar)
	}
	opts = append(opts, gtlb.WithLBMOptions(gtlb.LBMOptions{Seed: seed}))
	res, err := gtlb.RunLBM(netw, trueVals, policies, 0.5*0.663, opts...)
	if err != nil {
		report()
		fmt.Fprintf(os.Stderr, "lbnode: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("LBM protocol complete (C1 bid factor %.2f)\n\n", liar)
	if len(res.Excluded) > 0 {
		fmt.Printf("excluded computers (silent past the retry budget): %v\n\n", res.Excluded)
	}
	fmt.Printf("%-10s %-12s %-12s %-12s %-12s\n", "computer", "bid", "load", "payment", "profit")
	for i, rep := range res.Computers {
		fmt.Printf("%-10d %-12.5g %-12.5g %-12.5g %-12.5g\n",
			i+1, rep.Bid, rep.Load, rep.Payment, rep.Profit)
	}
	report()
}
