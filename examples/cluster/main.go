// Cluster: ten selfish users sharing a 16-computer heterogeneous
// cluster reach the Nash equilibrium of the Chapter 4 noncooperative
// game — twice. First with the centralized best-reply iteration, then
// with the fully distributed §4.3 NASH ring protocol in which user nodes
// exchange messages over a simulated network, verifying that both arrive
// at the same user-optimal operating point. A metrics registry observes
// both runs, tracking the convergence trajectory as it happens.
package main

import (
	"fmt"
	"log"
	"math"

	"gtlb"
	"gtlb/internal/noncoop"
)

func main() {
	// Table 4.1: rates 10/20/50/100 jobs/sec, aggregate 510 jobs/sec.
	mu := []float64{10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 50, 50, 50, 100, 100}
	fractions := []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}
	const rho = 0.6
	phi := make([]float64, len(fractions))
	for j, f := range fractions {
		phi[j] = f * rho * 510
	}
	sys, err := gtlb.NewMultiSystem(mu, phi)
	if err != nil {
		log.Fatal(err)
	}

	reg := gtlb.NewRegistry()

	// Centralized round-robin best replies (NASH_P initialization); the
	// registry's nash.norm gauge follows the Figure 4.2 trajectory.
	central, err := gtlb.NashEquilibrium(sys, gtlb.NashOptions{
		Init: gtlb.InitProportional, Eps: 1e-9, Observer: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized NASH_P converged in %d iterations\n", central.Iterations)

	// The same equilibrium via the distributed ring protocol: each user
	// is a node that plays its best reply against the per-computer loads
	// carried on the circulating token and forwards it to the next user.
	// One shard with one sweep per round is the §4.3 ring.
	ring, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys,
		gtlb.WithEpsilon(1e-9), gtlb.WithObserver(reg),
		gtlb.WithShardOptions(gtlb.ShardOptions{Shards: 1, LocalSweeps: 1}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed ring converged in %d rounds (%d messages forwarded)\n\n",
		ring.Rounds, reg.Get("nash.send"))

	fmt.Printf("%-6s %-14s %-16s %-16s\n", "user", "phi (jobs/s)", "central E[T] (s)", "ring E[T] (s)")
	ct := sys.UserTimes(central.Profile)
	rt := sys.UserTimes(ring.Profile)
	for j := range phi {
		fmt.Printf("%-6d %-14.3f %-16.6f %-16.6f\n", j+1, phi[j], ct[j], rt[j])
	}

	var linf float64
	cl, rl := sys.Loads(central.Profile), sys.Loads(ring.Profile)
	for i := range cl {
		linf = math.Max(linf, math.Abs(cl[i]-rl[i]))
	}
	fmt.Printf("\nper-computer load difference (L-inf): %.2g jobs/s\n", linf)
	fmt.Printf("user fairness at equilibrium: %.4f\n", gtlb.FairnessIndex(ct))

	ok, err := noncoop.IsNashEquilibrium(sys, ring.Profile, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("no user can improve by deviating: %v\n", ok)
}
