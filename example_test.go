package gtlb_test

import (
	"fmt"
	"math"

	"gtlb"
)

// The cooperative game of the IPPS 2002 paper: the COOP algorithm
// computes the Nash Bargaining Solution, which equalizes the expected
// response time across every computer that receives jobs.
func ExampleCOOP() {
	sys, err := gtlb.NewSystem([]float64{10, 5, 1}, 6)
	if err != nil {
		panic(err)
	}
	nbs, err := gtlb.COOP(sys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("loads: %.1f\n", nbs.Lambda)
	fmt.Printf("response time: %.4f s on every used computer\n", nbs.ResponseTime())
	fmt.Printf("slow computer used: %v\n", nbs.Used[2])
	// Output:
	// loads: [5.5 0.5 0.0]
	// response time: 0.2222 s on every used computer
	// slow computer used: false
}

// Comparing the four static schemes of Chapter 3 on response time and
// fairness.
func ExampleSchemes() {
	mu := []float64{10, 5, 1}
	for _, a := range gtlb.Schemes() {
		lam, err := a.Allocate(mu, 6)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s E[T]=%.4f\n", a.Name(), gtlb.SystemResponseTime(mu, lam))
	}
	// Output:
	// COOP     E[T]=0.2222
	// PROP     E[T]=0.3000
	// WARDROP  E[T]=0.2222
	// OPTIM    E[T]=0.2063
}

// The noncooperative game of Chapter 4: two users reach a Nash
// equilibrium where neither can lower its own expected response time.
func ExampleNashEquilibrium() {
	sys, err := gtlb.NewMultiSystem([]float64{10, 5}, []float64{4, 2})
	if err != nil {
		panic(err)
	}
	res, err := gtlb.NashEquilibrium(sys, gtlb.NashOptions{Init: gtlb.InitProportional, Eps: 1e-10})
	if err != nil {
		panic(err)
	}
	times := sys.UserTimes(res.Profile)
	fmt.Printf("user times within 5%%: %v\n", math.Abs(times[0]-times[1]) < 0.05*times[0])
	fmt.Printf("fairness: %.3f\n", gtlb.FairnessIndex(times))
	// Output:
	// user times within 5%: true
	// fairness: 1.000
}

// The truthful mechanism of Chapter 5: payments are designed so that
// reporting the true inverse processing rate maximizes each computer's
// profit, and truthful computers never lose money.
func ExampleMechanism() {
	trueValues := []float64{1, 2, 4} // t_i = 1/mu_i
	m := gtlb.Mechanism{Phi: 1.0}
	truthful, err := m.Run(trueValues, trueValues)
	if err != nil {
		panic(err)
	}
	lying := append([]float64(nil), trueValues...)
	lying[0] *= 2 // the fastest computer claims to be twice as slow
	liar, err := m.Run(lying, trueValues)
	if err != nil {
		panic(err)
	}
	fmt.Printf("all truthful profits non-negative: %v\n",
		truthful.Profits[0] >= 0 && truthful.Profits[1] >= 0 && truthful.Profits[2] >= 0)
	fmt.Printf("lying pays: %v\n", liar.Profits[0] > truthful.Profits[0])
	// Output:
	// all truthful profits non-negative: true
	// lying pays: false
}

// The mechanism with verification of Chapter 6: utilities equal each
// computer's marginal contribution to reducing the total latency, so
// slow execution is punished even when the bid was honest.
func ExampleVerifiedMechanism() {
	trueValues := []float64{1, 2, 5}
	m := gtlb.VerifiedMechanism{Lambda: 8}
	honest, err := m.Run(trueValues, trueValues)
	if err != nil {
		panic(err)
	}
	slow := append([]float64(nil), trueValues...)
	slow[0] = 3 // executes 3x slower than its true value
	lazy, err := m.Run(trueValues, slow)
	if err != nil {
		panic(err)
	}
	fmt.Printf("honest utility positive: %v\n", honest.Utilities[0] > 0)
	fmt.Printf("slow execution punished: %v\n", lazy.Utilities[0] < honest.Utilities[0])
	// Output:
	// honest utility positive: true
	// slow execution punished: true
}

// The §4.3 NASH ring as real message-passing nodes over the in-memory
// transport: one shard, one best reply per user per round.
func ExampleRunNashSharded() {
	sys, err := gtlb.NewMultiSystem([]float64{10, 5}, []float64{4, 2})
	if err != nil {
		panic(err)
	}
	res, err := gtlb.RunNashSharded(gtlb.NewMemNetwork(), sys, gtlb.WithEpsilon(1e-9),
		gtlb.WithShardOptions(gtlb.ShardOptions{Shards: 1, LocalSweeps: 1}))
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged: %v\n", res.Rounds > 0)
	fmt.Printf("conservation: %.3f jobs/s\n", sys.Loads(res.Profile)[0]+sys.Loads(res.Profile)[1])
	// Output:
	// converged: true
	// conservation: 6.000 jobs/s
}

// Validating an allocation on the discrete-event simulator: a single
// M/M/1 station at half load has expected response time 1/(mu-lambda).
func ExampleSimulate() {
	res, err := gtlb.Simulate(gtlb.SimConfig{
		Mu:           []float64{2},
		InterArrival: gtlb.Exponential(1),
		Routing:      [][]float64{{1}},
		Horizon:      20_000,
		Warmup:       500,
		Seed:         1,
		Replications: 5,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulated mean within 5%% of closed form: %v\n",
		math.Abs(res.Overall.Mean-1.0) < 0.05)
	// Output:
	// simulated mean within 5% of closed form: true
}

// The multi-class substrate: one class reduces to the Chapter 3 system.
func ExampleOptimizeMultiClass() {
	sys, err := gtlb.NewMultiClassSystem(
		[][]float64{{10, 6, 2}, {3, 8, 2.5}},
		[]float64{5, 4},
	)
	if err != nil {
		panic(err)
	}
	res, err := gtlb.OptimizeMultiClass(sys, gtlb.MultiClassOptions{})
	if err != nil {
		panic(err)
	}
	var class0 float64
	for _, l := range res.Lambda[0] {
		class0 += l
	}
	fmt.Printf("class 0 conserved: %v\n", math.Abs(class0-5) < 1e-6)
	fmt.Printf("objective finite: %v\n", !math.IsInf(res.Objective, 0))
	// Output:
	// class 0 conserved: true
	// objective finite: true
}

// The §2.2.3 selfish-routing toolkit: the Pigou network attains the
// Roughgarden–Tardos 4/3 price-of-anarchy bound.
func ExampleRoutingNetwork() {
	n := gtlb.RoutingNetwork{
		Links: []gtlb.RoutingLink{{Slope: 0, Const: 1}, {Slope: 1, Const: 0}},
		Rate:  1,
	}
	poa, err := n.PriceOfAnarchy()
	if err != nil {
		panic(err)
	}
	fmt.Printf("price of anarchy: %.4f\n", poa)
	// A manager controlling half the traffic recovers part of the loss.
	r, err := n.StackelbergLLF(0.5)
	if err != nil {
		panic(err)
	}
	we, _ := n.Wardrop()
	fmt.Printf("stackelberg beats anarchy: %v\n", r.Cost < n.TotalLatency(we))
	// Output:
	// price of anarchy: 1.3333
	// stackelberg beats anarchy: true
}
