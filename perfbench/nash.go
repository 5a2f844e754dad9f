package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gtlb"
	"gtlb/internal/dist"
	"gtlb/internal/game"
	"gtlb/internal/noncoop"
	"gtlb/internal/queueing"
)

const (
	nashUsers     = 1000 // solved to ε = 1e-6·m, the tolerance of the repository's NASH benchmarks
	nashWarmUsers = 64
	nashMaxRounds = 100_000
	// nashGapFactor bounds the independent best-reply sweep over a
	// solve's profile: the sweep may move response times by at most
	// this multiple of ε in total.
	nashGapFactor = 4
)

// nashSystem is the 4-computer system with m users over seven rate
// classes, φ_j = (1+0.3·(j mod 7))·30/m, each rate scaled by a seeded
// factor within 1 ± 1e-3. Distinct seeds give distinct inputs while the
// work to reach ε stays put: at m=1000 the message count moves by
// about 0.1% from seed to seed, where permuting the classes instead
// moved it by a factor of two.
func nashSystem(seed uint64, m int) (gtlb.MultiSystem, error) {
	rng := queueing.NewRNG(seed)
	phi := make([]float64, m)
	for j := range phi {
		phi[j] = (1 + 0.3*float64(j%7)) * 30 / float64(m) * (1 + 1e-3*(2*rng.Float64()-1))
	}
	return gtlb.NewMultiSystem([]float64{30, 20, 15, 10}, phi)
}

type nashBench struct {
	sys  gtlb.MultiSystem
	eps  float64
	seed uint64
	tcp  bool

	netw     dist.Network // the current op's network
	closeNet func() error // stops the current op's TCP broker
	timed    *timedNetwork
	oracle   game.ShardedResult
	res      gtlb.NashShardedResult // the last op's result
}

func newNash(c config, tcp bool) (*nashBench, error) {
	m := nashUsers
	if c.quick {
		m = 64
	}
	sys, err := nashSystem(c.seed, m)
	if err != nil {
		return nil, err
	}
	b := &nashBench{sys: sys, eps: 1e-6 * float64(m), seed: c.seed, tcp: tcp}
	if b.oracle, err = b.solveOracle(); err != nil {
		return nil, err
	}
	// Warm up on one solve. A full solve over TCP takes seconds and
	// set-up runs setupReps times, so nash-tcp warms up on a small
	// system over the same transport code instead.
	warm := b
	if tcp && m > nashWarmUsers {
		small, err := nashSystem(c.seed, nashWarmUsers)
		if err != nil {
			return nil, err
		}
		warm = &nashBench{sys: small, eps: 1e-6 * nashWarmUsers, seed: c.seed, tcp: true}
	}
	err = warm.prepare()
	if err == nil {
		err = warm.op()
	}
	if _, ferr := warm.finish(); err != nil || ferr != nil {
		return nil, fmt.Errorf("warm-up solve: %w", errors.Join(err, ferr))
	}
	return b, nil
}

func (b *nashBench) solveOracle() (game.ShardedResult, error) {
	m := b.sys.NumUsers()
	return game.ShardedBestReply(b.sys, game.PlanShards(m, game.DefaultShardCount(m)), b.eps, nashMaxRounds, game.ShardedOpts{})
}

// prepare gives every op a network of its own: a fresh mailbox table,
// or a fresh TCP broker, so no op sees another's teardown.
func (b *nashBench) prepare() error {
	if err := b.closeBroker(); err != nil {
		return err
	}
	if !b.tcp {
		b.netw = dist.NewMemNetwork()
		return nil
	}
	netw, _, closer, err := dist.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		return err
	}
	b.netw, b.closeNet = netw, closer
	return nil
}

func (b *nashBench) closeBroker() error {
	if b.closeNet == nil {
		return nil
	}
	err := b.closeNet()
	b.closeNet = nil
	if err != nil {
		return fmt.Errorf("closing broker: %w", err)
	}
	return nil
}

func (b *nashBench) op() error {
	netw := b.netw
	if b.timed != nil {
		b.timed.inner = netw
		netw = b.timed
	}
	res, err := gtlb.RunNashSharded(netw, b.sys,
		gtlb.WithEpsilon(b.eps), gtlb.WithMaxIter(nashMaxRounds),
		gtlb.WithShardOptions(gtlb.ShardOptions{Seed: b.seed}))
	if err != nil {
		return err
	}
	b.res = res
	return b.check(res)
}

// check applies the output checks to one solve.
func (b *nashBench) check(res gtlb.NashShardedResult) error {
	if !(res.Norm <= b.eps) {
		return fmt.Errorf("final norm %.3g exceeds ε=%.3g", res.Norm, b.eps)
	}
	gap, err := bestReplyGap(b.sys, res.Profile)
	if err != nil {
		return err
	}
	if !(gap <= nashGapFactor*b.eps) {
		return fmt.Errorf("independent best-reply sweep moves response times by %.3g > %d·ε", gap, nashGapFactor)
	}
	if !b.tcp {
		for j, row := range res.Profile.S {
			for i, s := range row {
				if math.Float64bits(s) != math.Float64bits(b.oracle.Profile.S[j][i]) {
					return fmt.Errorf("profile[%d][%d]=%v differs from the in-process oracle's %v", j, i, s, b.oracle.Profile.S[j][i])
				}
			}
		}
	}
	return nil
}

// bestReplyGap scores a profile independently of the protocol: one
// round-robin best-reply sweep over it, summing |Δ response time| of
// every user. An exact Nash equilibrium scores 0.
func bestReplyGap(sys gtlb.MultiSystem, prof gtlb.Profile) (float64, error) {
	m, n := sys.NumUsers(), sys.NumComputers()
	if len(prof.S) != m {
		return 0, fmt.Errorf("profile has %d rows for %d users", len(prof.S), m)
	}
	loads := make([]float64, n)
	rows := make([][]float64, m)
	for j := range rows {
		if len(prof.S[j]) != n {
			return 0, fmt.Errorf("profile row %d has %d entries for %d computers", j, len(prof.S[j]), n)
		}
		rows[j] = append([]float64(nil), prof.S[j]...)
		for i := range loads {
			loads[i] += rows[j][i] * sys.Phi[j]
		}
	}
	avail := make([]float64, n)
	next := make([]float64, n)
	ord := make([]int, n)
	var gap float64
	for j, row := range rows {
		phi := sys.Phi[j]
		for i := range avail {
			avail[i] = sys.Mu[i] - loads[i] + row[i]*phi
		}
		before := noncoop.BestReplyTime(avail, row, phi)
		if err := noncoop.BestReplyInto(avail, phi, next, ord); err != nil {
			return 0, fmt.Errorf("best reply of user %d: %w", j, err)
		}
		gap += math.Abs(noncoop.BestReplyTime(avail, next, phi) - before)
		for i := range loads {
			loads[i] += (next[i] - row[i]) * phi
		}
		copy(row, next)
	}
	return gap, nil
}

func (b *nashBench) finish() (int, error) { return 0, b.closeBroker() }

func (b *nashBench) traced(seconds float64) (map[string]float64, string, samples, error) {
	b.timed = newTimedNetwork(nil)
	s, err := measure(b, seconds)
	tot := b.timed.totals()
	b.timed = nil
	if err != nil {
		return nil, "", s, err
	}
	ops := float64(s.attempted)
	solveMs := median(s.lat) * 1e3

	// The in-process oracle does the protocol's float operations in
	// the same order, without the runtime around them.
	var oracle []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		if _, err := b.solveOracle(); err != nil {
			return nil, "", s, err
		}
		oracle = append(oracle, time.Since(t0).Seconds()*1e3)
	}
	oracleMs := median(oracle)

	// One best reply timed in isolation, over every user of the final
	// profile, times the call count a solve makes (one per member per
	// shard-local sweep).
	brNs, err := bestReplyCost(b.sys, b.res.Profile)
	if err != nil {
		return nil, "", s, err
	}
	m := b.sys.NumUsers()
	calls := float64(b.res.Sweeps) * float64(m) / float64(game.DefaultShardCount(m))
	brShare := calls * brNs / (solveMs * 1e6)

	msgs := float64(tot.msgs) / ops
	sendS := tot.send.Seconds() / ops
	residual := 1 - (oracleMs/1e3+sendS)/(solveMs/1e3)
	layers := map[string]float64{
		"nash.rounds":          float64(b.res.Rounds),
		"nash.sweeps":          float64(b.res.Sweeps),
		"dist.msgs":            msgs,
		"dist.bytes":           float64(tot.bytes) / ops,
		"dist.msgs_per_sweep":  msgs / float64(b.res.Sweeps),
		"dist.send_busy_s":     sendS,
		"dist.send_ns_per_msg": float64(tot.send.Nanoseconds()) / float64(tot.msgs),
		"dist.recv_wait_s":     tot.recv.Seconds() / ops,
		"dist.recv_timeouts":   float64(tot.timeouts) / ops,
		"dist.recv_ok_ratio":   float64(tot.recvOK) / float64(tot.recvs),
		"game.oracle_ms":       oracleMs,
		"dist.overhead_x":      solveMs / oracleMs,
		"noncoop.bestreply_ns": brNs,
		"noncoop.share":        brShare,
		"dist.budget_residual": residual,
	}
	name := "nash-mem"
	if b.tcp {
		name = "nash-tcp"
	}
	budget := fmt.Sprintf("budget %s: solve %.4g ms (measured, median of %d) = oracle compute %.4g ms [measured in process, %.1f%%] + "+
		"send busy %.4g ms [measured, summed over nodes, %.1f%%] + residual %.4g ms [runtime, waiting, receive path: %.1f%%]; "+
		"best replies alone %.4g ms [computed: %.0f calls × %.3g ns, %.1f%%]\n",
		name, solveMs, len(s.lat), oracleMs, 100*oracleMs/solveMs, sendS*1e3, 100*sendS*1e3/solveMs,
		solveMs-oracleMs-sendS*1e3, 100*residual, calls*brNs/1e6, calls, brNs, 100*brShare)
	return layers, budget, s, nil
}

// bestReplyCost times noncoop.BestReplyInto against every user's
// available capacities in prof and returns nanoseconds per call
// (median of a few passes).
func bestReplyCost(sys gtlb.MultiSystem, prof gtlb.Profile) (float64, error) {
	m, n := sys.NumUsers(), sys.NumComputers()
	loads := make([]float64, n)
	for j := 0; j < m; j++ {
		for i := range loads {
			loads[i] += prof.S[j][i] * sys.Phi[j]
		}
	}
	avails := make([][]float64, m)
	for j := range avails {
		avails[j] = make([]float64, n)
		for i := range loads {
			avails[j][i] = sys.Mu[i] - loads[i] + prof.S[j][i]*sys.Phi[j]
		}
	}
	out := make([]float64, n)
	ord := make([]int, n)
	const passes = 20
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for j, a := range avails {
				if err := noncoop.BestReplyInto(a, sys.Phi[j], out, ord); err != nil {
					return 0, err
				}
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(passes*m))
	}
	return median(per), nil
}
