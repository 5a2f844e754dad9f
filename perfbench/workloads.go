package main

import (
	"fmt"
	"io"
	"strings"
)

// workload records why a workload exists alongside how to set it up.
// The name and why are mirrored in BENCHMARK.json.
type workload struct {
	name     string
	why      string
	stresses []string // layers whose cost the op is mostly made of
	bypasses []string // layers the op never enters: a change there must leave it flat
	inputs   string   // what --seed generates
	warmup   string   // what set-up runs untimed before the first measured op
	setup    func(cfg config) (bench, error)
}

var workloads = []*workload{
	{
		name:     "sim-table31",
		why:      "Table 3.1 simulation under COOP routing: the des event loop and queueing draws, with no transport, codec or control plane",
		stresses: []string{"des", "queueing"},
		bypasses: []string{"dist", "ctrl", "game", "noncoop"},
		inputs: "16-computer Table 3.1 system, μ ×1000 (Σμ=663 jobs/s), ρ=0.7, COOP routing, Poisson arrivals, " +
			"exponential service; op = gtlb.Simulate with 8 replications, Horizon 240, Warmup 12, Workers 1, " +
			"Seed = --seed (about 890k arrivals, 846k of them measured)",
		warmup: "COOP solve and one Simulate (the first call runs about 2× slower); every later op must reproduce its Result",
		setup:  func(cfg config) (bench, error) { return newSim(cfg) },
	},
	{
		name:     "nash-mem",
		why:      "sharded NASH to eps=1e-3 at m=1000 over the in-memory transport: the dist shard runtime and binary codec with a free wire",
		stresses: []string{"dist", "noncoop", "game"},
		bypasses: []string{"des", "ctrl"},
		inputs: "μ={30,20,15,10}, m=1000 users with φ_j=(1+0.3·(j mod 7))·30/m (Φ≈57, ρ≈0.76), " +
			"each φ_j scaled by a factor within 1±1e-3 drawn from --seed; gtlb.RunNashSharded, ε=1e-3, default ShardOptions " +
			"(Seed = --seed), no chaos; every op must match the oracle's profile bit for bit",
		warmup: "in-process oracle solve (game.ShardedBestReply) and one full solve",
		setup:  func(cfg config) (bench, error) { return newNash(cfg, false) },
	},
	{
		name:     "nash-tcp",
		why:      "the nash-mem solve over TCP loopback: same message count, so the gap to nash-mem is the wire (gob framing, syscalls, broker relay)",
		stresses: []string{"dist"},
		bypasses: []string{"des", "ctrl"},
		inputs: "identical to nash-mem, over dist.NewTCPNetwork on 127.0.0.1; one solve at a time, its ~1000 " +
			"sockets and goroutines are the protocol's own nodes; a fresh broker is started before each op, untimed",
		warmup: "in-process oracle solve and one solve of a 64-user system over its own broker (a full solve takes seconds)",
		setup:  func(cfg config) (bench, error) { return newNash(cfg, true) },
	},
	{
		name:     "ctrl-loop",
		why:      "closed-loop estimate->decision through the ctrl daemon: estimate codec, mem hop, controller hold path and warm COOP re-solve",
		stresses: []string{"ctrl", "game", "dist"},
		bypasses: []string{"des", "noncoop"},
		inputs: "ctrl.Generator stream of 20000 estimates: 256 computers (rates 10–50), 16 users (base 50–80), " +
			"diurnal 0.6,1.0,1.5,1.1,0.7 with segment 25, jitter 0.02, a crash every 500 steps restored 200 later, " +
			"a join every 2500 steps; one client, closed loop: EncodeMessage + mem Send to a ctrl.Daemon (deadband 0.05, " +
			"no checkpoint file: fsync on a shared disk swamps the loop; the traced run times SaveCheckpoint alone); " +
			"op = one estimate until its OnDecision; a fresh daemon per pass of the stream",
		warmup: "stream generation, the bare-Controller reference replay, daemon start and the first 200 estimates",
		setup:  func(cfg config) (bench, error) { return newCtrl(cfg) },
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func describe(out io.Writer) {
	for _, w := range workloads {
		fmt.Fprintf(out, "%s\n  why:      %s\n  stresses: %s\n  bypasses: %s\n  inputs:   %s\n  warm-up:  %s\n",
			w.name, w.why, strings.Join(w.stresses, ", "), strings.Join(w.bypasses, ", "), w.inputs, w.warmup)
	}
}
