package ctrl

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gtlb/internal/queueing"
)

// benchGenConfig is perfbench's ctrl-loop stream: 256 computers with
// rates in [10,50), 16 users with base rates in [50,80), the diurnal
// profile, and a crash every 500 steps (restored 200 steps later) plus
// a join every 2,500.
func benchGenConfig(seed uint64) GenConfig {
	const computers, users, steps = 256, 16, 20000
	rng := queueing.NewRNG(seed)
	cfg := GenConfig{
		Seed:        seed,
		Mu:          make([]float64, computers),
		Users:       make([]float64, users),
		Steps:       steps,
		Multipliers: []float64{0.6, 1.0, 1.5, 1.1, 0.7},
		Segment:     25,
		Jitter:      0.02,
		Source:      "perfbench",
	}
	for i := range cfg.Mu {
		cfg.Mu[i] = 10 + 40*rng.Float64()
	}
	for j := range cfg.Users {
		cfg.Users[j] = 50 + 30*rng.Float64()
	}
	crashEvery, joinEvery := steps/40, steps/8
	for s := crashEvery; s < steps; s += crashEvery {
		c := rng.Intn(computers)
		cfg.Events = append(cfg.Events,
			ChurnEvent{Step: s, Kind: ChurnCrash, Computer: c},
			ChurnEvent{Step: s + crashEvery*2/5, Kind: ChurnRestore, Computer: c})
	}
	for s := joinEvery; s < steps; s += joinEvery {
		cfg.Events = append(cfg.Events, ChurnEvent{Step: s, Kind: ChurnJoin, Mu: 10 + 40*rng.Float64()})
	}
	return cfg
}

// TestDecisionLogDigest pins the controller's decision log on the
// benchmark's 20,000-estimate stream under both admission policies:
// the SHA-256 of the Decision.String() lines, each ending in a
// newline. The controller is restored from its own checkpoint every
// 4,999 estimates, so the restored state is pinned too. Any change to
// a drift, admission, hold or commit float shows up here.
func TestDecisionLogDigest(t *testing.T) {
	t.Parallel()
	want := map[Policy]string{
		Shed:  "3f42c805421f670ab01846fccd458629f160fe31bf188b16db17cf92b051c08f",
		Queue: "02dd7dbde1b792c31aa50a3e3baaa1793d2f1b3b96e7cea0b6681b7519d6c727",
	}
	for _, p := range []Policy{Shed, Queue} {
		g, err := NewGenerator(benchGenConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Policy: p}
		c := mustController(t, cfg)
		h := sha256.New()
		n := 0
		for e, ok := g.Next(); ok; e, ok = g.Next() {
			dec, err := c.Ingest(e)
			if err != nil {
				t.Fatalf("%s: seq %d: %v", p, e.Seq, err)
			}
			h.Write([]byte(dec.String() + "\n"))
			if n++; n%4999 == 0 {
				if c, err = Restore(cfg, c.Checkpoint()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[p] {
			t.Errorf("%s: decision log digest %s, want %s", p, got, want[p])
		}
	}
}
