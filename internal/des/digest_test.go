package des

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"gtlb/internal/metrics"
	"gtlb/internal/queueing"
)

// gridTime is a service or inter-arrival distribution on a coarse grid
// of multiples of 1/8 s, so departures, arrivals, failures and repairs
// land on exactly equal times and the engine's seq tie-break decides
// their order.
type gridTime struct{ steps int }

func (g gridTime) Sample(r *queueing.RNG) float64 { return float64(1+r.Intn(g.steps)) / 8 }
func (g gridTime) Mean() float64                  { return float64(1+g.steps) / 16 }
func (g gridTime) CV() float64                    { return 0.5 }

// digestConfigs spans the static engine's paths: single- and two-class
// routing, two workers, breakdowns with rerouting, heavy-tail and
// coarse-grid service, and computer counts that do and do not fill a
// power of two.
func digestConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	for _, mu := range [][]float64{
		{10},
		{13, 13, 13, 26, 26, 65, 130},
		{13, 13, 13, 13, 13, 13, 26, 26, 26, 26, 26, 65, 65, 65, 130, 130},
		{13, 13, 13, 13, 13, 13, 26, 26, 26, 26, 26, 65, 65, 65, 130, 130, 20},
	} {
		var total float64
		for _, m := range mu {
			total += m
		}
		row := make([]float64, len(mu))
		skew := make([]float64, len(mu))
		for i, m := range mu {
			row[i] = m / total
			skew[i] = float64(i + 1)
		}
		base := Config{
			Mu:           mu,
			InterArrival: queueing.NewExponential(0.7 * total),
			Routing:      [][]float64{row},
			Horizon:      20,
			Warmup:       1,
			Replications: 3,
			Workers:      1,
		}
		for seed := uint64(1); seed <= 3; seed++ {
			single := base
			single.Seed = seed
			cfgs = append(cfgs, single)

			twoClass := single
			twoClass.UserShare = []float64{0.3, 0.7}
			twoClass.Routing = [][]float64{row, skew}
			twoClass.Workers = 2
			cfgs = append(cfgs, twoClass)

			broken := twoClass
			broken.Breakdowns = make([]Breakdown, len(mu))
			for i := range broken.Breakdowns {
				broken.Breakdowns[i] = Breakdown{FailRate: 0.5, RepairRate: 5}
			}
			cfgs = append(cfgs, broken)

			pareto := single
			pareto.Service = make([]queueing.Distribution, len(mu))
			for i, m := range mu {
				d, err := queueing.NewParetoFromMean(1/m, 2.2)
				if err != nil {
					t.Fatal(err)
				}
				pareto.Service[i] = d
			}
			cfgs = append(cfgs, pareto)

			grid := broken
			grid.InterArrival = gridTime{steps: 2}
			grid.Service = make([]queueing.Distribution, len(mu))
			for i := range grid.Service {
				grid.Service[i] = gridTime{steps: 4 * len(mu)}
			}
			grid.Breakdowns = make([]Breakdown, len(mu))
			for i := range grid.Breakdowns {
				grid.Breakdowns[i] = Breakdown{FailRate: 0.2, RepairRate: 2}
			}
			cfgs = append(cfgs, grid)
		}
	}
	return cfgs
}

func hashSummary(h hash.Hash, s metrics.Summary) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s.N))
	h.Write(b[:])
	for _, f := range []float64{s.Mean, s.Var, s.StdErr, s.Min, s.Max} {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// TestRunDigest pins the SHA-256 of every float bit of des.Run's
// Results over digestConfigs: any change to the event order, an RNG
// draw or an accumulator's arithmetic moves it.
func TestRunDigest(t *testing.T) {
	t.Parallel()
	h := sha256.New()
	var b [8]byte
	cfgs := digestConfigs(t)
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hashSummary(h, res.Overall)
		hashSummary(h, res.P95)
		for _, s := range res.PerComputer {
			hashSummary(h, s)
		}
		for _, s := range res.PerUser {
			hashSummary(h, s)
		}
		for _, u := range res.Utilization {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(u))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint64(b[:], uint64(res.Jobs))
		h.Write(b[:])
	}
	const want = "80c5c7f833265f3496d04f372fa45f78ff559592243ec12bc6ea47096045113b"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Results digest over %d configs = %s, want %s", len(cfgs), got, want)
	}
}
