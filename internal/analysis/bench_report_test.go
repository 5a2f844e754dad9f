package analysis

// TestBenchLBVetReport reads the cost of a full lbvet run over the
// repository from BENCH_LBVET.json (re-measured and rewritten under
// -bench.write, via internal/benchio like BENCH_DES.json), so the analyzer's cost stays visible as the tree
// grows: a parse-and-typecheck-from-source design is only acceptable
// while it stays cheap relative to `go test`.

import (
	"flag"
	"testing"

	"gtlb/internal/benchio"
)

// benchWrite opts in to re-measuring BENCH_LBVET.json:
//
//	go test -run TestBenchLBVetReport -count=1 ./internal/analysis/ -args -bench.write
//
// Without it the test checks the committed report, so `go test ./...`
// leaves the tree clean.
var benchWrite = flag.Bool("bench.write", false, "re-measure and rewrite BENCH_LBVET.json")

func TestBenchLBVetReport(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report skipped in -short mode")
	}
	report, err := benchio.Refresh("../../BENCH_LBVET.json", *benchWrite, func() benchio.Report {
		var last VetResult
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Vet("../..", []string{"./..."}, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
		})
		report := benchio.NewReport()
		report.Add("lbvet/full-tree", float64(r.NsPerOp()), map[string]float64{
			"packages":    float64(last.Packages),
			"files":       float64(last.Files),
			"diagnostics": float64(len(last.Diagnostics)),
		})
		return report
	})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := report.Lookup("lbvet/full-tree")
	if !ok {
		t.Fatal("BENCH_LBVET.json has no lbvet/full-tree entry")
	}
	t.Logf("lbvet full tree: %.0f ms over %.0f packages / %.0f files",
		e.NsPerOp/1e6, e.Extra["packages"], e.Extra["files"])
}
