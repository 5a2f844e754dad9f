// Package benchio writes machine-readable benchmark reports, so the
// perf trajectory of the hot paths (above all the simulation engine) can
// be recorded per-PR and compared across machines. The repository-level
// harness in bench_test.go emits BENCH_DES.json through this package.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Entry is one measured benchmark.
type Entry struct {
	// Name identifies the benchmark (e.g. "des.Run/workers=4").
	Name string `json:"name"`
	// NsPerOp is the measured wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp record the heap cost per operation.
	// Unlike ns/op they are nearly machine-independent, which makes
	// them the CI-gateable part of the report: an allocation slipped
	// back into the simulator's hot loop shows up here on any runner.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	// Extra holds benchmark-specific metrics (e.g. "speedup",
	// "jobs_per_op"), keyed by metric name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is a full benchmark report: the environment it ran in plus the
// measured entries.
type Report struct {
	// GoVersion, GoMaxProcs and NumCPU describe the machine, because a
	// parallel speedup number is meaningless without them.
	GoVersion  string  `json:"go_version"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Entries    []Entry `json:"entries"`
}

// NewReport returns a report stamped with the current environment.
func NewReport() Report {
	return Report{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Add appends one entry to the report.
func (r *Report) Add(name string, nsPerOp float64, extra map[string]float64) {
	r.Entries = append(r.Entries, Entry{Name: name, NsPerOp: nsPerOp, Extra: extra})
}

// AddWithAllocs appends one entry carrying heap-cost metrics alongside
// the timing.
func (r *Report) AddWithAllocs(name string, nsPerOp, allocsPerOp, bytesPerOp float64, extra map[string]float64) {
	r.Entries = append(r.Entries, Entry{
		Name:        name,
		NsPerOp:     nsPerOp,
		AllocsPerOp: allocsPerOp,
		BytesPerOp:  bytesPerOp,
		Extra:       extra,
	})
}

// Lookup returns the entry with the given name.
func (r Report) Lookup(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Write stores the report as indented JSON at path, sorting entries by
// name so reruns produce stable diffs. The write goes through a
// temporary file in the same directory and a rename, so a crashed run
// never leaves a truncated report behind.
func Write(path string, r Report) error {
	sort.Slice(r.Entries, func(a, b int) bool { return r.Entries[a].Name < r.Entries[b].Name })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchio: encode report: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("benchio: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()           // best-effort cleanup; the write error wins
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the write error wins
		return fmt.Errorf("benchio: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the close error wins
		return fmt.Errorf("benchio: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the rename error wins
		return fmt.Errorf("benchio: %w", err)
	}
	return nil
}

// Read loads a report written by Write.
func Read(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("benchio: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("benchio: decode %s: %w", path, err)
	}
	return r, nil
}

// Refresh returns the report a report test checks its claims against.
// With write set (the tests' -bench.write opt-in) measure runs and its
// report replaces the one at path; otherwise the committed report at
// path is read back, so a plain `go test` never rewrites a tracked file.
func Refresh(path string, write bool, measure func() Report) (Report, error) {
	if !write {
		return Read(path)
	}
	r := measure()
	if err := Write(path, r); err != nil {
		return Report{}, err
	}
	return r, nil
}
