package noncoop

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Checkpoint persistence: a strategy profile can be saved as JSON and
// restored in another process, so the distributed NASH protocol's
// checkpoint/resume story (gtlb.WithCheckpoint, the initial profile of
// dist.RunNashShardedWith) survives restarts of the whole coordinator,
// not just of individual nodes.

// profileDoc is the serialized form; versioned so the format can evolve.
type profileDoc struct {
	Version    int         `json:"version"`
	Strategies [][]float64 `json:"strategies"`
}

// Save writes the profile as JSON.
func (p Profile) Save(w io.Writer) error {
	for j, row := range p.S {
		for i, f := range row {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("noncoop: profile entry [%d][%d] is not finite", j, i)
			}
		}
	}
	return json.NewEncoder(w).Encode(profileDoc{Version: 1, Strategies: p.S})
}

// LoadProfile reads a profile saved with Save. Structural validity
// (row sums, stability) depends on the system and is checked by
// System.ValidateProfile at the point of use.
func LoadProfile(r io.Reader) (Profile, error) {
	var doc profileDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Profile{}, fmt.Errorf("noncoop: decode profile: %w", err)
	}
	if doc.Version != 1 {
		return Profile{}, fmt.Errorf("noncoop: unsupported profile version %d", doc.Version)
	}
	if len(doc.Strategies) == 0 {
		return Profile{}, fmt.Errorf("noncoop: profile has no users")
	}
	width := len(doc.Strategies[0])
	for j, row := range doc.Strategies {
		if len(row) != width {
			return Profile{}, fmt.Errorf("noncoop: profile row %d has %d entries, want %d", j, len(row), width)
		}
		for i, f := range row {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return Profile{}, fmt.Errorf("noncoop: profile entry [%d][%d] is not finite", j, i)
			}
		}
	}
	return Profile{S: doc.Strategies}, nil
}
