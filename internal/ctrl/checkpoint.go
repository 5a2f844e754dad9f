package ctrl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"gtlb/internal/core"
	"gtlb/internal/obs"
)

// checkpointVersion guards the on-disk schema; Load rejects files
// written by an incompatible future format instead of misreading them.
const checkpointVersion = 1

// Checkpoint is the controller's durable state: everything needed for
// a restarted daemon to resume from its last committed epoch and make
// byte-identical decisions from there on. It is JSON on disk so an
// operator can inspect a wedged daemon's state directly.
type Checkpoint struct {
	Version int `json:"version"`

	Epoch    int     `json:"epoch"`
	SeenSeq  int     `json:"seen_seq"`
	SeenTime float64 `json:"seen_time"`

	BaseMu  []float64 `json:"base_mu"`
	BasePhi []float64 `json:"base_phi"`
	BaseT   float64   `json:"base_time"`

	Lambda  []float64 `json:"lambda"`
	Spare   float64   `json:"spare"`
	Used    []bool    `json:"used"`
	Backlog float64   `json:"backlog"`
}

// Checkpoint snapshots the controller's committed state. Before the
// first committed epoch it returns the zero checkpoint (Epoch 0), which
// Restore turns back into a fresh controller.
func (c *Controller) Checkpoint() Checkpoint {
	ck := Checkpoint{
		Version:  checkpointVersion,
		Epoch:    c.epoch,
		SeenSeq:  c.seenSeq,
		SeenTime: c.seenTime,
		BaseT:    c.baseT,
		Spare:    c.alloc.Spare,
		Backlog:  c.backlog,
	}
	if c.have {
		ck.BaseMu = append([]float64(nil), c.baseMu...)
		ck.BasePhi = append([]float64(nil), c.basePhi...)
		ck.Lambda = append([]float64(nil), c.alloc.Lambda...)
		ck.Used = append([]bool(nil), c.alloc.Used...)
	}
	return ck
}

// Validate checks a checkpoint's internal consistency.
func (ck Checkpoint) Validate() error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("ctrl: checkpoint version %d, this build reads %d", ck.Version, checkpointVersion)
	}
	if ck.Epoch < 0 {
		return fmt.Errorf("ctrl: checkpoint epoch %d is negative", ck.Epoch)
	}
	if ck.Epoch > 0 {
		if len(ck.BaseMu) == 0 || len(ck.BasePhi) == 0 {
			return errors.New("ctrl: committed checkpoint lacks its baseline estimate")
		}
		if len(ck.Lambda) != len(ck.BaseMu) || len(ck.Used) != len(ck.BaseMu) {
			return fmt.Errorf("ctrl: checkpoint allocation width %d/%d does not match %d computers",
				len(ck.Lambda), len(ck.Used), len(ck.BaseMu))
		}
	}
	if ck.Backlog < 0 || math.IsNaN(ck.Backlog) || math.IsInf(ck.Backlog, 0) {
		return fmt.Errorf("ctrl: checkpoint backlog %g is invalid", ck.Backlog)
	}
	for i, l := range ck.Lambda {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("ctrl: checkpoint lambda[%d] = %g is invalid", i, l)
		}
	}
	return nil
}

// Restore builds a controller resuming from a checkpoint: the next
// committed epoch is ck.Epoch+1 and the fencing watermarks carry over,
// so an estimate stream replayed across the restart yields the same
// decisions as an uninterrupted run.
func Restore(cfg Config, ck Checkpoint) (*Controller, error) {
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Epoch == 0 {
		return c, nil
	}
	c.epoch = ck.Epoch
	c.seenSeq = ck.SeenSeq
	c.seenTime = ck.SeenTime
	c.baseMu = append([]float64(nil), ck.BaseMu...)
	c.basePhi = append([]float64(nil), ck.BasePhi...)
	c.baseT = ck.BaseT
	c.alloc = core.Allocation{
		Lambda: append([]float64(nil), ck.Lambda...),
		Spare:  ck.Spare,
		Used:   append([]bool(nil), ck.Used...),
	}
	c.admitted = sum(c.alloc.Lambda)
	c.backlog = ck.Backlog
	c.have = true
	c.observe(obs.Event{Kind: obs.CtrlResume, Time: ck.SeenTime, B: int32(ck.Epoch)})
	return c, nil
}

// SaveCheckpoint writes the checkpoint atomically: a temp file in the
// target directory, fsync, then rename — a daemon killed mid-flush
// leaves either the old checkpoint or the new one, never a torn file.
func SaveCheckpoint(path string, ck Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("ctrl: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".lbd-checkpoint-*")
	if err != nil {
		return fmt.Errorf("ctrl: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()        // already failing; the write error wins
		_ = os.Remove(tmpName) // best-effort cleanup of the torn temp file
		return fmt.Errorf("ctrl: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()        // already failing; the sync error wins
		_ = os.Remove(tmpName) // best-effort cleanup of the unsynced temp file
		return fmt.Errorf("ctrl: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup; the close error wins
		return fmt.Errorf("ctrl: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup; the rename error wins
		return fmt.Errorf("ctrl: install checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint; ok is false when the file does not
// exist (a fresh daemon), an error means the file exists but is
// unreadable or invalid.
func LoadCheckpoint(path string) (Checkpoint, bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, fmt.Errorf("ctrl: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return Checkpoint{}, false, fmt.Errorf("ctrl: decode checkpoint %s: %w", path, err)
	}
	if err := ck.Validate(); err != nil {
		return Checkpoint{}, false, err
	}
	return ck, true, nil
}
