package gtlb

import (
	"gtlb/internal/ctrl"
	"gtlb/internal/dist"
	"gtlb/internal/game"
)

// Live control plane (internal/ctrl): a resident reconciliation loop
// that ingests load estimates, re-runs the cooperative allocation
// incrementally (warm-started water-filling) behind a hysteresis
// deadband, sheds or queues infeasible demand, and survives both
// computer churn and its own crashes via checkpoints.

// Conn is one endpoint of a transport network (Network.Join). A
// received message's Data is valid only until the next Recv or
// RecvTimeout on the same Conn; a caller that keeps it longer copies it.
// Send keeps no reference to the sent Data, so the sender may overwrite
// or re-encode into it as soon as Send returns.
type Conn = dist.Conn

// LoadEstimate is one observation of the system: per-user arrival
// rates and per-computer processing rates (μ ≤ 0 marks a computer as
// down) with a sequence number and logical timestamp for fencing.
type LoadEstimate = ctrl.Estimate

// ControlConfig tunes the reconciliation loop: hysteresis deadband,
// admission headroom, overload policy, drain gain and estimate expiry.
type ControlConfig = ctrl.Config

// ControlPolicy selects what happens to demand beyond the admissible
// capacity: shed it or queue it for damped re-admission.
type ControlPolicy = ctrl.Policy

// Overload policies.
const (
	ShedPolicy  = ctrl.Shed
	QueuePolicy = ctrl.Queue
)

// ControlDecision is the controller's verdict on one estimate.
type ControlDecision = ctrl.Decision

// Controller is the pure (single-goroutine, wall-clock-free)
// reconciliation state machine.
type Controller = ctrl.Controller

// ControlCheckpoint is the controller's durable state.
type ControlCheckpoint = ctrl.Checkpoint

// ControlDaemon runs a Controller against a transport endpoint with
// bounded receives, retry backoff, checkpoint flushes and a draining
// Stop.
type ControlDaemon = ctrl.Daemon

// ControlDaemonConfig configures the daemon around its controller.
// The LoadEstimate its OnDecision callback receives is valid only for
// the duration of the call: the daemon decodes the next estimate into
// the same slices, so a callback that keeps it keeps a copy.
type ControlDaemonConfig = ctrl.DaemonConfig

// LoadGenConfig configures the deterministic estimate generator
// (diurnal traffic, seeded jitter, scripted churn).
type LoadGenConfig = ctrl.GenConfig

// LoadGenerator emits a deterministic estimate stream.
type LoadGenerator = ctrl.Generator

// ChurnEvent schedules a scripted crash/restore/join in the generator.
type ChurnEvent = ctrl.ChurnEvent

// Churn event kinds.
const (
	ChurnCrash   = ctrl.ChurnCrash
	ChurnRestore = ctrl.ChurnRestore
	ChurnJoin    = ctrl.ChurnJoin
)

// WarmStats reports how a warm-started solve converged.
type WarmStats = game.WarmStats

// NewController builds a fresh reconciliation state machine.
func NewController(cfg ControlConfig) (*Controller, error) { return ctrl.New(cfg) }

// RestoreController resumes a controller from a checkpoint.
func RestoreController(cfg ControlConfig, ck ControlCheckpoint) (*Controller, error) {
	return ctrl.Restore(cfg, ck)
}

// NewControlDaemon prepares a control-plane daemon on a transport
// endpoint, resuming from its checkpoint file when one exists.
func NewControlDaemon(conn Conn, cfg ControlDaemonConfig) (*ControlDaemon, error) {
	return ctrl.NewDaemon(conn, cfg)
}

// NewLoadGenerator builds the deterministic estimate generator.
func NewLoadGenerator(cfg LoadGenConfig) (*LoadGenerator, error) { return ctrl.NewGenerator(cfg) }

// WarmCOOP re-solves the cooperative allocation starting from a
// previous fixed point; it converges to exactly the allocation COOP
// computes from scratch, usually in one or two sweeps.
func WarmCOOP(sys System, prev Allocation) (Allocation, WarmStats, error) {
	return game.WarmCOOP(sys, prev)
}
