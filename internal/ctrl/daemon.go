package ctrl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gtlb/internal/core"
	"gtlb/internal/dist"
	"gtlb/internal/obs"
)

// DaemonConfig configures the resident control-plane daemon.
type DaemonConfig struct {
	// Controller tunes the underlying reconciliation state machine.
	Controller Config
	// CheckpointPath, when non-empty, makes the daemon durable: the
	// controller state is flushed (atomically) after every committed
	// epoch and on shutdown, and a restarted daemon resumes from the
	// file's epoch. NewDaemon loads an existing checkpoint itself.
	CheckpointPath string
	// PollTimeout bounds each transport receive so the ingest loop can
	// notice a stop request; default 50ms.
	PollTimeout time.Duration
	// RetryBudget bounds consecutive transient transport errors before
	// the daemon gives up (timeouts do not count); default 5.
	RetryBudget int
	// RetryBase is the first backoff delay after a transient transport
	// error, doubling per consecutive failure; default 10ms.
	RetryBase time.Duration
	// OnDecision, when set, observes every estimate's decision from
	// the ingest goroutine (the closed-loop demo logs epochs with it).
	// The Estimate is valid only for the duration of the call: the
	// daemon decodes the next estimate into the same slices. A callback
	// that keeps it keeps a copy.
	OnDecision func(Estimate, Decision)
}

// withDefaults fills the documented defaults.
func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.PollTimeout <= 0 {
		c.PollTimeout = 50 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	return c
}

// Daemon runs a Controller against a transport endpoint: a single
// ingest goroutine receives estimates with bounded waits, applies them,
// flushes checkpoints after committed epochs, and drains cleanly on
// Stop. All exported methods are safe for concurrent use.
type Daemon struct {
	conn dist.Conn
	cfg  DaemonConfig

	est Estimate // the ingest goroutine's decode target, reused

	mu      sync.Mutex
	ctrl    *Controller
	runErr  error
	resumed int // epoch restored from the checkpoint, -1 when fresh

	wg       sync.WaitGroup
	stopCh   chan struct{}
	stopOnce sync.Once
	started  bool
}

// NewDaemon prepares a daemon on the given endpoint. When a checkpoint
// path is configured and the file exists, the controller resumes from
// it (emitting a ctrl.resume event); otherwise it starts fresh.
func NewDaemon(conn dist.Conn, cfg DaemonConfig) (*Daemon, error) {
	if conn == nil {
		return nil, errors.New("ctrl: daemon needs a transport endpoint")
	}
	cfg = cfg.withDefaults()
	d := &Daemon{conn: conn, cfg: cfg, stopCh: make(chan struct{}), resumed: -1}
	if cfg.CheckpointPath != "" {
		ck, ok, err := LoadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ok {
			c, err := Restore(cfg.Controller, ck)
			if err != nil {
				return nil, err
			}
			d.ctrl = c
			d.resumed = ck.Epoch
		}
	}
	if d.ctrl == nil {
		c, err := New(cfg.Controller)
		if err != nil {
			return nil, err
		}
		d.ctrl = c
	}
	return d, nil
}

// ResumedFrom reports the checkpointed epoch the daemon restored at
// startup; ok is false for a fresh start.
func (d *Daemon) ResumedFrom() (epoch int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.resumed, d.resumed >= 0
}

// Start launches the ingest loop. It may be called once.
func (d *Daemon) Start() {
	d.mu.Lock()
	already := d.started
	d.started = true
	d.mu.Unlock()
	if already {
		return
	}
	d.wg.Add(1)
	go d.run()
}

// run is the ingest loop: receive with a bounded wait, decode, apply,
// checkpoint. It exits when the endpoint closes or the stop channel
// fires (after draining already-delivered estimates), and is always
// joined by Stop — never leaked.
func (d *Daemon) run() {
	defer d.wg.Done()
	failures := 0
	for {
		draining := false
		select {
		case <-d.stopCh:
			// Drain mode: consume what is already in the mailbox so
			// in-flight epochs finish, then leave.
			draining = true
		default:
		}
		m, err := d.conn.RecvTimeout(d.cfg.PollTimeout)
		if err != nil {
			if errors.Is(err, dist.ErrClosed) {
				return
			}
			if errors.Is(err, dist.ErrTimeout) {
				failures = 0
				if draining {
					return
				}
				continue
			}
			// Transient transport error: back off and retry within the
			// budget. The schedule is fixed (base·2^k), not randomized,
			// so the daemon stays deterministic.
			failures++
			if failures > d.cfg.RetryBudget {
				d.fail(fmt.Errorf("ctrl: ingest gave up after %d transport errors: %w", failures-1, err))
				return
			}
			time.Sleep(d.cfg.RetryBase << (failures - 1))
			continue
		}
		failures = 0
		d.handle(m)
	}
}

// handle decodes one message into the reused estimate, runs it through
// the controller (which validates it and counts what it rejects) and
// flushes the checkpoint when an epoch committed.
func (d *Daemon) handle(m dist.Message) {
	if err := d.est.decode(m); err != nil { // malformed or foreign: count and drop
		if d.cfg.Controller.Observer != nil {
			d.cfg.Controller.Observer.Observe(obs.Event{Kind: obs.CtrlInvalid})
		}
		return
	}
	est := d.est
	d.mu.Lock()
	dec, err := d.ctrl.Ingest(est)
	var ck Checkpoint
	flush := err == nil && dec.Action == ActionRealloc && d.cfg.CheckpointPath != ""
	if flush {
		ck = d.ctrl.Checkpoint()
	}
	d.mu.Unlock()
	if err != nil {
		return // the controller already counted the invalid estimate
	}
	if flush {
		if serr := SaveCheckpoint(d.cfg.CheckpointPath, ck); serr != nil {
			d.fail(serr)
		} else if d.cfg.Controller.Observer != nil {
			d.cfg.Controller.Observer.Observe(obs.Event{Kind: obs.CtrlCheckpoint, Time: est.Time, B: int32(ck.Epoch)})
		}
	}
	if d.cfg.OnDecision != nil {
		d.cfg.OnDecision(est, dec)
	}
}

// fail records the daemon's first terminal error.
func (d *Daemon) fail(err error) {
	d.mu.Lock()
	if d.runErr == nil {
		d.runErr = err
	}
	d.mu.Unlock()
}

// Stop shuts the daemon down gracefully: it signals the ingest loop,
// waits for it to drain in-flight estimates and exit, flushes a final
// checkpoint (so fencing watermarks from held epochs survive too), and
// closes the endpoint. Safe to call more than once; every call reports
// the daemon's first error.
func (d *Daemon) Stop() error {
	d.stopOnce.Do(func() {
		close(d.stopCh)
		d.wg.Wait()
		if d.cfg.CheckpointPath != "" {
			d.mu.Lock()
			ck := d.ctrl.Checkpoint()
			d.mu.Unlock()
			if ck.Epoch > 0 {
				if err := SaveCheckpoint(d.cfg.CheckpointPath, ck); err != nil {
					d.fail(err)
				}
			}
		}
		if err := d.conn.Close(); err != nil {
			d.fail(fmt.Errorf("ctrl: closing endpoint: %w", err))
		}
	})
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.runErr
}

// Epoch returns the number of committed epochs.
func (d *Daemon) Epoch() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Epoch()
}

// Backlog returns the queued demand awaiting re-admission.
func (d *Daemon) Backlog() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Backlog()
}

// Allocation returns a copy of the active allocation; ok is false
// before the first committed epoch.
func (d *Daemon) Allocation() (core.Allocation, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Allocation()
}

// Checkpoint snapshots the current control state.
func (d *Daemon) Checkpoint() Checkpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ctrl.Checkpoint()
}
