package cliutil

// Exposition: the one shared text format for run metrics. Every CLI —
// lbd, lbnode, lbsim -metrics — renders through these helpers so
// operators see the same shape everywhere: an optional status line for
// the subsystem, then the "run metrics:" registry block.

import (
	"fmt"
	"io"
	"sync"
	"time"

	"gtlb/internal/ctrl"
	"gtlb/internal/obs"
)

// WriteRegistry renders the metrics registry block. A nil registry
// writes nothing, so callers can pass their observer through untested.
func WriteRegistry(w io.Writer, reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	_, err := fmt.Fprintf(w, "run metrics:\n%s\n", reg)
	return err
}

// ExposeCtrl writes a one-shot exposition of the control-plane daemon:
// the committed epoch, the active allocation and queue backlog, then
// the registry block.
func ExposeCtrl(w io.Writer, d *ctrl.Daemon, reg *obs.Registry) error {
	alloc, ok := d.Allocation()
	if !ok {
		if _, err := fmt.Fprintf(w, "lbd: no committed epochs\n"); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "lbd: epochs=%d backlog=%g spare=%g loads=%.6g\n",
			d.Epoch(), d.Backlog(), alloc.Spare, alloc.Lambda); err != nil {
			return err
		}
	}
	return WriteRegistry(w, reg)
}

// StartExposition renders a snapshot to w every interval until the
// returned stop function is called. Render errors end the loop early
// (the subsystem being exposed is unaffected). Intervals at or below
// zero default to 10 seconds; stop is idempotent and joins the
// goroutine before returning, so it never leaks past shutdown.
func StartExposition(w io.Writer, every time.Duration, render func(io.Writer) error) (stop func()) {
	if every <= 0 {
		every = 10 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if err := render(w); err != nil {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
