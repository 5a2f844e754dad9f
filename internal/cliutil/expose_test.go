package cliutil

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gtlb/internal/ctrl"
	"gtlb/internal/dist"
	"gtlb/internal/obs"
)

// syncWriter is a mutex-guarded buffer for the exposition goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestStartExposition: in periodic mode at least one tick lands, and
// stop is idempotent.
func TestStartExposition(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	reg.Observe(obs.Event{Kind: obs.CtrlRealloc})
	w := &syncWriter{}
	stop := StartExposition(w, time.Millisecond, func(out io.Writer) error {
		return WriteRegistry(out, reg)
	})
	deadline := time.Now().Add(5 * time.Second)
	for w.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop()
	if !strings.Contains(w.String(), "ctrl.realloc=1") {
		t.Errorf("periodic exposition wrote %q", w.String())
	}
}

func TestExposeCtrl(t *testing.T) {
	t.Parallel()
	net := dist.NewMemNetwork()
	conn, err := net.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join("lbgen")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d, err := ctrl.NewDaemon(conn, ctrl.DaemonConfig{
		Controller:  ctrl.Config{Observer: reg},
		PollTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var before strings.Builder
	if err := ExposeCtrl(&before, d, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before.String(), "no committed epochs") {
		t.Errorf("pre-epoch exposition = %q", before.String())
	}

	d.Start()
	m, err := ctrl.EncodeMessage("lbd", ctrl.Estimate{Seq: 1, Time: 0, Phi: []float64{10}, Mu: []float64{40, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send(m); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}

	var after strings.Builder
	if err := ExposeCtrl(&after, d, reg); err != nil {
		t.Fatal(err)
	}
	out := after.String()
	if !strings.Contains(out, "epochs=1") {
		t.Errorf("exposition lacks the epoch count: %q", out)
	}
	if !strings.Contains(out, "run metrics:") || !strings.Contains(out, "ctrl.realloc=") {
		t.Errorf("exposition lacks the registry metrics: %q", out)
	}
}

func TestWriteRegistryNil(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	if err := WriteRegistry(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Errorf("nil registry wrote %q", b.String())
	}
}
