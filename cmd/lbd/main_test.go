package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gtlb"
	"gtlb/internal/ctrl"
)

// estimateLines returns n lbgen-shaped estimate lines, seq 1..n.
func estimateLines(t *testing.T, n int) []string {
	t.Helper()
	lines := make([]string, n)
	for i := range lines {
		b, err := json.Marshal(gtlb.LoadEstimate{
			Seq:  i + 1,
			Time: float64(i),
			Phi:  []float64{12, 8, 6},
			Mu:   []float64{40, 37, 23, 14},
		})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	return lines
}

// pumpInto runs pump on r and returns the sequence numbers the daemon
// side received, in order.
func pumpInto(t *testing.T, r io.Reader) (seqs []int, bad int, err error) {
	t.Helper()
	net := gtlb.NewMemNetwork()
	lbd, jerr := net.Join("lbd")
	if jerr != nil {
		t.Fatal(jerr)
	}
	src, jerr := net.Join("stdin")
	if jerr != nil {
		t.Fatal(jerr)
	}
	bad, err = pump(r, src, nil)
	if cerr := src.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	for {
		m, rerr := lbd.RecvTimeout(10 * time.Millisecond)
		if rerr != nil {
			break // drained
		}
		e, derr := ctrl.DecodeEstimate(m)
		if derr != nil {
			t.Fatal(derr)
		}
		seqs = append(seqs, e.Seq)
	}
	return seqs, bad, err
}

// TestPumpSkipsOverlongLine: a line longer than maxLine is one
// malformed line, and every estimate after it still reaches the
// daemon, as do estimates around blank, CRLF-terminated and bad-JSON
// lines.
func TestPumpSkipsOverlongLine(t *testing.T) {
	lines := estimateLines(t, 20)
	var in []string
	for i, l := range lines {
		switch i {
		case 5:
			in = append(in, strings.Repeat("x", 5<<20))
		case 9:
			in = append(in, "", "{not json")
		case 12:
			l += "\r"
		}
		in = append(in, l)
	}
	seqs, bad, err := pumpInto(t, strings.NewReader(strings.Join(in, "\n"))) // no final newline
	if err != nil {
		t.Fatalf("pump error = %v, want nil at end of input", err)
	}
	if bad != 2 {
		t.Errorf("pump counted %d malformed lines, want 2 (the over-long line and the bad JSON)", bad)
	}
	if len(seqs) != 20 {
		t.Fatalf("daemon received %d estimates, want 20: %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("estimate %d has seq %d, want %d", i, s, i+1)
		}
	}
}

// failingReader yields its data, then fails with err.
type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestPumpReturnsReadError: a read error ends the pump with that error
// (not as if the input had closed), after forwarding the complete lines
// read before it and dropping the partial one.
func TestPumpReturnsReadError(t *testing.T) {
	lines := estimateLines(t, 3)
	sentinel := errors.New("device gone")
	r := &failingReader{data: fmt.Sprintf("%s\n%s\n%s", lines[0], lines[1], lines[2][:10]), err: sentinel}
	seqs, bad, err := pumpInto(t, r)
	if !errors.Is(err, sentinel) {
		t.Fatalf("pump error = %v, want %v", err, sentinel)
	}
	if bad != 0 || len(seqs) != 2 {
		t.Errorf("pump forwarded %v with %d malformed, want seqs [1 2] and 0 malformed", seqs, bad)
	}
}

// TestMain runs lbd's main instead of the tests when the lbdMainEnv
// variable is set, so a test can drive the real command in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv(lbdMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const lbdMainEnv = "LBD_TEST_RUN_MAIN"

// TestSignalDrainsIdlePipe: SIGINT ends lbd promptly while its stdin is
// a pipe that stays open and idle, and the drain still flushes the
// checkpoint. A read from such a pipe is not interrupted by closing
// stdin, so a drain that waits for the pump waits for the writer.
func TestSignalDrainsIdlePipe(t *testing.T) {
	lines := estimateLines(t, 3)
	signalDrain(t, func(w io.Writer) error {
		for _, l := range lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
		return nil // the writer stays open, idle, until the test ends
	})
}

// TestSignalDrainsBusyPipe: SIGINT ends lbd promptly while its stdin
// keeps delivering estimates. A pump that went on forwarding after the
// signal would keep the daemon's drain busy for as long as the writer
// writes.
func TestSignalDrainsBusyPipe(t *testing.T) {
	signalDrain(t, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for seq := 1; ; seq++ {
			b, err := json.Marshal(gtlb.LoadEstimate{
				Seq:  seq,
				Time: float64(seq),
				Phi:  []float64{12, 8, 6},
				Mu:   []float64{40, 37, 23, 14},
			})
			if err != nil {
				return err
			}
			if _, err := bw.Write(append(b, '\n')); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err // lbd has exited and closed the pipe
			}
		}
	})
}

// signalDrain runs lbd with a checkpoint, feeding its stdin from feed
// on a goroutine, and sends SIGINT once the first epoch's checkpoint is
// written. lbd must exit 0 within 2 s of the signal, with the drain
// notice, the summary and the checkpoint flushed again at epoch 1 (the
// estimates repeat one load, so every later one holds).
func signalDrain(t *testing.T, feed func(w io.Writer) error) {
	t.Helper()
	ck := filepath.Join(t.TempDir(), "ck.json")
	cmd := exec.Command(os.Args[0], "-checkpoint", ck, "-quiet")
	cmd.Env = append(os.Environ(), lbdMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	fed := make(chan error, 1)
	go func() { fed <- feed(stdin) }()
	defer func() {
		stdin.Close()
		<-fed
	}()
	// The first estimate commits an epoch, which flushes the checkpoint.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-exited
			t.Fatalf("no checkpoint within 10 s; stderr: %s", stderr.String())
		}
	}
	if err := os.Remove(ck); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	signalled := time.Now()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("lbd exited with %v after the signal; stderr: %s", err, stderr.String())
		}
	case <-time.After(2 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		t.Fatalf("lbd still running 2 s after SIGINT; stderr: %s", stderr.String())
	}
	t.Logf("exited %v after the signal", time.Since(signalled).Round(time.Millisecond))
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr lacks the drain notice: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "lbd: 1 epochs committed") {
		t.Errorf("stdout lacks the summary: %q", stdout.String())
	}
	got, ok, err := ctrl.LoadCheckpoint(ck)
	if err != nil || !ok || got.Epoch != 1 {
		t.Fatalf("drain checkpoint: epoch %d, ok %v, err %v; want epoch 1 flushed", got.Epoch, ok, err)
	}
}
