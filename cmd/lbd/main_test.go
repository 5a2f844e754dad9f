package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	bad, err = pump(r, src)
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
