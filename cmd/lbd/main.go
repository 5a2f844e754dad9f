// Command lbd is the resident control-plane daemon: it ingests load
// estimates (JSON Lines on stdin, one estimate per line — lbgen's
// output format), reconciles the cooperative allocation incrementally
// behind a hysteresis deadband, sheds or queues demand the system
// cannot carry, and prints one decision line per estimate to stdout.
//
// The closed-loop demo:
//
//	lbgen -seed 7 -steps 120 -crash 1:30 -restore 1:60 | lbd -metrics
//
// With -checkpoint the daemon is durable: state is flushed after every
// committed epoch, SIGINT/SIGTERM drains in-flight estimates and exits
// 0, and a restarted daemon resumes from the checkpoint at the next
// epoch. A fixed seed upstream gives a byte-identical decision log
// across runs and across restarts.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gtlb"
	"gtlb/internal/cliutil"
	"gtlb/internal/ctrl"
)

func main() {
	deadband := flag.Float64("deadband", 0.05, "relative drift below which the allocation holds")
	headroom := flag.Float64("headroom", 0.95, "fraction of total capacity admission control may fill")
	policy := flag.String("policy", "shed", "overload policy: shed or queue")
	gain := flag.Float64("gain", 0.5, "queue drain gain in (0,1]")
	maxAge := flag.Float64("max-age", 0, "discard estimates older than this many logical seconds (0 = never)")
	ckPath := flag.String("checkpoint", "", "checkpoint file for crash recovery (empty = not durable)")
	showMetrics := flag.Bool("metrics", false, "print the metrics registry on exit")
	exposeEvery := flag.Duration("expose-every", 0, "write a status exposition to stderr at this interval (0 = off)")
	quiet := flag.Bool("quiet", false, "suppress the per-estimate decision log")
	flag.Parse()

	pol, err := ctrl.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	reg := gtlb.NewRegistry()
	out := bufio.NewWriter(os.Stdout)

	// The estimate path is the same one a networked deployment uses: a
	// transport mailbox between the ingest pump and the daemon.
	net := gtlb.NewMemNetwork()
	lbdConn, err := net.Join("lbd")
	if err != nil {
		fatal(err)
	}
	src, err := net.Join("stdin")
	if err != nil {
		fatal(err)
	}
	d, err := gtlb.NewControlDaemon(lbdConn, gtlb.ControlDaemonConfig{
		Controller: gtlb.ControlConfig{
			Deadband:  *deadband,
			Headroom:  *headroom,
			Policy:    pol,
			DrainGain: *gain,
			MaxAge:    *maxAge,
			Observer:  reg,
		},
		CheckpointPath: *ckPath,
		PollTimeout:    10 * time.Millisecond,
		OnDecision: func(_ gtlb.LoadEstimate, dec gtlb.ControlDecision) {
			if !*quiet {
				_, _ = fmt.Fprintln(out, dec.String()) // buffered; a write error surfaces at the final Flush
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	if epoch, ok := d.ResumedFrom(); ok {
		fmt.Fprintf(os.Stderr, "lbd: resumed from checkpoint at epoch %d\n", epoch)
	}
	d.Start()

	if *exposeEvery > 0 {
		stopExpo := cliutil.StartExposition(os.Stderr, *exposeEvery, func(w io.Writer) error {
			return cliutil.ExposeCtrl(w, d, reg)
		})
		defer stopExpo()
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the pump from
	// forwarding and stops waiting for it; the normal drain path then
	// runs and the process exits 0 with the checkpoint flushed. The
	// handler also releases the signals, so a second one kills a wedged
	// drain. The pump reads on its own goroutine because nothing
	// interrupts a blocking read from an idle pipe (not even closing
	// stdin); after a signal it is abandoned, and it sends nothing more
	// once it has seen the signal.
	sigCh, stopSig := cliutil.ShutdownSignal()
	defer stopSig()
	interrupted := make(chan struct{})
	go func() {
		s := <-sigCh
		stopSig()
		fmt.Fprintf(os.Stderr, "lbd: caught %v, draining\n", s)
		close(interrupted)
	}()
	type pumped struct {
		bad int
		err error
	}
	done := make(chan pumped, 1)
	go func() {
		bad, err := pump(os.Stdin, src, interrupted)
		done <- pumped{bad, err}
	}()
	var in pumped
	select {
	case in = <-done:
	case <-interrupted:
	}
	if err := src.Close(); err != nil {
		fatal(err)
	}
	if err := d.Stop(); err != nil {
		fatal(err)
	}
	if in.bad > 0 {
		fmt.Fprintf(os.Stderr, "lbd: skipped %d malformed input lines\n", in.bad)
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
	if in.err != nil {
		fatal(fmt.Errorf("reading stdin: %w", in.err))
	}
	fmt.Printf("lbd: %d epochs committed, backlog %g\n", d.Epoch(), d.Backlog())
	if *showMetrics {
		//lint:ignore errcheck stdout exposition as the run exits
		cliutil.WriteRegistry(os.Stdout, reg)
	}
}

// maxLine bounds one input line; a longer line is malformed.
const maxLine = 4 << 20

// pump forwards stdin's JSONL estimates to the daemon over src until
// the input ends, stop is closed or the daemon side is gone. Malformed lines — bad
// JSON, an estimate that does not encode, a line longer than maxLine —
// are counted, skipped and reading goes on; the daemon itself fences
// stale and invalid estimates. It returns the malformed count and the
// read error that ended the input (nil at end of input).
func pump(r io.Reader, src gtlb.Conn, stop <-chan struct{}) (bad int, err error) {
	br := bufio.NewReader(r)
	var line []byte
	tooLong := false
	for {
		frag, rerr := br.ReadSlice('\n')
		if !tooLong { // stop buffering a line once it is too long
			line = append(line, frag...)
			tooLong = len(line) > maxLine+2 // room for a trailing \r\n
		}
		if rerr == bufio.ErrBufferFull {
			continue // the line goes on
		}
		if rerr != nil && rerr != io.EOF {
			return bad, rerr
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		switch {
		case len(line) > maxLine:
			bad++
		case len(line) > 0:
			var e gtlb.LoadEstimate
			if err := json.Unmarshal(line, &e); err != nil {
				bad++
				break
			}
			m, err := ctrl.EncodeMessage("lbd", e)
			if err != nil {
				bad++
				break
			}
			select {
			case <-stop:
				return bad, nil // shutting down; forward nothing more
			default:
			}
			if err := src.Send(m); err != nil {
				return bad, nil // daemon side gone; drain what was delivered
			}
		}
		if rerr == io.EOF {
			return bad, nil
		}
		line, tooLong = line[:0], false
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lbd: %v\n", err)
	os.Exit(1)
}
