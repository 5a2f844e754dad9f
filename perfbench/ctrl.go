package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gtlb/internal/ctrl"
	"gtlb/internal/dist"
	"gtlb/internal/queueing"
)

const (
	ctrlSteps   = 20000 // estimates per pass of the stream
	ctrlWarmup  = 200   // estimates the set-up sends before timing starts
	ctrlDaemon  = "lbd"
	ctrlClient  = "lbgen"
	decideLimit = 5 * time.Second // a decision later than this counts as missing
)

// ctrlStream generates the estimate stream from the seed: 256
// computers with rates in [10,50), 16 users with base rates in
// [50,80), the diurnal profile and recurring crash, restore and join
// events.
func ctrlStream(seed uint64, quick bool) ([]ctrl.Estimate, error) {
	computers, users, steps := 256, 16, ctrlSteps
	if quick {
		computers, users, steps = 32, 4, 600
	}
	rng := queueing.NewRNG(seed)
	cfg := ctrl.GenConfig{
		Seed:        seed,
		Mu:          make([]float64, computers),
		Users:       make([]float64, users),
		Steps:       steps,
		Multipliers: []float64{0.6, 1.0, 1.5, 1.1, 0.7},
		Segment:     25,
		Jitter:      0.02,
		Source:      "perfbench",
	}
	for i := range cfg.Mu {
		cfg.Mu[i] = 10 + 40*rng.Float64()
	}
	for j := range cfg.Users {
		cfg.Users[j] = 50 + 30*rng.Float64()
	}
	crashEvery, joinEvery := steps/40, steps/8
	for s := crashEvery; s < steps; s += crashEvery {
		c := rng.Intn(computers)
		cfg.Events = append(cfg.Events,
			ctrl.ChurnEvent{Step: s, Kind: ctrl.ChurnCrash, Computer: c},
			ctrl.ChurnEvent{Step: s + crashEvery*2/5, Kind: ctrl.ChurnRestore, Computer: c})
	}
	for s := joinEvery; s < steps; s += joinEvery {
		cfg.Events = append(cfg.Events, ctrl.ChurnEvent{Step: s, Kind: ctrl.ChurnJoin, Mu: 10 + 40*rng.Float64()})
	}
	g, err := ctrl.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	stream := make([]ctrl.Estimate, 0, steps)
	for e, ok := g.Next(); ok; e, ok = g.Next() {
		stream = append(stream, e)
	}
	return stream, nil
}

// replayed is a bare Controller's run over the stream: the reference
// decision log, and what the traced run needs from it.
type replayed struct {
	log        []string
	reallocs   int
	warmSweeps int
	holdUs     []float64 // Ingest time of each hold or stale decision
	reallocUs  []float64 // Ingest time of each realloc decision
}

func replay(stream []ctrl.Estimate, timed bool) (replayed, error) {
	c, err := ctrl.New(ctrl.Config{})
	if err != nil {
		return replayed{}, err
	}
	var r replayed
	r.log = make([]string, len(stream))
	for k, e := range stream {
		t0 := time.Now()
		d, err := c.Ingest(e)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return replayed{}, fmt.Errorf("replay of estimate %d: %w", e.Seq, err)
		}
		r.log[k] = d.String()
		r.warmSweeps += d.Warm.Sweeps
		if d.Action == ctrl.ActionRealloc {
			r.reallocs++
			if timed {
				r.reallocUs = append(r.reallocUs, us)
			}
		} else if timed {
			r.holdUs = append(r.holdUs, us)
		}
	}
	return r, nil
}

type ctrlBench struct {
	stream []ctrl.Estimate
	ref    replayed
	dir    string // the traced run's checkpoint probe writes here

	// The current pass: a fresh daemon fed the stream from the start.
	daemon  *ctrl.Daemon
	client  dist.Conn
	decided chan ctrl.Decision
	got     []ctrl.Decision
	next    int
	timer   *time.Timer

	late    int           // ops failed by the end-of-pass log comparison
	timed   *timedNetwork // wraps each pass's network while tracing
	encodes []float64     // encode span of each traced op, in µs
}

func newCtrl(c config) (*ctrlBench, error) {
	stream, err := ctrlStream(c.seed, c.quick)
	if err != nil {
		return nil, err
	}
	ref, err := replay(stream, false)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-ctrl-")
	if err != nil {
		return nil, err
	}
	b := &ctrlBench{stream: stream, ref: ref, dir: dir, timer: time.NewTimer(decideLimit)}
	b.timer.Stop()
	warm := ctrlWarmup
	if c.quick {
		warm = 20
	}
	for k := 0; k < warm; k++ {
		if err := b.prepare(); err != nil {
			_, ferr := b.finish()
			return nil, errors.Join(err, ferr)
		}
		if err := b.op(); err != nil {
			_, ferr := b.finish()
			return nil, fmt.Errorf("warm-up estimate %d: %w (%v)", k, err, ferr)
		}
	}
	return b, nil
}

func (b *ctrlBench) startPass() error {
	netw := dist.NewMemNetwork()
	if b.timed != nil {
		b.timed.inner = netw
		netw = b.timed
	}
	conn, err := netw.Join(ctrlDaemon)
	if err != nil {
		return err
	}
	client, err := netw.Join(ctrlClient)
	if err != nil {
		return errors.Join(err, conn.Close())
	}
	// Room for a few surplus decisions, so a daemon that answers one
	// estimate twice is caught by the Seq check instead of blocking.
	b.decided = make(chan ctrl.Decision, 16)
	decided := b.decided
	// No CheckpointPath: on a shared disk the fsync of every commit
	// made the loop's p99 and throughput swing by a third from run to
	// run. The traced run times SaveCheckpoint on its own instead.
	daemon, err := ctrl.NewDaemon(conn, ctrl.DaemonConfig{
		OnDecision: func(_ ctrl.Estimate, d ctrl.Decision) { decided <- d },
	})
	if err != nil {
		return errors.Join(err, conn.Close(), client.Close())
	}
	daemon.Start()
	b.daemon, b.client = daemon, client
	b.got = b.got[:0]
	b.next = 0
	return nil
}

// endPass stops the daemon and compares its decision log with the
// reference replay; each decision that differs fails its op.
func (b *ctrlBench) endPass() error {
	if b.daemon == nil {
		return nil
	}
	err := b.daemon.Stop()
	err = errors.Join(err, b.client.Close())
	b.daemon, b.client = nil, nil
	for k, d := range b.got {
		if d.String() != b.ref.log[d.Seq-1] {
			b.late++
			if b.late <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: decision %d differs from the replay:\n  got  %s\n  want %s\n", k, d, b.ref.log[d.Seq-1])
			}
		}
	}
	return err
}

func (b *ctrlBench) prepare() error {
	if b.daemon != nil && b.next < len(b.stream) {
		return nil
	}
	if err := b.endPass(); err != nil {
		return err
	}
	return b.startPass()
}

func (b *ctrlBench) op() error {
	est := b.stream[b.next]
	b.next++
	t0 := time.Now()
	m, err := ctrl.EncodeMessage(ctrlDaemon, est)
	if b.timed != nil {
		b.encodes = append(b.encodes, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err != nil {
		return err
	}
	if err := b.client.Send(m); err != nil {
		return err
	}
	b.timer.Reset(decideLimit)
	var d ctrl.Decision
	select {
	case d = <-b.decided:
		if !b.timer.Stop() {
			select {
			case <-b.timer.C:
			default:
			}
		}
	case <-b.timer.C:
		return fmt.Errorf("no decision for estimate %d within %v", est.Seq, decideLimit)
	}
	if d.Seq != est.Seq {
		return fmt.Errorf("decision for estimate %d answered estimate %d", d.Seq, est.Seq)
	}
	b.got = append(b.got, d)
	return nil
}

func (b *ctrlBench) finish() (int, error) {
	err := b.endPass()
	return b.late, errors.Join(err, os.RemoveAll(b.dir))
}

func (b *ctrlBench) traced(seconds float64) (map[string]float64, string, samples, error) {
	// The traced phase starts a pass of its own, so every estimate it
	// sends crosses the timing wrapper.
	if err := b.endPass(); err != nil {
		return nil, "", samples{}, err
	}
	b.timed, b.encodes = newTimedNetwork(nil), nil
	s, err := measure(b, seconds)
	if err != nil {
		return nil, "", s, err
	}
	tot := b.timed.totals()

	// Decode, ingest and checkpoint, each timed in isolation on the
	// same inputs the daemon sees.
	msgs := make([]dist.Message, len(b.stream))
	for k, e := range b.stream {
		if msgs[k], err = ctrl.EncodeMessage(ctrlDaemon, e); err != nil {
			return nil, "", s, err
		}
	}
	t0 := time.Now()
	for _, m := range msgs {
		if _, err := ctrl.DecodeEstimate(m); err != nil {
			return nil, "", s, err
		}
	}
	decodeUs := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(msgs))
	r, err := replay(b.stream, true)
	if err != nil {
		return nil, "", s, err
	}
	if err := b.prepare(); err != nil {
		return nil, "", s, err
	}
	ck := b.daemon.Checkpoint()
	path := filepath.Join(b.dir, "probe.json")
	var saves []float64
	for k := 0; k < 50; k++ {
		t0 := time.Now()
		if err := ctrl.SaveCheckpoint(path, ck); err != nil {
			return nil, "", s, err
		}
		saves = append(saves, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := os.Remove(path); err != nil {
		return nil, "", s, err
	}
	// Later passes run untraced again.
	if err := b.endPass(); err != nil {
		return nil, "", s, err
	}
	b.timed = nil

	n := float64(len(b.stream))
	reallocRatio := float64(r.reallocs) / n
	encodeUs := mean(b.encodes)
	ingestUs := (mean(r.holdUs)*float64(len(r.holdUs)) + mean(r.reallocUs)*float64(len(r.reallocUs))) / n
	checkpointUs := mean(saves)
	decideUs := mean(s.lat) * 1e6
	ops := float64(s.attempted)
	parts := encodeUs + decodeUs + ingestUs
	layers := map[string]float64{
		"ctrl.encode_us":          encodeUs,
		"ctrl.decode_us":          decodeUs,
		"ctrl.ingest_hold_us":     mean(r.holdUs),
		"ctrl.ingest_realloc_us":  mean(r.reallocUs),
		"ctrl.checkpoint_us":      checkpointUs,
		"ctrl.realloc_ratio":      reallocRatio,
		"ctrl.daemon_residual_us": decideUs - parts,
		"game.warm_sweeps":        float64(r.warmSweeps),
		"dist.msgs":               float64(tot.msgs) / ops,
		"dist.bytes":              float64(tot.bytes) / ops,
		"dist.send_busy_s":        tot.send.Seconds() / ops,
		"dist.send_ns_per_msg":    float64(tot.send.Nanoseconds()) / float64(tot.msgs),
		"dist.recv_wait_s":        tot.recv.Seconds() / ops,
		"dist.recv_timeouts":      float64(tot.timeouts) / ops,
		"dist.recv_ok_ratio":      float64(tot.recvOK) / float64(tot.recvs),
	}
	budget := fmt.Sprintf("budget ctrl-loop: mean decide %.4g us (measured, %d ops) = encode %.3g [span] + decode %.3g [isolated] + "+
		"ingest %.3g [replay, computed mean of hold %.3g and realloc %.3g at realloc ratio %.4f] = %.4g us explained (%.1f%%) + "+
		"residual %.4g us [daemon loop, mem hop, client wait: %.1f%%]; a checkpoint per commit would add %.4g us [isolated, computed]\n",
		decideUs, len(s.lat), encodeUs, decodeUs, ingestUs, mean(r.holdUs), mean(r.reallocUs), reallocRatio,
		parts, 100*parts/decideUs, decideUs-parts, 100*(decideUs-parts)/decideUs, reallocRatio*checkpointUs)
	return layers, budget, s, nil
}
