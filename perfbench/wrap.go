package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gtlb/internal/dist"
)

// timedNetwork wraps a dist.Network for the traced run: it counts the
// messages and payload bytes every endpoint sends, the time spent
// inside Send/SendBatch, and the time blocked in Recv/RecvTimeout. It
// forwards batches to the inner endpoint's own batch path, as
// dist.CountingNetwork does, so the wrapped program still coalesces
// TCP writes. Untraced runs use no wrapper at all.
type timedNetwork struct {
	inner dist.Network

	mu    sync.Mutex
	conns []*timedConn
}

func newTimedNetwork(inner dist.Network) *timedNetwork { return &timedNetwork{inner: inner} }

func (n *timedNetwork) Join(name string) (dist.Conn, error) {
	c, err := n.inner.Join(name)
	if err != nil {
		return nil, err
	}
	tc := &timedConn{Conn: c}
	n.mu.Lock()
	n.conns = append(n.conns, tc)
	n.mu.Unlock()
	return tc, nil
}

// timedTotals sums the counters of every endpoint joined so far.
type timedTotals struct {
	msgs, bytes, recvs, recvOK, timeouts int64
	send, recv                           time.Duration
}

func (n *timedNetwork) totals() timedTotals {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t timedTotals
	for _, c := range n.conns {
		t.msgs += c.msgs.Load()
		t.bytes += c.bytes.Load()
		t.recvs += c.recvs.Load()
		t.recvOK += c.recvOK.Load()
		t.timeouts += c.timeouts.Load()
		t.send += time.Duration(c.sendNs.Load())
		t.recv += time.Duration(c.recvNs.Load())
	}
	return t
}

// timedConn keeps its own counters, so endpoints on different CPUs do
// not contend for one cache line; Send may be called concurrently,
// hence the atomics.
type timedConn struct {
	dist.Conn

	msgs, bytes, sendNs             atomic.Int64
	recvs, recvOK, timeouts, recvNs atomic.Int64
}

func (c *timedConn) Send(m dist.Message) error {
	c.msgs.Add(1)
	c.bytes.Add(int64(len(m.Data)))
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.sendNs.Add(int64(time.Since(t0)))
	return err
}

func (c *timedConn) SendBatch(ms []dist.Message) error {
	c.msgs.Add(int64(len(ms)))
	var b int64
	for i := range ms {
		b += int64(len(ms[i].Data))
	}
	c.bytes.Add(b)
	t0 := time.Now()
	err := dist.SendAll(c.Conn, ms)
	c.sendNs.Add(int64(time.Since(t0)))
	return err
}

func (c *timedConn) Recv() (dist.Message, error) {
	t0 := time.Now()
	m, err := c.Conn.Recv()
	c.received(t0, err)
	return m, err
}

func (c *timedConn) RecvTimeout(d time.Duration) (dist.Message, error) {
	t0 := time.Now()
	m, err := c.Conn.RecvTimeout(d)
	c.received(t0, err)
	return m, err
}

func (c *timedConn) received(t0 time.Time, err error) {
	c.recvNs.Add(int64(time.Since(t0)))
	c.recvs.Add(1)
	switch {
	case err == nil:
		c.recvOK.Add(1)
	case errors.Is(err, dist.ErrTimeout):
		c.timeouts.Add(1)
	}
}
