package main

import (
	"sync/atomic"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/transport"
)

// vecTransport is a transport with the zero-copy extension.  Every
// transport the benchmark wraps (in-process and TCP) has it, and requiring
// it keeps the decorator from offering a vectored path the inner transport
// lacks.
type vecTransport interface {
	transport.Transport
	transport.VectoredSender
}

// counted decorates a transport with send/receive counters and, while
// timing is on, per-send latency and spans.  It forwards every optional
// interface that mpi.NewWorldTransport and transport.NewMux look for, so a
// world or mux built on it behaves exactly as on the bare transport: the
// decorator only observes.
type counted struct {
	inner vecTransport

	sendCalls  atomic.Int64 // Send and SendVectored calls
	vecCalls   atomic.Int64 // SendVectored calls
	sendBytes  atomic.Int64 // payload bytes handed to the transport
	recvFrames atomic.Int64 // frames delivered to the handler above
	busyNs     atomic.Int64 // time spent inside sends while timing

	timing atomic.Bool
	lat    latencyHist
	spans  *spanLog
	op     *atomic.Int64 // current operation id, stamped on spans
}

// newCounted wraps tr.  spans and op may be nil; they are used only while
// timing is on.
func newCounted(tr vecTransport, spans *spanLog, op *atomic.Int64) *counted {
	return &counted{inner: tr, spans: spans, op: op}
}

// Transport returns the decorated transport to hand to the program.  The
// node map is the one optional method whose mere presence changes behaviour
// (the world adopts it as its topology), so it is offered only when the
// inner transport has it.
func (c *counted) Transport() transport.Transport {
	if nm, ok := c.inner.(interface{ NodeMap() []int }); ok {
		return &countedNodeMap{c, nm}
	}
	return c
}

type countedNodeMap struct {
	*counted
	nm interface{ NodeMap() []int }
}

func (c *countedNodeMap) NodeMap() []int { return c.nm.NodeMap() }

// counters is a snapshot of the decorator's counts.
type counters struct {
	sendCalls, vecCalls, sendBytes, recvFrames, busyNs int64
}

func (c *counted) snapshot() counters {
	return counters{c.sendCalls.Load(), c.vecCalls.Load(), c.sendBytes.Load(),
		c.recvFrames.Load(), c.busyNs.Load()}
}

func (a counters) add(b counters) counters {
	return counters{a.sendCalls + b.sendCalls, a.vecCalls + b.vecCalls, a.sendBytes + b.sendBytes,
		a.recvFrames + b.recvFrames, a.busyNs + b.busyNs}
}

func (a counters) sub(b counters) counters {
	return counters{a.sendCalls - b.sendCalls, a.vecCalls - b.vecCalls, a.sendBytes - b.sendBytes,
		a.recvFrames - b.recvFrames, a.busyNs - b.busyNs}
}

func (c *counted) Size() int        { return c.inner.Size() }
func (c *counted) Local(r int) bool { return c.inner.Local(r) }
func (c *counted) Wallclock() bool  { return c.inner.Wallclock() }
func (c *counted) Close() error     { return c.inner.Close() }

func (c *counted) Start(deliver transport.Handler, down transport.DownFunc) error {
	return c.inner.Start(func(to int, hdr transport.Header, payload []byte) {
		c.recvFrames.Add(1)
		deliver(to, hdr, payload)
	}, down)
}

func (c *counted) Send(to int, hdr transport.Header, payload []byte) error {
	c.sendCalls.Add(1)
	c.sendBytes.Add(int64(len(payload)))
	if !c.timing.Load() {
		return c.inner.Send(to, hdr, payload)
	}
	t0 := time.Now()
	err := c.inner.Send(to, hdr, payload)
	c.timed("send", t0)
	return err
}

func (c *counted) SendVectored(to int, hdr transport.Header, user []byte, segs []datatype.Segment) error {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	c.sendCalls.Add(1)
	c.vecCalls.Add(1)
	c.sendBytes.Add(int64(n))
	if !c.timing.Load() {
		return c.inner.SendVectored(to, hdr, user, segs)
	}
	t0 := time.Now()
	err := c.inner.SendVectored(to, hdr, user, segs)
	c.timed("send_vectored", t0)
	return err
}

func (c *counted) timed(name string, t0 time.Time) {
	t1 := time.Now()
	d := t1.Sub(t0).Nanoseconds()
	c.busyNs.Add(d)
	c.lat.record(d)
	if c.spans != nil {
		op := int64(0)
		if c.op != nil {
			op = c.op.Load()
		}
		c.spans.add("transport."+name, op, t0, t1)
	}
}

// The optional interfaces below are forwarded when the inner transport has
// them.  Where it does not, the no-op or zero value is exactly what the
// caller does when the assertion fails, so offering them is harmless.

func (c *counted) SetTracer(tr *obs.Tracer) {
	if t, ok := c.inner.(interface{ SetTracer(*obs.Tracer) }); ok {
		t.SetTracer(tr)
	}
}

func (c *counted) SetHealth(h transport.HealthFuncs) {
	if t, ok := c.inner.(interface{ SetHealth(transport.HealthFuncs) }); ok {
		t.SetHealth(h)
	}
}

func (c *counted) SetEpoch(e uint64) {
	if t, ok := c.inner.(interface{ SetEpoch(uint64) }); ok {
		t.SetEpoch(e)
	}
}

func (c *counted) Occupancy() transport.Occupancy {
	if t, ok := c.inner.(transport.OccupancyReporter); ok {
		return t.Occupancy()
	}
	return transport.Occupancy{}
}
