package main

import (
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// fakeTransport records which optional methods reach it.
type fakeTransport struct {
	*transport.Inproc
	tracer *obs.Tracer
	health bool
	epoch  uint64
	vec    int
}

func (f *fakeTransport) SetTracer(t *obs.Tracer)         { f.tracer = t }
func (f *fakeTransport) SetHealth(transport.HealthFuncs) { f.health = true }
func (f *fakeTransport) SetEpoch(e uint64)               { f.epoch = e }
func (f *fakeTransport) Occupancy() transport.Occupancy  { return transport.Occupancy{BacklogBytes: 42} }
func (f *fakeTransport) SendVectored(to int, hdr transport.Header, user []byte, segs []datatype.Segment) error {
	f.vec++
	return f.Inproc.SendVectored(to, hdr, user, segs)
}

type fakeNodeMapped struct{ *fakeTransport }

func (f fakeNodeMapped) NodeMap() []int { return []int{0, 0} }

func TestCountedForwardsOptionalInterfaces(t *testing.T) {
	inner := &fakeTransport{Inproc: transport.NewInproc(2)}
	c := newCounted(inner, nil, nil)
	tr := c.Transport()
	tracer := obs.NewTracer(0)
	tr.(interface{ SetTracer(*obs.Tracer) }).SetTracer(tracer)
	tr.(interface{ SetHealth(transport.HealthFuncs) }).SetHealth(transport.HealthFuncs{})
	tr.(interface{ SetEpoch(uint64) }).SetEpoch(7)
	if inner.tracer != tracer || !inner.health || inner.epoch != 7 {
		t.Fatalf("optional setters not forwarded: tracer %v health %v epoch %d", inner.tracer == tracer, inner.health, inner.epoch)
	}
	if o := tr.(transport.OccupancyReporter).Occupancy(); o.BacklogBytes != 42 {
		t.Fatalf("occupancy not forwarded: %+v", o)
	}
	if _, ok := tr.(interface{ NodeMap() []int }); ok {
		t.Fatal("decorator offers NodeMap although the inner transport has none")
	}
	var got []byte
	if err := tr.Start(func(_ int, _ transport.Header, p []byte) { got = p }, nil); err != nil {
		t.Fatal(err)
	}
	user := []byte("abcdef")
	if err := tr.(transport.VectoredSender).SendVectored(1, transport.Header{}, user,
		[]datatype.Segment{{Off: 0, Len: 2}, {Off: 4, Len: 2}}); err != nil {
		t.Fatal(err)
	}
	if inner.vec != 1 || string(got) != "abef" {
		t.Fatalf("vectored send not forwarded: %d calls, delivered %q", inner.vec, got)
	}
	if s := c.snapshot(); s.sendCalls != 1 || s.vecCalls != 1 || s.sendBytes != 4 || s.recvFrames != 1 {
		t.Fatalf("counters %+v, want one vectored send of 4 bytes and one frame", s)
	}

	nm := newCounted(fakeNodeMapped{&fakeTransport{Inproc: transport.NewInproc(2)}}, nil, nil).Transport()
	m, ok := nm.(interface{ NodeMap() []int })
	if !ok || len(m.NodeMap()) != 2 {
		t.Fatal("decorator hides the inner transport's NodeMap")
	}
}

// solveOn runs one solve of p on single-rank worlds that together form one
// mesh, and returns rank 0's history and the summed world stats.
func solveOn(t *testing.T, p problem, worlds []*mpi.World) ([]float64, mpi.Stats) {
	t.Helper()
	hists := make([][]float64, len(worlds))
	err := runRanks(len(worlds), func(r int) error {
		return worlds[r].Run(func(c *mpi.Comm) error {
			s := mg.New(c, []int{p.extent, p.extent, p.extent}, p.levels, p.mode)
			b, x := s.CreateVec(), s.CreateVec()
			fillForcing(s, b, p)
			s.Solve(b, x, p.rtol, p.maxCycles)
			hists[r] = append([]float64(nil), s.History...)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var st mpi.Stats
	for _, w := range worlds {
		st.Add(w.TotalStats())
	}
	return hists[0], st
}

// TestCountedTCPMatchesBare is the decorator's self-test on the wire path:
// a decorated and a bare 2-rank TCP solve give the same residual history,
// the same fused (zero-copy) sends and the same TCP frame counts.
func TestCountedTCPMatchesBare(t *testing.T) {
	p := problem{extent: 64, levels: 3, rtol: 1e-6, maxCycles: 30, mode: petsc.ScatterDatatype, scale: 1}
	run := func(decorate bool) ([]float64, mpi.Stats, transport.TCPStats) {
		decos, tcps, err := tcpMesh(2, 0x7e57, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		worlds := make([]*mpi.World, 2)
		err = runRanks(2, func(r int) error {
			var tr transport.Transport = tcps[r]
			if decorate {
				tr = decos[r].Transport()
			}
			w, err := mpi.NewWorldTransport(tr, simnet.Uniform(2, simnet.IBDDR()), mpi.Compiled())
			worlds[r] = w
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		h, st := solveOn(t, p, worlds)
		var ts transport.TCPStats
		for r, w := range worlds {
			w.Close()
			ts = addTCP(ts, tcps[r].Stats())
		}
		if decorate {
			var dc counters
			for _, d := range decos {
				dc = dc.add(d.snapshot())
			}
			// The runtime's goodbye frames at the end of a run are sends
			// too, so the decorator sees at least the world's messages.
			if dc.sendCalls < st.MsgsSent || dc.vecCalls != st.FusedSends {
				t.Errorf("decorator counted %d sends (%d vectored), world %d (%d fused)",
					dc.sendCalls, dc.vecCalls, st.MsgsSent, st.FusedSends)
			}
		}
		return h, st, ts
	}
	bh, bs, bt := run(false)
	dh, ds, dt := run(true)
	if len(bh) == 0 || !sameHistory(dh, bh) {
		t.Fatalf("decorated history %v, bare %v", dh, bh)
	}
	if bs.FusedSends == 0 {
		t.Fatal("the solve fused no sends, so the vectored path went untested")
	}
	// Frames received are not compared: whether the peer's goodbye frame
	// is read before the endpoint closes is a teardown race.
	if ds.FusedSends != bs.FusedSends || dt.VectoredSends != bt.VectoredSends || dt.FramesSent != bt.FramesSent {
		t.Fatalf("decorated fused %d vectored %d frames %d; bare fused %d vectored %d frames %d",
			ds.FusedSends, dt.VectoredSends, dt.FramesSent, bs.FusedSends, bt.VectoredSends, bt.FramesSent)
	}
}

// TestCountedInprocMatchesBare checks the virtual-clock path: decorating
// the in-process transport changes neither the history nor the virtual
// time, so the deterministic metrics do not depend on the decorator.
func TestCountedInprocMatchesBare(t *testing.T) {
	p := problem{extent: 16, levels: 2, rtol: 1e-6, maxCycles: 20, mode: petsc.ScatterDatatype, scale: 1}
	bare := mpi.NewWorld(simnet.Paper(4), mpi.Optimized())
	bh, bv, err := referenceSolve(bare, p)
	if err != nil {
		t.Fatal(err)
	}
	d := newCounted(transport.NewInproc(4), nil, nil)
	w, err := mpi.NewWorldTransport(d.Transport(), simnet.Paper(4), mpi.Optimized())
	if err != nil {
		t.Fatal(err)
	}
	dh, dv, err := referenceSolve(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHistory(dh, bh) || dv != bv {
		t.Fatalf("decorated history %v virt %v; bare %v virt %v", dh, dv, bh, bv)
	}
	if d.snapshot().sendCalls == 0 {
		t.Fatal("decorator saw no sends")
	}
}
