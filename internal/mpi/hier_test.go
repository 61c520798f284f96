package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
)

func TestTopologyBasics(t *testing.T) {
	topo, err := NewTopology([]int{0, 0, 1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 3 || topo.Size() != 6 {
		t.Fatalf("nodes %d size %d", topo.Nodes(), topo.Size())
	}
	if topo.Leader(0) != 0 || topo.Leader(1) != 2 || topo.Leader(2) != 5 {
		t.Fatalf("leaders %v", topo.Leaders())
	}
	if !topo.IsLeader(2) || topo.IsLeader(3) || topo.LeaderOf(4) != 2 {
		t.Fatal("leader roles wrong")
	}
	if topo.LeaderIndex(2) != 1 || topo.LeaderIndex(3) != -1 {
		t.Fatal("leader index wrong")
	}
	if got := topo.NodeRanks(1); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("node 1 ranks %v", got)
	}

	// Interleaved assignment: leaders are still the lowest rank per node.
	topo, err = NewTopology([]int{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Leader(0) != 1 || topo.Leader(1) != 0 {
		t.Fatalf("interleaved leaders %v", topo.Leaders())
	}

	for _, bad := range [][]int{{}, {0, 2}, {-1, 0}, {5, 5}} {
		if _, err := NewTopology(bad); err == nil {
			t.Fatalf("topology %v accepted", bad)
		}
	}
}

// runAGV executes one Allgatherv on a fresh world and returns each rank's
// receive buffer plus the world (for trace inspection).
func runAGV(t *testing.T, cl *simnet.Cluster, cfg Config, counts []int) ([][]byte, *World) {
	t.Helper()
	n := cl.Size()
	if len(counts) != n {
		t.Fatalf("counts for %d ranks, cluster has %d", len(counts), n)
	}
	displs, total := prefix(counts)
	_ = displs
	w := NewWorld(cl, cfg)
	w.Tracer().Enable()
	outs := make([][]byte, n)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		data := make([]byte, counts[me])
		for i := range data {
			data[i] = byte(me*31 + i)
		}
		recv := make([]byte, total)
		c.Allgatherv(data, counts, recv)
		outs[me] = recv
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, w
}

// hierSpans counts allgatherv/alltoallw spans that took the hierarchical
// path.
func hierSpans(w *World, kind string) int {
	n := 0
	for _, s := range w.Tracer().Spans() {
		if s.Kind != kind {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "hier" && a.Val == "true" {
				n++
			}
		}
	}
	return n
}

// TestHierAllgathervMatchesFlat checks the three-phase leader gather is
// bitwise-identical to the flat reference across count shapes, node
// geometries (power-of-two and odd leader counts) and policies.
func TestHierAllgathervMatchesFlat(t *testing.T) {
	cases := []struct {
		name           string
		nodes, perNode int
		counts         []int
	}{
		{"outlier-2x4", 2, 4, []int{5, 1, 0, 7, 40960, 3, 9, 2}},
		{"uniform-2x4", 2, 4, []int{512, 512, 512, 512, 512, 512, 512, 512}},
		{"odd-nodes-3x2", 3, 2, []int{64, 0, 1, 100000, 9, 33}},
		{"lone-rank-node", 3, 1, nil}, // filled below: 3 singleton nodes gate off
		{"big-ring-2x2", 2, 2, []int{65536, 65536, 65536, 65536}},
	}
	cases[3].counts = []int{17, 4, 9}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []Config{Compiled(), {Engine: datatype.CompiledPlans, Allgatherv: AGAuto, Alltoallw: ATBinned}} {
				n := tc.nodes * tc.perNode
				flat, _ := runAGV(t, simnet.Uniform(n, simnet.IBDDR()), cfg, tc.counts)
				hier, hw := runAGV(t, simnet.TwoLevel(tc.nodes, tc.perNode, simnet.IBDDR(), simnet.ShmIntra()), cfg, tc.counts)
				for r := range flat {
					if !bytes.Equal(flat[r], hier[r]) {
						t.Fatalf("policy %v rank %d: hierarchical result diverges from flat", cfg.Allgatherv, r)
					}
				}
				wantHier := tc.perNode > 1
				if got := hierSpans(hw, "allgatherv") > 0; got != wantHier {
					t.Fatalf("policy %v: hierarchical path taken=%v, want %v", cfg.Allgatherv, got, wantHier)
				}
			}
		})
	}
}

// TestHierAllgathervForcedAlgoStaysFlat pins the forced algorithms to the
// flat pattern even on a topology-bearing world.
func TestHierAllgathervForcedAlgoStaysFlat(t *testing.T) {
	counts := []int{8, 16, 24, 32}
	cfg := Compiled()
	cfg.Allgatherv = AGRing
	outs, w := runAGV(t, simnet.TwoLevel(2, 2, simnet.IBDDR(), simnet.ShmIntra()), cfg, counts)
	if hierSpans(w, "allgatherv") != 0 {
		t.Fatal("forced ring algorithm took the hierarchical path")
	}
	flat, _ := runAGV(t, simnet.Uniform(4, simnet.IBDDR()), cfg, counts)
	for r := range outs {
		if !bytes.Equal(outs[r], flat[r]) {
			t.Fatalf("rank %d diverged", r)
		}
	}
}

// a2awCase builds a deterministic, partly noncontiguous alltoallw pattern:
// pair volumes vary (including zeros), send and receive layouts disagree
// on contiguity for some pairs, and every rank's region sits in a 64-byte
// slot per peer.
const a2awSlot = 64

func a2awBytes(i, j int) int { return ((i*3 + j*5 + 1) % 4) * 8 }

func a2awSpec(b, displ int, vec bool) TypeSpec {
	if b == 0 {
		return TypeSpec{}
	}
	if vec {
		return TypeSpec{Type: datatype.Vector(b/8, 8, 16, datatype.Byte), Count: 1, Displ: displ}
	}
	return TypeSpec{Type: Bytes(b), Count: 1, Displ: displ}
}

// runA2AW executes one Alltoallw on a fresh world and returns each rank's
// receive buffer plus the world.
func runA2AW(t *testing.T, cl *simnet.Cluster, cfg Config) ([][]byte, *World) {
	t.Helper()
	n := cl.Size()
	w := NewWorld(cl, cfg)
	w.Tracer().Enable()
	outs := make([][]byte, n)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		sendbuf := make([]byte, n*a2awSlot)
		for k := range sendbuf {
			sendbuf[k] = byte(me*131 + k)
		}
		recvbuf := make([]byte, n*a2awSlot)
		sends := make([]TypeSpec, n)
		recvs := make([]TypeSpec, n)
		for j := 0; j < n; j++ {
			sends[j] = a2awSpec(a2awBytes(me, j), j*a2awSlot, (me+j)%2 == 1)
			recvs[j] = a2awSpec(a2awBytes(j, me), j*a2awSlot, (me*7+j)%2 == 1)
		}
		c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		outs[me] = recvbuf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, w
}

// TestHierAlltoallwMatchesFlat checks the leader-aggregated exchange
// delivers bytes identical to both the flat binned path and the baseline
// round-robin ground truth.
func TestHierAlltoallwMatchesFlat(t *testing.T) {
	for _, geo := range []struct{ nodes, perNode int }{{2, 3}, {3, 2}, {2, 2}} {
		n := geo.nodes * geo.perNode

		truth := Compiled()
		truth.Alltoallw = ATRoundRobin
		want, _ := runA2AW(t, simnet.Uniform(n, simnet.IBDDR()), truth)

		flat, fw := runA2AW(t, simnet.Uniform(n, simnet.IBDDR()), Compiled())
		if hierSpans(fw, "alltoallw") != 0 {
			t.Fatal("flat cluster took the hierarchical path")
		}
		hier, hw := runA2AW(t, simnet.TwoLevel(geo.nodes, geo.perNode, simnet.IBDDR(), simnet.ShmIntra()), Compiled())
		if hierSpans(hw, "alltoallw") != n {
			t.Fatalf("%dx%d: want %d hierarchical spans, got %d", geo.nodes, geo.perNode, n, hierSpans(hw, "alltoallw"))
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(want[r], flat[r]) {
				t.Fatalf("%dx%d rank %d: binned diverges from round-robin", geo.nodes, geo.perNode, r)
			}
			if !bytes.Equal(want[r], hier[r]) {
				t.Fatalf("%dx%d rank %d: hierarchical diverges from round-robin", geo.nodes, geo.perNode, r)
			}
		}
	}
}

// TestHierGateOffOnSubComm derives a sub-communicator on a two-level
// world and checks collectives on it still complete correctly (the
// hierarchical gate requires the world communicator).
func TestHierGateOffOnSubComm(t *testing.T) {
	cl := simnet.TwoLevel(2, 2, simnet.IBDDR(), simnet.ShmIntra())
	w := NewWorld(cl, Compiled())
	err := w.Run(func(c *Comm) error {
		sub := c.Split(c.Rank()%2, c.Rank())
		counts := []int{3, 5}
		recv := make([]byte, 8)
		data := make([]byte, counts[sub.Rank()])
		for i := range data {
			data[i] = byte(c.Rank()*17 + i)
		}
		sub.Allgatherv(data, counts, recv)
		// Partner is the other rank of my parity class.
		partner := (c.Rank() + 2) % 4
		off, ln := 0, counts[0]
		if sub.Rank() == 0 {
			off, ln = counts[0], counts[1]
		}
		for i := 0; i < ln; i++ {
			if recv[off+i] != byte(partner*17+i) {
				return fmt.Errorf("rank %d: sub-comm gather corrupt at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHierGateOffAfterRecovery: once a recovery has committed (epoch > 0)
// every rank runs the flat algorithms.  A respawned replacement never saw
// the revocations that turn the survivors flat, so the epoch is the gate
// both sides share; without it the healed world splits across the two
// message patterns and deadlocks.
func TestHierGateOffAfterRecovery(t *testing.T) {
	counts := []int{3, 5, 2, 7}
	for _, epoch := range []uint64{0, 1} {
		cl := simnet.TwoLevel(2, 2, simnet.IBDDR(), simnet.ShmIntra())
		w := NewWorld(cl, Compiled())
		w.epoch.Store(epoch)
		w.Tracer().Enable()
		err := w.Run(func(c *Comm) error {
			data := make([]byte, counts[c.Rank()])
			c.Allgatherv(data, counts, make([]byte, 17))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := hierSpans(w, "allgatherv"); (got > 0) != (epoch == 0) {
			t.Fatalf("epoch %d: %d hierarchical allgatherv spans", epoch, got)
		}
	}
}

// TestHierTwoLevelClockAdvantage checks the virtual-clock payoff the
// guideline asserts: on a two-level cluster — identical wires both runs —
// the hierarchical gather completes no later than the flat baseline rule.
// The regime is the paper's pathology: a nonuniform set whose total
// crosses the ring threshold, so the flat AGAuto rule (which chooses
// purely by total size) serializes the outlier block through N-1 hops,
// while the hierarchical path rings only the leaders and keeps the
// fan-out on the node's fast wires.
func TestHierTwoLevelClockAdvantage(t *testing.T) {
	counts := make([]int, 8)
	for i := range counts {
		counts[i] = 2048
	}
	counts[3] = 128 * 1024 // the nonuniform outlier
	_, total := prefix(counts)
	cfg := Compiled()
	cfg.Allgatherv = AGAuto // the baseline MPICH2 rule on both sides

	run := func(flat bool) float64 {
		w := NewWorld(simnet.TwoLevel(2, 4, simnet.IBDDR(), simnet.ShmIntra()), cfg)
		if flat {
			// Same two-level wires, but the runtime is blind to them.
			if err := w.SetTopology(nil); err != nil {
				t.Fatal(err)
			}
		}
		err := w.Run(func(c *Comm) error {
			data := make([]byte, counts[c.Rank()])
			recv := make([]byte, total)
			c.Allgatherv(data, counts, recv)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	hierClock, flatClock := run(false), run(true)
	if hierClock > flatClock {
		t.Fatalf("hierarchical %g s slower than flat %g s on the same wires", hierClock, flatClock)
	}
}
