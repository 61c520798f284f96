package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// Shape of one coll-1024 round.
const (
	collRanks      = 1024
	collOutlier    = 32 * 1024 // bytes rank 0 contributes to the Allgatherv (Fig. 14b)
	collSmall      = 8         // bytes every other rank contributes
	collRingDouble = 100       // doubles each rank sends to each ring neighbour (Fig. 15)
	collRank0Dbl   = 2         // rank 0 sends almost nothing (the ex49 shape)
	collWarmups    = 4
	collSetups     = 5
)

// collPayload is the seeded byte source every round's contents are cut
// from: the slice for (round, src, dst) starts at a hashed offset, so each
// receive buffer can be checked byte for byte without a reference run.
type collPayload struct {
	seed int64
	pool []byte
}

func newCollPayload(seed int64) *collPayload {
	pool := make([]byte, 3*collOutlier)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &collPayload{seed: seed, pool: pool}
}

// bytes returns the n bytes src sends to dst (-1 for the Allgatherv) in
// round k.
func (p *collPayload) bytes(k, src, dst, n int) []byte {
	h := uint64(p.seed) ^ uint64(k)*0x9e3779b97f4a7c15 ^ uint64(src)*0xbf58476d1ce4e5b9 ^ uint64(dst+1)*0x94d049bb133111eb
	h ^= h >> 31
	off := int(h % uint64(len(p.pool)-n))
	return p.pool[off : off+n]
}

func ringDoubles(r int) int {
	if r == 0 {
		return collRank0Dbl
	}
	return collRingDouble
}

// collSession is the state the 1024 ranks of the kept world share.  Rank 0
// owns the timing fields; the rest is atomic.
type collSession struct {
	cfg  runConfig
	pay  *collPayload
	deco *counted
	op   *atomic.Int64

	agvVirt, a2awVirt float64 // virtual seconds per call, rank maximum
	untraced, traced  []float64
	agvMs, a2awMs     []float64
	allocB, gcs       []float64
	loop              [2][]mpi.Stats // per rank, around the timed rounds
	decoLoop          [2]counters
	rounds            atomic.Int64
	mismatches        atomic.Int64
}

// runColl is 1024 ranks on a uniform virtual cluster, compiled arm, with no
// solver: each round is one nonuniform Allgatherv (one 32 KiB outlier) and
// one ring-neighbour Alltoallw in which rank 0 sends 2 doubles instead of
// 100.  Collective algorithms, outlier selection and per-rank world state
// do the work; the world's O(N^2) memory shows in heap_mb.
func runColl(cfg runConfig) (*report, error) {
	var op atomic.Int64
	var setups, heaps []float64
	var w *mpi.World
	var deco *counted
	for i := 0; i < collSetups; i++ {
		w, deco = nil, nil
		heap0 := liveHeap()
		t0 := time.Now()
		deco = newCounted(transport.NewInproc(collRanks), cfg.spans, &op)
		var err error
		w, err = mpi.NewWorldTransport(deco.Transport(), simnet.Uniform(collRanks, simnet.IBDDR()), mpi.Compiled())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, (float64(liveHeap())-float64(heap0))/1e6)
	}
	s := &collSession{cfg: cfg, pay: newCollPayload(cfg.seed), deco: deco, op: &op}
	s.loop = [2][]mpi.Stats{make([]mpi.Stats, collRanks), make([]mpi.Stats, collRanks)}
	pool0 := datatype.PoolOutstandingBytes()
	if err := w.Run(s.body); err != nil {
		return nil, err
	}
	rep := newReport()
	rounds := int(s.rounds.Load())
	rep.attempted = rounds
	rep.mismatches = int(s.mismatches.Load())
	rep.failed = min(rep.mismatches, rounds)

	base := s.untraced
	rep.setE2E("setup_s", median(setups), "s")
	rep.setE2E("op_s", median(base), "s")
	rep.setE2E("ops_per_s", float64(len(base))/sum(base), "1/s")
	rep.setE2E("alloc_mb", median(s.allocB)/1e6, "MB")
	rep.setE2E("heap_mb", median(heaps), "MB")
	rep.setE2E("virt_ms", (s.agvVirt+s.a2awVirt)*1e3, "virt_ms")

	n := float64(len(s.untraced) + len(s.traced))
	layerTail(rep, s.untraced, s.traced)
	rep.setLayer("mpi.agv_ms", median(s.agvMs), "ms")
	rep.setLayer("mpi.a2aw_ms", median(s.a2awMs), "ms")
	rep.setLayer("mpi.agv_virt_us", s.agvVirt*1e6, "virt_us")
	rep.setLayer("mpi.a2aw_virt_us", s.a2awVirt*1e6, "virt_us")
	rep.setLayer("mpi.world_mb", median(heaps), "MB")
	var loop mpiCounts
	for r := range s.loop[0] {
		loop = loop.add(countsOf(s.loop[1][r]).sub(countsOf(s.loop[0][r])))
	}
	rep.setLayer("mpi.msgs", float64(loop.msgs)/n, "count")
	rep.setLayer("mpi.bytes", float64(loop.bytes)/n, "B")
	rep.setLayer("datatype.packed_bytes", float64(loop.packed)/n, "B")
	rep.setLayer("datatype.direct_bytes", float64(loop.direct)/n, "B")
	if cfg.trace {
		rep.setLayer("mpi.self_bytes_frac", selfBytesFrac(w.CommMatrix()), "ratio")
	}
	if len(s.traced) > 0 && len(s.untraced) > 0 {
		rep.setLayer("obs.trace_overhead", median(s.traced)/median(s.untraced), "ratio")
	}
	pc := datatype.PlanCacheStats()
	rep.setLayer("datatype.plan_hits", float64(pc.Hits), "count")
	rep.setLayer("datatype.plan_misses", float64(pc.Misses), "count")
	rep.setLayer("datatype.plan_hit_ratio", ratio(pc.Hits, pc.Hits+pc.Misses), "ratio")
	rep.setLayer("datatype.pool_outstanding_delta_bytes", float64(datatype.PoolOutstandingBytes()-pool0), "B")
	layerTransport(rep, s.decoLoop[1].sub(s.decoLoop[0]), n, len(s.traced), []*counted{s.deco})
	rep.setLayer("go.gc_cycles", median(s.gcs), "count")
	return rep, w.Close()
}

func (s *collSession) body(c *mpi.Comm) error {
	me, n := c.Rank(), c.Size()
	counts := make([]int, n)
	displs := make([]int, n)
	total := 0
	for q := range counts {
		counts[q] = collSmall
		if q == 0 {
			counts[q] = collOutlier
		}
		displs[q] = total
		total += counts[q]
	}
	mine := make([]byte, counts[me])
	recv := make([]byte, total)

	succ, pred := (me+1)%n, (me-1+n)%n
	toSucc, toPred := 8*ringDoubles(me), 8*ringDoubles(me)
	fromPred, fromSucc := 8*ringDoubles(pred), 8*ringDoubles(succ)
	sends := make([]mpi.TypeSpec, n)
	recvs := make([]mpi.TypeSpec, n)
	sends[succ] = mpi.TypeSpec{Type: datatype.Contiguous(toSucc/8, datatype.Double), Count: 1, Displ: 0}
	sends[pred] = mpi.TypeSpec{Type: datatype.Contiguous(toPred/8, datatype.Double), Count: 1, Displ: toSucc}
	recvs[pred] = mpi.TypeSpec{Type: datatype.Contiguous(fromPred/8, datatype.Double), Count: 1, Displ: 0}
	recvs[succ] = mpi.TypeSpec{Type: datatype.Contiguous(fromSucc/8, datatype.Double), Count: 1, Displ: fromPred}
	sendbuf := make([]byte, toSucc+toPred)
	recvbuf := make([]byte, fromPred+fromSucc)

	fill := func(k int) {
		copy(mine, s.pay.bytes(k, me, -1, len(mine)))
		copy(sendbuf[:toSucc], s.pay.bytes(k, me, succ, toSucc))
		copy(sendbuf[toSucc:], s.pay.bytes(k, me, pred, toPred))
	}
	check := func(k int) {
		ok := bytes.Equal(recvbuf[:fromPred], s.pay.bytes(k, pred, me, fromPred)) &&
			bytes.Equal(recvbuf[fromPred:], s.pay.bytes(k, succ, me, fromSucc))
		for q := 0; ok && q < n; q++ {
			ok = bytes.Equal(recv[displs[q]:displs[q]+counts[q]], s.pay.bytes(k, q, -1, counts[q]))
		}
		if me == 0 {
			s.rounds.Add(1)
		}
		if !ok {
			s.mismatches.Add(1)
		}
	}

	// Warm-up rounds on the fresh world.  All but the first (which pays
	// one-time costs) give the virtual agv/a2aw figures, each collective
	// timed from a barrier so neither absorbs the other's skew.  They are
	// deterministic because the world ran nothing else before them.
	k := 0
	var agv, a2aw float64
	for ; k < collWarmups; k++ {
		fill(k)
		c.Barrier()
		v0 := c.Clock()
		c.Allgatherv(mine, counts, recv)
		v1 := c.Clock()
		c.Barrier()
		v2 := c.Clock()
		c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		if k > 0 {
			agv += v1 - v0
			a2aw += c.Clock() - v2
		}
		check(k)
	}
	agv = c.AllreduceScalar(agv, mpi.OpMax) / (collWarmups - 1)
	a2aw = c.AllreduceScalar(a2aw, mpi.OpMax) / (collWarmups - 1)
	if me == 0 {
		s.agvVirt, s.a2awVirt = agv, a2aw
	}

	var start time.Time
	var ms0, ms1 runtime.MemStats
	s.loop[0][me] = c.World().Stats(me)
	c.Barrier()
	if me == 0 {
		s.decoLoop[0] = s.deco.snapshot()
		start = time.Now()
	}
	for ; ; k++ {
		d := opStop
		if me == 0 {
			el := time.Since(start)
			switch {
			case el >= s.cfg.window:
			case s.cfg.trace && el >= s.cfg.window/2:
				d = opTraced
				s.deco.timing.Store(true)
			default:
				d = opUntraced
			}
		}
		d = c.Bcast(0, []byte{d})[0]
		if d == opStop {
			break
		}
		fill(k)
		c.Barrier()
		var t0, tm time.Time
		if me == 0 {
			runtime.ReadMemStats(&ms0)
			s.op.Add(1)
			t0 = time.Now()
		}
		c.Allgatherv(mine, counts, recv)
		if me == 0 {
			tm = time.Now()
		}
		c.Alltoallw(sendbuf, sends, recvbuf, recvs)
		c.Barrier()
		if me == 0 {
			t1 := time.Now()
			runtime.ReadMemStats(&ms1)
			s.allocB = append(s.allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			s.gcs = append(s.gcs, float64(ms1.NumGC-ms0.NumGC))
			if d == opTraced {
				s.traced = append(s.traced, t1.Sub(t0).Seconds())
				s.agvMs = append(s.agvMs, tm.Sub(t0).Seconds()*1e3)
				s.a2awMs = append(s.a2awMs, t1.Sub(tm).Seconds()*1e3)
				op := s.op.Load()
				s.cfg.spans.add("round", op, t0, t1)
				s.cfg.spans.add("mpi.allgatherv", op, t0, tm)
				s.cfg.spans.add("mpi.alltoallw", op, tm, t1)
			} else {
				s.untraced = append(s.untraced, t1.Sub(t0).Seconds())
			}
		}
		check(k)
	}
	c.Barrier()
	s.loop[1][me] = c.World().Stats(me)
	if me == 0 {
		s.deco.timing.Store(false)
		s.decoLoop[1] = s.deco.snapshot()
	}
	c.Barrier()
	return nil
}
