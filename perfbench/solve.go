package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/dmda"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/transport"
)

// problem is one multigrid solve: the Fig. 17 Laplacian with separable
// forcing, as internal/bench runs it.
type problem struct {
	extent, levels, maxCycles int
	rtol                      float64
	mode                      petsc.ScatterMode
	// scale multiplies the forcing.  It is a power of two drawn from the
	// seed: every input differs between seeds, while the solve's relative
	// residuals, cycle count and message sizes are exactly those of the
	// unscaled problem (scaling by 2^k is exact in floating point), so the
	// deterministic metrics stay identical across seeds.
	scale float64
}

// forcingScale maps a seed to 2^k, k in [-4, 4].
func forcingScale(seed int64) float64 {
	return math.Ldexp(1, int((seed%9+9)%9)-4)
}

// fillForcing sets b to scale·x·y·z at the cell centres of the finest grid,
// the product formed in the same order as internal/bench forms it.
func fillForcing(s *mg.Solver, b *petsc.Vec, p problem) {
	own := s.DA(0).OwnedBox()
	ba := b.Array()
	idx := 0
	n := float64(p.extent)
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				x := (float64(i) + 0.5) / n
				y := (float64(j) + 0.5) / n
				z := (float64(k) + 0.5) / n
				ba[idx] = p.scale * (x * y * z)
				idx++
			}
		}
	}
}

// sameHistory reports whether two residual histories are bitwise equal.
func sameHistory(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// referenceSolve runs p once on w, untimed, and returns rank 0's residual
// history and the rank-maximum virtual solve time.
func referenceSolve(w *mpi.World, p problem) ([]float64, float64, error) {
	var hist []float64
	var virt float64
	err := w.Run(func(c *mpi.Comm) error {
		s := mg.New(c, []int{p.extent, p.extent, p.extent}, p.levels, p.mode)
		b, x := s.CreateVec(), s.CreateVec()
		fillForcing(s, b, p)
		c.Barrier()
		t0 := c.Clock()
		s.Solve(b, x, p.rtol, p.maxCycles)
		v := c.AllreduceScalar(c.Clock()-t0, mpi.OpMax)
		if c.Rank() == 0 {
			hist = append([]float64(nil), s.History...)
			virt = v
		}
		return nil
	})
	if err == nil && len(hist) == 0 {
		err = fmt.Errorf("reference solve did not run a cycle")
	}
	return hist, virt, err
}

// session is one measured multigrid world.  Its ranks (goroutines of one
// virtual world, or the single-rank worlds of a TCP mesh) share it: rank 0
// owns the timing fields, and every rank writes only its own slot of the
// per-rank fields.  Barriers order all of it.
type session struct {
	p     problem
	cfg   runConfig
	ref   []float64
	t0    time.Time // set-up start, before the world was built
	heap0 uint64    // live heap at t0
	keep  bool      // false: a set-up sample, which stops after set-up
	decos []*counted
	op    *atomic.Int64

	setupS, mgSetupS, heapMB float64

	warmVirt  float64
	warmStats [2][]mpi.Stats // per rank, around the warm-up solve
	loopStats [2][]mpi.Stats // per rank, around the timed solves
	selfFrac  float64        // comm-matrix diagonal share of bytes
	tcp       transport.TCPStats
	plans     [2]datatype.CacheStats
	decoLoop  [2]counters

	untraced, traced []float64 // wall seconds per timed solve
	allocB, gcs      []float64 // per timed solve
	cycleMs          []float64
	cycles           int
	applyMs          []float64
	ghostMs          []float64
	ghostCoarseMs    []float64
	ghostHandMs      []float64

	mismatches atomic.Int64
	solves     atomic.Int64
}

// newSession records the live heap and the start of set-up; call it before
// building the session's world.
func newSession(p problem, cfg runConfig, ref []float64, ranks int, keep bool, op *atomic.Int64) *session {
	s := &session{p: p, cfg: cfg, ref: ref, keep: keep, op: op}
	s.heap0 = liveHeap()
	s.t0 = time.Now()
	for i := range s.warmStats {
		s.warmStats[i] = make([]mpi.Stats, ranks)
		s.loopStats[i] = make([]mpi.Stats, ranks)
	}
	return s
}

func (s *session) decoCounters() counters {
	var t counters
	for _, d := range s.decos {
		t = t.add(d.snapshot())
	}
	return t
}

func (s *session) setTiming(on bool) {
	for _, d := range s.decos {
		d.timing.Store(on)
	}
}

// Decisions rank 0 broadcasts before each timed operation (a solve or a
// collective round).
const (
	opStop byte = iota
	opUntraced
	opTraced
)

// body is the per-rank program of a session.
func (s *session) body(c *mpi.Comm) error {
	me := c.Rank()
	ext := []int{s.p.extent, s.p.extent, s.p.extent}
	tm := time.Now()
	sol := mg.New(c, ext, s.p.levels, s.p.mode)
	b, x := sol.CreateVec(), sol.CreateVec()
	fillForcing(sol, b, s.p)
	c.Barrier()
	if me == 0 {
		s.mgSetupS = time.Since(tm).Seconds()
		s.setupS = time.Since(s.t0).Seconds()
		s.heapMB = (float64(liveHeap()) - float64(s.heap0)) / 1e6
	}
	c.Barrier()
	if !s.keep {
		return nil
	}
	own := func() mpi.Stats { return c.World().Stats(c.WorldRank()) }

	// Untimed warm-up on the fresh world: fills the plan cache, and its
	// virtual time is deterministic because nothing ran before it but the
	// fixed set-up sequence.
	s.warmStats[0][me] = own()
	c.Barrier()
	v0 := c.Clock()
	sol.Solve(b, x, s.p.rtol, s.p.maxCycles)
	virt := c.AllreduceScalar(c.Clock()-v0, mpi.OpMax)
	s.warmStats[1][me] = own()
	s.check(me, sol.History)
	if me == 0 {
		s.warmVirt = virt
		s.cycles = len(sol.History)
	}

	// Timed solves until the window closes.  In the traced run the first
	// half of the window is untraced and the second traced, so the two
	// medians give the tracing overhead.
	var start time.Time
	var ms0, ms1 runtime.MemStats
	var stamps []time.Time
	if me == 0 {
		s.plans[0] = datatype.PlanCacheStats()
	}
	s.loopStats[0][me] = own()
	c.Barrier()
	if me == 0 {
		s.decoLoop[0] = s.decoCounters()
		start = time.Now()
	}
	for {
		d := opStop
		if me == 0 {
			el := time.Since(start)
			switch {
			case el >= s.cfg.window:
			case s.cfg.trace && el >= s.cfg.window/2:
				d = opTraced
			default:
				d = opUntraced
			}
			if d == opTraced {
				s.setTiming(true)
			}
		}
		d = c.Bcast(0, []byte{d})[0]
		if d == opStop {
			break
		}
		sol.OnCycle = nil
		if d == opTraced {
			stamps = stamps[:0]
			sol.OnCycle = func(int) error {
				if me == 0 {
					stamps = append(stamps, time.Now())
				}
				return nil
			}
		}
		x.Set(0)
		c.Barrier()
		var t0 time.Time
		if me == 0 {
			runtime.ReadMemStats(&ms0)
			s.op.Add(1)
			t0 = time.Now()
		}
		sol.Solve(b, x, s.p.rtol, s.p.maxCycles)
		c.Barrier()
		if me == 0 {
			t1 := time.Now()
			runtime.ReadMemStats(&ms1)
			dt := t1.Sub(t0).Seconds()
			s.allocB = append(s.allocB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			s.gcs = append(s.gcs, float64(ms1.NumGC-ms0.NumGC))
			if d == opTraced {
				s.traced = append(s.traced, dt)
				s.cfg.spans.add("solve", s.op.Load(), t0, t1)
				stamps = append(stamps, t1)
				for i := 1; i < len(stamps); i++ {
					s.cycleMs = append(s.cycleMs, stamps[i].Sub(stamps[i-1]).Seconds()*1e3)
					s.cfg.spans.add("mg.cycle", s.op.Load(), stamps[i-1], stamps[i])
				}
			} else {
				s.untraced = append(s.untraced, dt)
			}
		}
		s.check(me, sol.History)
	}
	c.Barrier()
	s.loopStats[1][me] = own()
	if me == 0 {
		s.setTiming(false)
		s.decoLoop[1] = s.decoCounters()
		s.plans[1] = datatype.PlanCacheStats()
	}
	c.Barrier()
	if !s.cfg.trace {
		return nil
	}

	// Per-layer calls, timed from outside: the finest-level operator, the
	// ghost exchange on the finest and coarsest levels, and the same
	// exchange on a hand-tuned DA of the same grid as the reference.
	y := sol.CreateVec()
	l0 := sol.DA(0).CreateLocalArray()
	coarse := sol.DA(sol.Levels() - 1)
	lc := coarse.CreateLocalArray()
	xc := coarse.CreateGlobalVec()
	hand := dmda.New(c, ext, 1, dmda.StencilStar, 1, petsc.ScatterHandTuned)
	lh := hand.CreateLocalArray()
	xh := hand.CreateGlobalVec()
	const reps = 8
	apply := timeCalls(c, reps, s.cfg.spans, "mg.apply", func() { sol.Apply(x, y) })
	ghost := timeCalls(c, reps, s.cfg.spans, "dmda.ghost", func() { sol.DA(0).GlobalToLocal(x, l0) })
	ghostCoarse := timeCalls(c, reps, s.cfg.spans, "dmda.ghost_coarse", func() { coarse.GlobalToLocal(xc, lc) })
	ghostHand := timeCalls(c, reps, s.cfg.spans, "dmda.ghost_hand", func() { hand.GlobalToLocal(xh, lh) })
	if me == 0 {
		s.applyMs, s.ghostMs, s.ghostCoarseMs, s.ghostHandMs = apply, ghost, ghostCoarse, ghostHand
	}
	return nil
}

// check compares one rank's residual history with the reference.  Rank 0
// counts the solve; a mismatch on any rank counts against it.
func (s *session) check(me int, h []float64) {
	if me == 0 {
		s.solves.Add(1)
	}
	if !sameHistory(h, s.ref) {
		s.mismatches.Add(1)
	}
}

// timeCalls runs f reps times, each between barriers, and returns rank 0's
// wall milliseconds per call (nil on other ranks).
func timeCalls(c *mpi.Comm, reps int, spans *spanLog, name string, f func()) []float64 {
	var out []float64
	for i := 0; i < reps; i++ {
		c.Barrier()
		t0 := time.Now()
		f()
		c.Barrier()
		if c.Rank() == 0 {
			t1 := time.Now()
			out = append(out, t1.Sub(t0).Seconds()*1e3)
			spans.add(name, 0, t0, t1)
		}
	}
	return out
}

// solveSetups runs mk nSetups times, keeping only the last session for the
// timed solves, and returns all of them: every one is a set-up sample.  mk
// builds the world(s) of one session and runs its body on every rank.  Each
// set-up starts from an empty plan cache, as in a fresh process.
func solveSetups(nSetups int, mk func(keep bool) (*session, error)) ([]*session, error) {
	var out []*session
	for i := 0; i < nSetups; i++ {
		datatype.ResetPlanCache()
		s, err := mk(i == nSetups-1)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// solveReport turns the sessions of a solve workload into its metrics.
func solveReport(ss []*session, virtRef float64) *report {
	rep := newReport()
	s := ss[len(ss)-1]
	var setups, mgSetups []float64
	for _, x := range ss {
		setups = append(setups, x.setupS)
		mgSetups = append(mgSetups, x.mgSetupS)
	}
	n := len(s.untraced) + len(s.traced)
	solves := int(s.solves.Load())
	rep.attempted = solves
	rep.mismatches = int(s.mismatches.Load())
	rep.failed = rep.mismatches
	if rep.failed > solves {
		rep.failed = solves
	}

	// End to end.  Untraced runs time every solve untraced; in the traced
	// run the end-to-end figures come from its untraced half.
	base := s.untraced
	rep.setE2E("setup_s", median(setups), "s")
	rep.setE2E("op_s", median(base), "s")
	rep.setE2E("ops_per_s", float64(len(base))/sum(base), "1/s")
	rep.setE2E("alloc_mb", median(s.allocB)/1e6, "MB")
	rep.setE2E("heap_mb", s.heapMB, "MB")
	virt := s.warmVirt
	if virtRef > 0 {
		virt = virtRef
	}
	rep.setE2E("virt_ms", virt*1e3, "virt_ms")

	// Per layer.
	layerTail(rep, s.untraced, s.traced)
	rep.setLayer("mg.setup_s", median(mgSetups), "s")
	rep.setLayer("mg.cycle_ms", median(s.cycleMs), "ms")
	rep.setLayer("mg.apply_ms", median(s.applyMs), "ms")
	rep.setLayer("mg.cycles", float64(s.cycles), "count")
	rep.setLayer("dmda.ghost_ms", median(s.ghostMs), "ms")
	rep.setLayer("dmda.ghost_coarse_ms", median(s.ghostCoarseMs), "ms")
	rep.setLayer("dmda.ghost_hand_ms", median(s.ghostHandMs), "ms")
	if len(s.traced) > 0 && len(s.untraced) > 0 {
		rep.setLayer("obs.trace_overhead", median(s.traced)/median(s.untraced), "ratio")
	}

	var loop mpiCounts
	var maxPack, maxWait, maxSearch, maxCompute float64
	for r := range s.loopStats[0] {
		loop = loop.add(countsOf(s.loopStats[1][r]).sub(countsOf(s.loopStats[0][r])))
		w, w0 := s.warmStats[1][r], s.warmStats[0][r]
		maxPack = math.Max(maxPack, w.PackSec-w0.PackSec)
		maxWait = math.Max(maxWait, w.WaitSec-w0.WaitSec)
		maxSearch = math.Max(maxSearch, w.SearchSec-w0.SearchSec)
		maxCompute = math.Max(maxCompute, w.ComputeSec-w0.ComputeSec)
	}
	per := float64(n)
	rep.setLayer("mpi.msgs", float64(loop.msgs)/per, "count")
	rep.setLayer("mpi.bytes", float64(loop.bytes)/per, "B")
	rep.setLayer("mpi.self_bytes_frac", s.selfFrac, "ratio")
	rep.setLayer("mpi.fused_sends_frac", ratio(loop.fused, loop.msgs), "ratio")
	rep.setLayer("mpi.virt_pack_s", maxPack, "virt_s")
	rep.setLayer("mpi.virt_wait_s", maxWait, "virt_s")
	rep.setLayer("mpi.virt_search_s", maxSearch, "virt_s")
	rep.setLayer("mpi.virt_compute_s", maxCompute, "virt_s")
	rep.setLayer("datatype.packed_bytes", float64(loop.packed)/per, "B")
	rep.setLayer("datatype.direct_bytes", float64(loop.direct)/per, "B")
	rep.setLayer("datatype.scanned_segments", float64(loop.scanned)/per, "count")
	rep.setLayer("datatype.search_segments", float64(loop.searched)/per, "count")
	layerTCP(rep, s.tcp)
	rep.setLayer("datatype.plan_hits", float64(s.plans[1].Hits), "count")
	rep.setLayer("datatype.plan_misses", float64(s.plans[1].Misses), "count")
	rep.setLayer("datatype.plan_hit_ratio", ratio(s.plans[1].Hits, s.plans[1].Hits+s.plans[1].Misses), "ratio")
	dc := s.decoLoop[1].sub(s.decoLoop[0])
	layerTransport(rep, dc, per, len(s.traced), s.decos)
	rep.setLayer("go.gc_cycles", median(s.gcs), "count")
	return rep
}

// layerTail reports the tail latency of a traced run over all of its timed
// operations, untraced and traced, with the percentile and the sample
// count behind it.  Tails are per-layer metrics, not end-to-end ones: on a
// shared 2-core host their run-to-run spread is too wide to gate on.
func layerTail(rep *report, untraced, traced []float64) {
	all := append(append([]float64(nil), untraced...), traced...)
	tl, pct := tail(all)
	rep.setLayer("e2e.tail_s", tl, "s")
	rep.setLayer("e2e.tail_pct", pct, "%")
	rep.setLayer("e2e.samples", float64(len(all)), "count")
}

// layerTransport reports the decorator's counts per operation.  Send
// latency and busy time are recorded only while timing was on, so busy
// time is divided by the traced operations alone.
func layerTransport(rep *report, dc counters, per float64, traced int, decos []*counted) {
	rep.setLayer("transport.send_calls", float64(dc.sendCalls)/per, "count")
	rep.setLayer("transport.send_bytes", float64(dc.sendBytes)/per, "B")
	rep.setLayer("transport.recv_frames", float64(dc.recvFrames)/per, "count")
	rep.setLayer("transport.vectored_frac", ratio(dc.vecCalls, dc.sendCalls), "ratio")
	var h latencyHist
	for _, d := range decos {
		for i := range d.lat.counts {
			h.counts[i].Add(d.lat.counts[i].Load())
		}
	}
	rep.setLayer("transport.send_us", h.quantile(0.5)/1e3, "us")
	if traced > 0 {
		rep.setLayer("transport.send_busy_s", float64(dc.busyNs)/1e9/float64(traced), "s")
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// mpiCounts are the work counts of mpi.Stats the benchmark reports.
type mpiCounts struct {
	msgs, bytes, fused, packed, direct, scanned, searched int64
}

func countsOf(st mpi.Stats) mpiCounts {
	return mpiCounts{st.MsgsSent, st.BytesSent, st.FusedSends, st.Datatype.PackedBytes,
		st.Datatype.DirectBytes, st.Datatype.ScannedSegments, st.Datatype.SearchSegments}
}

func (a mpiCounts) add(b mpiCounts) mpiCounts {
	return mpiCounts{a.msgs + b.msgs, a.bytes + b.bytes, a.fused + b.fused, a.packed + b.packed,
		a.direct + b.direct, a.scanned + b.scanned, a.searched + b.searched}
}

func (a mpiCounts) sub(b mpiCounts) mpiCounts {
	return mpiCounts{a.msgs - b.msgs, a.bytes - b.bytes, a.fused - b.fused, a.packed - b.packed,
		a.direct - b.direct, a.scanned - b.scanned, a.searched - b.searched}
}

// selfBytesFrac is the share of the comm matrix's bytes on its diagonal
// (ranks sending to themselves), summed over the given matrices.
func selfBytesFrac(ms ...mpi.CommMatrix) float64 {
	var self, all int64
	for _, m := range ms {
		for s := range m.Bytes {
			for d, b := range m.Bytes[s] {
				all += b
				if s == d {
					self += b
				}
			}
		}
	}
	return ratio(self, all)
}

// layerTCP reports the TCP endpoints' reliability counters, which stay 0 on
// clean loopback.
func layerTCP(rep *report, st transport.TCPStats) {
	rep.setLayer("tcp.retransmits", float64(st.Retransmits), "count")
	rep.setLayer("tcp.crc_rejects", float64(st.CRCRejects), "count")
}

// addTCP sums TCP endpoint stats.
func addTCP(a, b transport.TCPStats) transport.TCPStats {
	a.FramesSent += b.FramesSent
	a.FramesRecv += b.FramesRecv
	a.Retransmits += b.Retransmits
	a.CRCRejects += b.CRCRejects
	a.VectoredSends += b.VectoredSends
	return a
}

// runRanks runs f once per goroutine for n ranks and returns the first error.
func runRanks(n int, f func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}
