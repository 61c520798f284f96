package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// Self-healing driver: the full detect → respawn → rejoin → restore → resume
// loop around the multigrid application, shared by the in-process harness
// (World.Respawn) and the multi-process daemons (supervisor relaunch over
// TCP).  The MPI layer provides the mechanism — Revoke, Restore, membership
// epochs — and this file provides the policy: which checkpoint to resume
// from, how the availability consensus is encoded, and when to give up.

// availWords sizes the checkpoint-availability bitmap carried on Restore's
// commit agreement: bit i of the bitmap set means "some rank LACKS a
// checkpoint for iteration i", so 8 words cover solves up to 512
// checkpointed cycles.  The complement encoding makes the OR-combining
// agreement compute the intersection of what everyone holds.
const availWords = 8

// lackBitmap encodes which checkpoint iterations this rank CANNOT produce,
// given the iterations its store can restore.  Bit 0 (iteration 0 =
// restart from the zero guess) is always clear: every rank can start over,
// so the recovery never fails to agree.
func lackBitmap(its []int) []uint64 {
	words := make([]uint64, availWords)
	for i := range words {
		words[i] = ^uint64(0)
	}
	words[0] &^= 1
	for _, it := range its {
		if it > 0 && it < availWords*64 {
			words[it/64] &^= 1 << uint(it%64)
		}
	}
	return words
}

// bestCommon picks the restore point from the OR of everyone's lack bitmaps:
// the highest iteration no rank lacks.  Worst case it returns 0 — restart
// from scratch — which is always commonly available by construction.
func bestCommon(words []uint64) int {
	for i := len(words)*64 - 1; i >= 0; i-- {
		if words[i/64]&(1<<uint(i%64)) == 0 {
			return i
		}
	}
	return 0
}

// bindCheckpoints attaches st to this solve attempt's communicator and
// finest-level file view — after a recovery both the membership and the
// decomposition have changed — and makes it the solver's checkpoint store.
func bindCheckpoints(s *mg.Solver, st *ckptio.Store, every int) {
	da := s.DA(0)
	st.Bind(da.Comm(), da.NaturalBytes(), da.NaturalSegments())
	s.Checkpoints, s.CheckpointEvery = st, every
}

// commitRestorePoint stamps a committed recovery's epoch into the store (so
// a resumed run's lower iteration numbers sort after the stale
// incarnation's) and pins the agreed restore point against retention.
func commitRestorePoint(st *ckptio.Store, epoch uint64, base int) {
	st.SetEpoch(epoch)
	if base > 0 {
		st.Protect(base)
	}
}

// resumeFrom solves on from the agreed restore iteration base: the
// checkpoint's owned values are sieve-read into x and the solve continues
// against its original r0, so the resumed history is comparable to a
// fault-free run.  base 0 solves from the zero guess.
func resumeFrom(s *mg.Solver, st *ckptio.Store, b, x *petsc.Vec, p MultigridParams, base int) (cycles int, relres float64, err error) {
	if base == 0 {
		cycles, relres = s.Solve(b, x, p.Rtol, p.MaxCycles)
		return cycles, relres, nil
	}
	_, r0, ok := s.RestoreAt(st, base, x)
	if !ok {
		return 0, 0, fmt.Errorf("bench: checkpoint %d agreed available but missing locally", base)
	}
	cycles, relres = s.SolveFrom(b, x, p.Rtol, p.MaxCycles-base, base, r0)
	return cycles, relres, nil
}

// HealParams configures a self-healing solve.
type HealParams struct {
	// CheckpointEvery is the V-cycle checkpoint period.  Default 1.
	CheckpointEvery int
	// MaxRecoveries bounds how many failures the loop rides out before
	// giving up.  Default 4.
	MaxRecoveries int
	// AwaitTimeout bounds how long Restore waits for replacements.
	// Default 30 s.
	AwaitTimeout time.Duration
	// RejoinEpoch, when nonzero, marks this rank as a replacement: it
	// skips the initial solve attempt and joins recovery number
	// RejoinEpoch directly.  Survivors derive the same epoch by counting
	// their own failures, so no epoch negotiation is needed.
	RejoinEpoch uint64
	// OnRecovered, when non-nil, is called after each committed recovery
	// with the new epoch and the agreed restore iteration (MTTR probes).
	OnRecovered func(epoch uint64, restoredAt int)
	// Store is this rank's handle on the shared checkpoint directory
	// (required): checkpoints are two-phase aggregated writes, restores
	// data-sieving reads of the owned range.  The loop binds it to each
	// solve attempt's communicator and finest-level file view, stamps the
	// membership epoch into it after every recovery, and protects the
	// agreed restore point from retention.
	Store *ckptio.Store
}

// SelfHealResult is one rank's outcome of a self-healing solve.
type SelfHealResult struct {
	Cycles  int       // total V-cycles, pre-crash checkpoint included
	RelRes  float64   // final relative residual (original r0)
	History []float64 // residual history of the final (resumed) attempt
	// RestoredAt is the checkpoint iteration the final attempt resumed
	// from: -1 = never interrupted, 0 = restarted from scratch.
	RestoredAt int
	Epoch      uint64 // committed membership epoch at completion
	Recoveries int    // failures ridden out
	FinalSize  int    // communicator size at completion (== world size)
	Healed     bool
}

// SelfHealMultigrid runs the multigrid solve with full self-healing, from
// inside a World.Run body.  Survivors solve until a failure surfaces as a
// typed error, revoke the broken communicators, and enter Restore with the
// next epoch; a replacement rank (RejoinEpoch > 0) enters Restore
// immediately.  The Restore agreement carries the checkpoint-availability
// bitmap, so every party leaves it holding both the full-size communicator
// and the same restore iteration; the solve then resumes from that
// checkpoint with the original r0, making the resumed residual history
// bitwise-comparable to a fault-free run.
func SelfHealMultigrid(c *mpi.Comm, p MultigridParams, mode petsc.ScatterMode, hp HealParams) (SelfHealResult, error) {
	res := SelfHealResult{RestoredAt: -1}
	st := hp.Store
	if st == nil {
		return res, fmt.Errorf("bench: self-healing solve needs a checkpoint store")
	}
	maxRec := hp.MaxRecoveries
	if maxRec <= 0 {
		maxRec = 4
	}
	every := hp.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	timeout := hp.AwaitTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	cc := c
	epoch := hp.RejoinEpoch
	rejoining := hp.RejoinEpoch > 0
	base := 0 // agreed restore iteration; 0 = from scratch
	var s *mg.Solver
	for {
		if !rejoining {
			werr := mpi.Guard(func() error {
				var b, x *petsc.Vec
				s, b, x = mgSetup(cc, p, mode)
				bindCheckpoints(s, st, every)
				cycles, relres, err := resumeFrom(s, st, b, x, p, base)
				if err != nil {
					return err
				}
				res.Cycles = base + cycles
				res.RelRes = relres
				res.History = append([]float64(nil), s.History...)
				return nil
			})
			if werr == nil {
				res.Epoch = c.World().Epoch()
				res.FinalSize = cc.Size()
				res.Healed = true
				return res, nil
			}
			if !recoverable(werr) {
				return res, werr
			}
			fmt.Fprintf(os.Stderr, "selfheal: rank %d entering recovery %d: %v\n",
				cc.Rank(), epoch+1, werr)
			// Survivor: wake every rank still parked in the broken
			// pattern, then meet the replacement in Restore.
			if s != nil {
				s.RevokeComms()
			}
			epoch++
		}
		rejoining = false
		if res.Recoveries >= maxRec {
			return res, fmt.Errorf("bench: giving up after %d recoveries", res.Recoveries)
		}
		nc, lacked, rerr := cc.Restore(epoch, lackBitmap(st.Iterations()), timeout)
		if rerr != nil {
			return res, rerr
		}
		cc = nc
		base = bestCommon(lacked)
		commitRestorePoint(st, epoch, base)
		res.RestoredAt = base
		res.Recoveries++
		if hp.OnRecovered != nil {
			hp.OnRecovered(epoch, base)
		}
	}
}

// SelfHealRun is the in-process end-to-end outcome: a fault-free reference
// plus the healed run, with the bitwise history comparison already made.
type SelfHealRun struct {
	CleanCycles  int
	CleanHistory []float64
	Result       SelfHealResult // rank 0's outcome
	Respawns     int
	// MTTRSeconds is the wall-clock time from the supervisor noticing the
	// death to the first committed recovery.
	MTTRSeconds float64
	// HistoryMatches reports that the healed run's resumed history equals
	// the fault-free history from the restored cycle on, bitwise, and that
	// both converge at the same total cycle count.
	HistoryMatches bool
	Seconds        float64 // virtual time of the healed run
}

// SelfHealIO configures the checkpoints of an in-process chaos run.
type SelfHealIO struct {
	// CkptDir is the shared checkpoint directory (required): every rank
	// holds its own store handle over it.
	CkptDir string
	// Ckpt configures the collective store (stripe size, aggregators,
	// per-rank fault plans).
	Ckpt ckptio.Options
	// FS, when non-nil, is the shared filesystem every rank's store runs
	// on — the hook for injecting one host-wide fault/crash model across
	// the whole in-process world.  Nil means the OS filesystem.
	FS ckptio.FS
}

// RunMultigridSelfHeal is the in-process chaos harness: it solves the
// reference problem cleanly, replays it with crashRank dying at crashFrac of
// the clean duration (plus any link faults from fp), supervises the run from
// an outside goroutine that Respawns dead ranks, and verifies the healed
// run's convergence history bitwise against the reference.  Every rank
// checkpoints through its own collective store handle over io.CkptDir
// (and, optionally, a shared fault-injecting filesystem).
func RunMultigridSelfHeal(n int, p MultigridParams, crashRank int, crashFrac float64, fp *simnet.FaultPlan, io SelfHealIO) (SelfHealRun, error) {
	var out SelfHealRun
	if io.CkptDir == "" {
		return out, fmt.Errorf("bench: self-healing run needs a checkpoint directory")
	}

	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	err := w.Run(func(c *mpi.Comm) error {
		s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
		cycles, _ := s.Solve(b, x, p.Rtol, p.MaxCycles)
		if c.Rank() == 0 {
			out.CleanCycles = cycles
			out.CleanHistory = append([]float64(nil), s.History...)
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	plan := &simnet.FaultPlan{CrashAt: map[int]float64{crashRank: crashFrac * w.MaxClock()}}
	if fp != nil {
		plan.Seed = fp.Seed
		plan.Drop, plan.Duplicate, plan.Corrupt = fp.Drop, fp.Duplicate, fp.Corrupt
	}
	fw := NewFaultyWorld(n, mpi.Optimized(), plan)

	var mu sync.Mutex
	var detectedAt, recoveredAt time.Time
	body := func(rejoinEpoch uint64) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			st, err := ckptio.NewStore(io.CkptDir, io.FS, io.Ckpt)
			if err != nil {
				return err
			}
			r, err := SelfHealMultigrid(c, p, petsc.ScatterDatatype, HealParams{
				CheckpointEvery: 1, RejoinEpoch: rejoinEpoch, Store: st,
				OnRecovered: func(uint64, int) {
					mu.Lock()
					if recoveredAt.IsZero() {
						recoveredAt = time.Now()
					}
					mu.Unlock()
				}})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out.Result = r
			}
			return nil
		}
	}

	// Supervisor: an outside goroutine — the in-process stand-in for the
	// TCP launcher — that notices dead ranks and respawns each once.
	done := make(chan struct{})
	var supWG sync.WaitGroup
	supWG.Add(1)
	go func() {
		defer supWG.Done()
		seen := make(map[int]bool)
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, r := range fw.CrashedRanks() {
				if seen[r] {
					continue
				}
				seen[r] = true
				mu.Lock()
				out.Respawns++
				ep := uint64(out.Respawns)
				if detectedAt.IsZero() {
					detectedAt = time.Now()
				}
				mu.Unlock()
				if err := fw.Respawn(r, body(ep)); err != nil {
					return
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	err = fw.Run(body(0))
	close(done)
	supWG.Wait()
	if err != nil {
		return out, err
	}
	out.Seconds = fw.MaxClock()
	if !detectedAt.IsZero() && !recoveredAt.IsZero() {
		out.MTTRSeconds = recoveredAt.Sub(detectedAt).Seconds()
	}

	res := out.Result
	base := res.RestoredAt
	if base < 0 {
		base = 0
	}
	out.HistoryMatches = base+len(res.History) == out.CleanCycles
	for i, v := range res.History {
		if !out.HistoryMatches || v != out.CleanHistory[base+i] {
			out.HistoryMatches = false
			break
		}
	}
	return out, nil
}
