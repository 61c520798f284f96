package bench

import (
	"errors"
	"fmt"

	"nccd/internal/ckptio"
	"nccd/internal/mg"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// NewFaultyWorld creates an n-rank world on a homogeneous IB DDR cluster
// carrying the given fault plan (nil for a clean reference world).
func NewFaultyWorld(n int, cfg mpi.Config, fp *simnet.FaultPlan) *mpi.World {
	cl := simnet.Uniform(n, simnet.IBDDR())
	cl.Faults = fp
	return mpi.NewWorld(cl, cfg)
}

// FaultOverhead measures what the reliability protocol costs in virtual
// time: the Section 5.3 outlier Allgatherv (rank 0 contributes 32 KB,
// everyone else 8 bytes) under increasing symmetric drop+duplication rates,
// against a clean run on the same topology.  Each lost or corrupted
// attempt charges the sender an exponentially backed-off ack timeout, so
// the overhead column is the end-to-end price of the configured rates.
func FaultOverhead(n int, rates []float64, iters int, seed uint64) *Experiment {
	e := &Experiment{
		ID:     "fault-overhead",
		Title:  fmt.Sprintf("reliability overhead: outlier Allgatherv under lossy links (%d processes)", n),
		XLabel: "drop=dup rate",
		Unit:   "us",
		Series: []string{"latency", "overhead %", "retransmit count"},
		Expect: "overhead grows with the fault rate via retransmission timeouts; results stay bytewise identical to the clean run",
	}
	run := func(rate float64) (float64, mpi.Stats) {
		var fp *simnet.FaultPlan
		if rate > 0 {
			fp = &simnet.FaultPlan{Seed: seed, Drop: rate, Duplicate: rate}
		}
		w := NewFaultyWorld(n, mpi.Optimized(), fp)
		var lat float64
		err := w.Run(func(c *mpi.Comm) error {
			counts := make([]int, n)
			for i := range counts {
				counts[i] = 8
			}
			counts[0] = 32 * 1024
			total := 0
			for _, x := range counts {
				total += x
			}
			mine := make([]byte, counts[c.Rank()])
			recv := make([]byte, total)
			l := TimeSection(c, iters, func(int) {
				c.Allgatherv(mine, counts, recv)
			})
			if c.Rank() == 0 {
				lat = l
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		return lat, w.TotalStats()
	}
	clean, _ := run(0)
	for _, rate := range rates {
		lat, st := run(rate)
		e.Add(fmt.Sprintf("%.3g", rate), map[string]float64{
			"latency":          lat * 1e6,
			"overhead %":       100 * (lat/clean - 1),
			"retransmit count": float64(st.Retransmits),
		})
	}
	return e
}

// FaultedMultigridResult reports a multigrid solve through a mid-solve rank
// crash.
type FaultedMultigridResult struct {
	CleanCycles  int     // V-cycles of the reference (fault-free) solve
	CleanSeconds float64 // virtual time of the reference solve
	CrashAt      float64 // virtual time the crash was scheduled at
	CheckpointAt int     // V-cycle the restored checkpoint was taken at (0 = restarted from scratch)
	Survivors    int     // communicator size after Shrink
	CyclesAfter  int     // V-cycles the restarted solve needed, beyond CheckpointAt
	RelRes       float64 // final residual relative to the original r0
	Seconds      float64 // virtual time of the faulted run, recovery included
	Recovered    bool
}

// mgSetup builds the solver and the paper's separable forcing on comm cc.
func mgSetup(cc *mpi.Comm, p MultigridParams, mode petsc.ScatterMode) (*mg.Solver, *petsc.Vec, *petsc.Vec) {
	s := mg.NewAgglomerated(cc, []int{p.Extent, p.Extent, p.Extent}, p.Levels, mode, p.AgglomerateCells)
	if p.Chebyshev {
		s.Smoother = mg.SmootherChebyshev
	}
	b := s.CreateVec()
	da := s.DA(0)
	own := da.OwnedBox()
	ba := b.Array()
	idx := 0
	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				x := (float64(i) + 0.5) / float64(p.Extent)
				y := (float64(j) + 0.5) / float64(p.Extent)
				z := (float64(k) + 0.5) / float64(p.Extent)
				ba[idx] = x * y * z
				idx++
			}
		}
	}
	return s, b, s.CreateVec()
}

// recoverable reports whether an error is one the ULFM-style recovery loop
// handles: a peer failure, a revoked communicator, or a watchdog abort of
// ranks left waiting on a peer that died.
func recoverable(err error) bool {
	return errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrRevoked) || errors.Is(err, mpi.ErrDeadlock)
}

// RunMultigridFaulted runs the Section 5.5 multigrid solve (Figure 17's
// workload) with a rank crash injected at crashFrac of the clean solve's
// virtual duration, and drives the full ULFM-style recovery: survivors
// catch the typed failure, revoke the communicator so no rank stays
// blocked, agree on the survivor set via Shrink, rebuild the solver
// hierarchy on the shrunk communicator's re-decomposition, and resume from
// the newest checkpoint every survivor can restore.  Checkpoints are
// collective writes into ckptDir, one per cycle, through the same store,
// epoch rule and restore negotiation as the self-healing loop, so the
// resumed solve measures residuals against the original r0.
func RunMultigridFaulted(n int, p MultigridParams, crashRank int, crashFrac float64, ckptDir string) (FaultedMultigridResult, error) {
	var res FaultedMultigridResult

	// Clean reference: calibrates the crash time and the expected result.
	w := NewFaultyWorld(n, mpi.Optimized(), nil)
	err := w.Run(func(c *mpi.Comm) error {
		s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
		cycles, _ := s.Solve(b, x, p.Rtol, p.MaxCycles)
		if c.Rank() == 0 {
			res.CleanCycles = cycles
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.CleanSeconds = w.MaxClock()
	res.CrashAt = crashFrac * res.CleanSeconds

	fw := NewFaultyWorld(n, mpi.Optimized(), &simnet.FaultPlan{
		CrashAt: map[int]float64{crashRank: res.CrashAt},
	})
	err = fw.Run(func(c *mpi.Comm) error {
		st, err := ckptio.NewStore(ckptDir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		// First attempt, checkpointing every cycle.  The crashed rank never
		// returns from this (its goroutine dies); survivors get a typed
		// error out of Guard.
		werr := mpi.Guard(func() error {
			s, b, x := mgSetup(c, p, petsc.ScatterDatatype)
			bindCheckpoints(s, st, 1)
			cycles, relres := s.Solve(b, x, p.Rtol, p.MaxCycles)
			if c.Rank() == 0 {
				res.CyclesAfter, res.RelRes = cycles, relres
				res.Survivors, res.Recovered = n, true
			}
			return nil
		})
		if werr == nil {
			return nil // crash fell after convergence; nothing to recover
		}
		if !recoverable(werr) {
			return werr
		}

		// Recovery: revoke (so survivors blocked on us fail over promptly),
		// shrink, re-decompose, agree on a restore point, resume.
		c.Revoke()
		nc, serr := c.Shrink()
		if serr != nil {
			return serr
		}
		return mpi.Guard(func() error {
			s, b, x := mgSetup(nc, p, petsc.ScatterDatatype)
			bindCheckpoints(s, st, 1)
			base := negotiateRestoreBase(nc, st.Iterations())
			commitRestorePoint(st, 1, base)
			cycles, relres, err := resumeFrom(s, st, b, x, p, base)
			if err != nil {
				return err
			}
			if nc.Rank() == 0 {
				res.CheckpointAt = base
				res.Survivors = nc.Size()
				res.CyclesAfter = cycles
				res.RelRes = relres
				res.Recovered = relres <= p.Rtol
			}
			return nil
		})
	})
	if err != nil {
		return res, err
	}
	res.Seconds = fw.MaxClock()
	return res, nil
}
