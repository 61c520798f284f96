package bench

import (
	"errors"
	"testing"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// TestSelfHealMultigrid is the in-process end-to-end acceptance path: rank 2
// of a 4-rank multigrid solve is killed mid-solve; the supervisor respawns
// it, the world regrows to full size through an epoch-bumped Restore, and
// the resumed solve reproduces the fault-free run's residual history bitwise
// from the restored cycle on.
func TestSelfHealMultigrid(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	run, err := RunMultigridSelfHeal(4, p, 2, 0.5, nil, SelfHealIO{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Respawns != 1 {
		t.Fatalf("respawns = %d, want 1", run.Respawns)
	}
	res := run.Result
	if !res.Healed || res.Recoveries != 1 || res.Epoch != 1 {
		t.Fatalf("healed=%v recoveries=%d epoch=%d", res.Healed, res.Recoveries, res.Epoch)
	}
	if res.FinalSize != 4 {
		t.Fatalf("final size %d, want full 4", res.FinalSize)
	}
	if res.RestoredAt <= 0 {
		t.Fatalf("restored at %d, want a mid-solve checkpoint", res.RestoredAt)
	}
	if !run.HistoryMatches {
		t.Fatalf("resumed history diverged from the fault-free run\nclean: %v\nresumed from %d: %v",
			run.CleanHistory, res.RestoredAt, res.History)
	}
	if run.MTTRSeconds <= 0 {
		t.Fatalf("MTTR not measured: %v", run.MTTRSeconds)
	}
}

// TestSelfHealMultigridLossy repeats the kill under a seeded 1% drop + 1%
// duplication plan: the reliability protocol must absorb the link faults and
// the recovery must still reproduce the reference history exactly.
func TestSelfHealMultigridLossy(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	fp := &simnet.FaultPlan{Seed: 7, Drop: 0.01, Duplicate: 0.01}
	run, err := RunMultigridSelfHeal(4, p, 2, 0.5, fp, SelfHealIO{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Respawns != 1 || !run.Result.Healed {
		t.Fatalf("respawns=%d healed=%v", run.Respawns, run.Result.Healed)
	}
	if !run.HistoryMatches {
		t.Fatalf("lossy healed history diverged\nclean: %v\nresumed from %d: %v",
			run.CleanHistory, run.Result.RestoredAt, run.Result.History)
	}
}

// TestSelfHealRankZero kills rank 0 — the rank that reports results — to
// check that a replacement incarnation picks the reporting duty back up.
func TestSelfHealRankZero(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	run, err := RunMultigridSelfHeal(4, p, 0, 0.5, nil, SelfHealIO{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if run.Respawns != 1 || !run.Result.Healed {
		t.Fatalf("respawns=%d healed=%v", run.Respawns, run.Result.Healed)
	}
	if !run.HistoryMatches {
		t.Fatalf("history diverged after rank-0 kill (restored at %d)", run.Result.RestoredAt)
	}
}

// TestLackBitmap covers the availability-consensus encoding: the OR of lack
// bitmaps picks the newest commonly held checkpoint, falling back to 0.
func TestLackBitmap(t *testing.T) {
	mk := func(its ...int) []uint64 { return lackBitmap(its) }
	or := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		for i := range a {
			out[i] = a[i] | b[i]
		}
		return out
	}
	if got := bestCommon(or(mk(2, 4, 6), mk(2, 4))); got != 4 {
		t.Fatalf("common(246,24) = %d, want 4", got)
	}
	if got := bestCommon(or(mk(2), mk(4))); got != 0 {
		t.Fatalf("disjoint stores must fall back to 0, got %d", got)
	}
	if got := bestCommon(or(mk(), mk(100))); got != 0 {
		t.Fatalf("empty store must force 0, got %d", got)
	}
	if got := bestCommon(lackBitmap(nil)); got != 0 {
		t.Fatalf("nil store must force 0, got %d", got)
	}
}

// TestNegotiateRestoreBase covers the point-to-point restore agreement that
// service resume and the Shrink path share: the newest iteration every
// rank lists wins, and one rank with nothing forces a restart from 0.
func TestNegotiateRestoreBase(t *testing.T) {
	for _, tc := range []struct {
		name string
		its  [][]int
		want int
	}{
		{"divergent", [][]int{{2, 4}, {2, 4}, {2}}, 2},
		{"one-empty", [][]int{{2, 4}, {}, {2, 4}}, 0},
		{"all-equal", [][]int{{3, 6, 9}, {3, 6, 9}, {3, 6, 9}}, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]int, len(tc.its))
			err := NewFaultyWorld(len(tc.its), mpi.Optimized(), nil).Run(func(c *mpi.Comm) error {
				got[c.Rank()] = negotiateRestoreBase(c, tc.its[c.Rank()])
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, g := range got {
				if g != tc.want {
					t.Fatalf("rank %d agreed on %d, want %d (all: %v)", r, g, tc.want, got)
				}
			}
		})
	}
}

// TestRunRecoveryReport smoke-tests the benchmark entry point: detection
// fires within the configured window, steady-state beat traffic is nonzero,
// and the in-process MTTR run heals with a matching history.
func TestRunRecoveryReport(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	hb := transport.HeartbeatConfig{Interval: 10 * time.Millisecond, Miss: 3, FailAfter: 9}
	rep, err := RunRecovery(4, p, hb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectionMS <= 0 || rep.HardFailureMS < rep.DetectionMS {
		t.Fatalf("detection %.1fms hard %.1fms", rep.DetectionMS, rep.HardFailureMS)
	}
	// Suspicion requires Miss missed intervals; it must not take more than
	// an order of magnitude longer than that on an idle loopback.
	if min := float64(hb.Miss) * rep.HeartbeatIntervalMS; rep.DetectionMS < min*0.5 || rep.DetectionMS > min*20 {
		t.Fatalf("detection %.1fms outside the configured miss window (~%.0fms)", rep.DetectionMS, min)
	}
	if rep.BeatsPerSecPerPeer <= 0 {
		t.Fatalf("no steady-state beat traffic measured: %+v", rep)
	}
	if !rep.InprocHistoryMatches || rep.InprocRespawns != 1 {
		t.Fatalf("inproc chaos run did not heal cleanly: %+v", rep)
	}
	if !rep.CkptCollectiveHistoryMatches {
		t.Fatalf("collective-I/O chaos run did not heal cleanly: %+v", rep)
	}
	// The point of two-phase aggregation: worst-rank write volume must drop
	// below the replicated path's O(global) bytes.
	if rep.CkptCollectiveMaxRankBytes <= 0 || rep.CkptCollectiveMaxRankBytes >= rep.CkptPerRankWriteBytes {
		t.Fatalf("collective worst-rank bytes %d not below per-rank replicated bytes %d",
			rep.CkptCollectiveMaxRankBytes, rep.CkptPerRankWriteBytes)
	}
	if rep.CkptCollectiveWriteMS <= 0 || rep.CkptCollectiveSieveMS <= 0 {
		t.Fatalf("checkpoint timings missing: %+v", rep)
	}
	path := t.TempDir() + "/BENCH_recovery.json"
	if err := WriteRecoveryJSON(path, rep); err != nil {
		t.Fatal(err)
	}
}

// TestMultigridRankResumeFromStore is the service's relaunch path in
// process: a checkpointing MultigridRank run is stopped partway, and a
// fresh world over the same checkpoint directory (fresh store handles at a
// later epoch, as a relaunched attempt gets) resumes with Resume.  The
// resumed history must equal the fault-free reference from Restored on,
// bitwise, and converge at the same total cycle count.
func TestMultigridRankResumeFromStore(t *testing.T) {
	const n = 4
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}
	dir := t.TempDir()
	errStop := errors.New("stopped partway")

	var ref, resumed MultigridResult
	run := func(epoch uint64, opts func(st *ckptio.Store) MultigridRankOptions, out *MultigridResult) {
		t.Helper()
		err := NewFaultyWorld(n, mpi.Optimized(), nil).Run(func(c *mpi.Comm) error {
			var o MultigridRankOptions
			if opts != nil {
				st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
				if err != nil {
					return err
				}
				st.SetEpoch(epoch)
				o = opts(st)
			}
			r, err := MultigridRank(c, p, petsc.ScatterDatatype, o)
			if err != nil && !errors.Is(err, errStop) {
				return err
			}
			if c.Rank() == 0 && out != nil {
				*out = r
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	run(0, nil, &ref)
	if ref.Cycles <= 6 {
		t.Fatalf("reference converged in %d cycles; the test needs more than 6", ref.Cycles)
	}
	// Interrupted attempt: checkpoints at cycles 2 and 4, stopped before 6.
	run(1, func(st *ckptio.Store) MultigridRankOptions {
		return MultigridRankOptions{Store: st, CheckpointEvery: 2,
			OnCycle: func(cycle int) error {
				if cycle >= 6 {
					return errStop
				}
				return nil
			}}
	}, nil)
	run(2, func(st *ckptio.Store) MultigridRankOptions {
		return MultigridRankOptions{Store: st, CheckpointEvery: 2, Resume: true}
	}, &resumed)

	if resumed.Restored != 4 {
		t.Fatalf("resumed from cycle %d, want 4", resumed.Restored)
	}
	if resumed.Restored+resumed.Cycles != ref.Cycles || len(resumed.History) != ref.Cycles-resumed.Restored {
		t.Fatalf("resumed run took %d+%d cycles (%d history entries), reference %d",
			resumed.Restored, resumed.Cycles, len(resumed.History), ref.Cycles)
	}
	for i, v := range resumed.History {
		if want := ref.History[resumed.Restored+i]; v != want {
			t.Fatalf("cycle %d residual %v, fault-free %v", resumed.Restored+i+1, v, want)
		}
	}
}
