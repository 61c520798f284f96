package mg

import (
	"fmt"
	"testing"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// bindStore opens a store handle on dir bound to s's finest-level file
// view, as each rank of a (re)started solve attempt does.
func bindStore(s *Solver, dir string) (*ckptio.Store, error) {
	st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
	if err != nil {
		return nil, err
	}
	da := s.DA(0)
	st.Bind(da.Comm(), da.NaturalBytes(), da.NaturalSegments())
	return st, nil
}

// TestCheckpointNaturalRoundTrip is the recovery-path data property: a
// checkpoint written collectively at full world size round-trips BITWISE
// across decompositions — sieve-read onto a shrunken sub-communicator (as
// after a failure), written collectively again from that shrunken
// decomposition (as before a process death), and finally sieve-read by
// fresh store handles bound to the regrown full-size world.  Each stage is
// compared against the iterate gathered straight from the solve.  Any
// representation loss along that chain would silently fork the resumed
// solve's history.
func TestCheckpointNaturalRoundTrip(t *testing.T) {
	const n, m = 4, 2 // full world size, shrunken size
	ext := []int{16, 12, 8}
	fullDir, shrunkDir := t.TempDir(), t.TempDir()

	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		// A partial solve at full size produces a genuine checkpoint.
		s := New(c, ext, 2, petsc.ScatterDatatype)
		st, err := bindStore(s, fullDir)
		if err != nil {
			return err
		}
		s.Checkpoints, s.CheckpointEvery = st, 2
		b, x := s.CreateVec(), s.CreateVec()
		ba := b.Array()
		for i := range ba {
			ba[i] = float64(c.Rank()*1000+i) / 97.0
		}
		// The hook before cycle 5 sees the iterate checkpointed after
		// cycle 4: gather it as the natural-order reference.
		var want []float64
		s.OnCycle = func(cycle int) error {
			if cycle == 5 {
				want = s.DA(0).GatherNatural(x)
			}
			return nil
		}
		s.Solve(b, x, 1e-30, 5) // tolerance unreachable: all 5 cycles run
		const it = 4
		if its := st.Iterations(); len(its) != 2 || its[0] != 2 || its[1] != it {
			return fmt.Errorf("retained iterations %v, want [2 4]", its)
		}
		wantRes := s.History[it-1]
		check := func(stage string, got []float64) error {
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s round-trip differs at %d: %v vs %v", stage, i, got[i], want[i])
				}
			}
			return nil
		}

		// Restore onto a shrunken sub-world, the post-failure decomposition.
		color := 0
		if c.Rank() >= m {
			color = -1
		}
		var r0 float64
		sub := c.Split(color, 0)
		if sub != nil {
			ss := New(sub, ext, 2, petsc.ScatterDatatype)
			x2 := ss.CreateVec()
			sst, err := bindStore(ss, fullDir)
			if err != nil {
				return err
			}
			res, cr0, ok := ss.RestoreAt(sst, it, x2)
			if !ok {
				return fmt.Errorf("RestoreAt on shrunken world failed")
			}
			if res != wantRes || cr0 <= 0 {
				return fmt.Errorf("checkpoint metadata res=%v r0=%v, want res=%v", res, cr0, wantRes)
			}
			r0 = cr0
			if err := check("shrink", ss.DA(0).GatherNatural(x2)); err != nil {
				return err
			}

			// Write the checkpoint durably from the shrunken decomposition.
			wst, err := bindStore(ss, shrunkDir)
			if err != nil {
				return err
			}
			if err := wst.PutOwned(it, res, r0, x2.Array()); err != nil {
				return err
			}
		}
		r0 = c.AllreduceScalar(r0, mpi.OpMax) // ranks outside the sub-world learn r0

		// Restore onto the regrown full-size world through a fresh store
		// handle, as a respawned process would, and compare bitwise.
		rs := New(c, ext, 2, petsc.ScatterDatatype)
		x3 := rs.CreateVec()
		rst, err := bindStore(rs, shrunkDir)
		if err != nil {
			return err
		}
		res, r03, ok := rs.RestoreAt(rst, it, x3)
		if !ok {
			return fmt.Errorf("durable checkpoint missing after respawn-style reopen")
		}
		if r03 != r0 || res != wantRes {
			return fmt.Errorf("durable checkpoint metadata drifted: res=%v r0=%v, want res=%v r0=%v", res, r03, wantRes, r0)
		}
		return check("regrow", rs.DA(0).GatherNatural(x3))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolveFromMatchesUninterrupted: resuming from a checkpoint with the
// original r0 and base cycle reproduces the fault-free run's residual
// history exactly from the restored cycle on — same world size, same
// decomposition, so the arithmetic is identical and the comparison is
// bitwise.
func TestSolveFromMatchesUninterrupted(t *testing.T) {
	ext := []int{16, 16}
	dir := t.TempDir()
	w := mpi.NewWorld(simnet.Uniform(4, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		mkb := func(s *Solver) (*petsc.Vec, *petsc.Vec) {
			b, x := s.CreateVec(), s.CreateVec()
			ba := b.Array()
			for i := range ba {
				ba[i] = float64(c.Rank()*37+i) / 13.0
			}
			return b, x
		}

		// Reference: 8 uninterrupted cycles.
		ref := New(c, ext, 2, petsc.ScatterDatatype)
		rb, rx := mkb(ref)
		ref.Solve(rb, rx, 1e-30, 8)
		refHist := append([]float64(nil), ref.History...)

		// Interrupted: run with checkpoints, restore the iteration-4
		// snapshot through a fresh store handle, resume with SolveFrom.
		s := New(c, ext, 2, petsc.ScatterDatatype)
		st, err := bindStore(s, dir)
		if err != nil {
			return err
		}
		s.Checkpoints, s.CheckpointEvery = st, 2
		b, x := mkb(s)
		s.Solve(b, x, 1e-30, 5)

		const it = 4
		rs := New(c, ext, 2, petsc.ScatterDatatype)
		b2, x2 := mkb(rs)
		rst, err := bindStore(rs, dir)
		if err != nil {
			return err
		}
		_, r0, ok := rs.RestoreAt(rst, it, x2)
		if !ok {
			return fmt.Errorf("no iteration-4 checkpoint")
		}
		cycles, _ := rs.SolveFrom(b2, x2, 1e-30, 4, it, r0)
		if cycles != 4 {
			return fmt.Errorf("resumed %d cycles, want 4", cycles)
		}
		for i, v := range rs.History {
			if refv := refHist[it+i]; v != refv {
				return fmt.Errorf("resumed cycle %d residual %v, fault-free %v", it+i+1, v, refv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
