package mg

import (
	"fmt"
	"testing"

	"nccd/internal/ckptio"
	"nccd/internal/ksp"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// TestCheckpointNaturalRoundTrip is the recovery-path data property: a
// checkpoint taken at full world size round-trips BITWISE through
// dmda.GatherNatural/ScatterNatural across decompositions — restored onto
// a shrunken sub-communicator (as after a failure), re-gathered, written
// collectively from that shrunken decomposition through a durable
// ckptio.Store (as before a process death), and finally sieve-read by fresh
// store handles bound to the regrown full-size world.  Any representation
// loss along that chain would silently fork the resumed solve's history.
func TestCheckpointNaturalRoundTrip(t *testing.T) {
	const n, m = 4, 2 // full world size, shrunken size
	ext := []int{16, 12, 8}
	dir := t.TempDir()

	w := mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), mpi.Optimized())
	err := w.Run(func(c *mpi.Comm) error {
		// A partial solve at full size produces a genuine checkpoint.
		var store ksp.CheckpointStore
		s := New(c, ext, 2, petsc.ScatterDatatype)
		s.Checkpoints, s.CheckpointEvery = &store, 2
		b, x := s.CreateVec(), s.CreateVec()
		ba := b.Array()
		for i := range ba {
			ba[i] = float64(c.Rank()*1000+i) / 97.0
		}
		s.Solve(b, x, 1e-30, 5) // tolerance unreachable: all 5 cycles run
		cp, ok := store.Latest()
		if !ok {
			return fmt.Errorf("no checkpoint after 5 cycles with every=2")
		}
		if cp.Iteration != 4 || cp.R0 <= 0 {
			return fmt.Errorf("checkpoint iteration %d r0 %v", cp.Iteration, cp.R0)
		}
		if its := store.Iterations(); len(its) != 2 || its[0] != 2 || its[1] != 4 {
			return fmt.Errorf("retained iterations %v, want [2 4]", its)
		}

		// Restore onto a shrunken sub-world, the post-failure decomposition.
		color := 0
		if c.Rank() >= m {
			color = -1
		}
		sub := c.Split(color, 0)
		if sub != nil {
			ss := New(sub, ext, 2, petsc.ScatterDatatype)
			x2 := ss.CreateVec()
			if got, ok := ss.RestoreAt(&store, cp.Iteration, x2); !ok || got.Iteration != cp.Iteration {
				return fmt.Errorf("RestoreAt on shrunken world failed")
			}
			nat2 := ss.DA(0).GatherNatural(x2)
			for i := range cp.X {
				if nat2[i] != cp.X[i] {
					return fmt.Errorf("shrink round-trip differs at %d: %v vs %v", i, nat2[i], cp.X[i])
				}
			}

			// Write the checkpoint durably from the shrunken decomposition.
			st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
			if err != nil {
				return err
			}
			da := ss.DA(0)
			st.Bind(da.Comm(), da.NaturalBytes(), da.NaturalSegments())
			if err := st.PutOwned(cp.Iteration, cp.Residual, cp.R0, x2.Array()); err != nil {
				return err
			}
		}
		c.Barrier()

		// Restore onto the regrown full-size world through a fresh store
		// handle, as a respawned process would, and compare bitwise.
		rs := New(c, ext, 2, petsc.ScatterDatatype)
		x3 := rs.CreateVec()
		st, err := ckptio.NewStore(dir, nil, ckptio.Options{})
		if err != nil {
			return err
		}
		da := rs.DA(0)
		st.Bind(da.Comm(), da.NaturalBytes(), da.NaturalSegments())
		res, r0, ok := rs.RestoreOwnedAt(st, cp.Iteration, x3)
		if !ok {
			return fmt.Errorf("durable checkpoint missing after respawn-style reopen")
		}
		if r0 != cp.R0 || res != cp.Residual {
			return fmt.Errorf("durable checkpoint metadata drifted: res=%v r0=%v vs %+v", res, r0, cp)
		}
		nat3 := da.GatherNatural(x3)
		for i := range cp.X {
			if nat3[i] != cp.X[i] {
				return fmt.Errorf("regrow round-trip differs at %d: %v vs %v", i, nat3[i], cp.X[i])
			}
		}
		return nil
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
		// snapshot, resume with SolveFrom.
		var store ksp.CheckpointStore
		s := New(c, ext, 2, petsc.ScatterDatatype)
		s.Checkpoints, s.CheckpointEvery = &store, 2
		b, x := mkb(s)
		s.Solve(b, x, 1e-30, 5)

		rs := New(c, ext, 2, petsc.ScatterDatatype)
		b2, x2 := mkb(rs)
		cp, ok := rs.RestoreAt(&store, 4, x2)
		if !ok {
			return fmt.Errorf("no iteration-4 checkpoint")
		}
		cycles, _ := rs.SolveFrom(b2, x2, 1e-30, 4, cp.Iteration, cp.R0)
		if cycles != 4 {
			return fmt.Errorf("resumed %d cycles, want 4", cycles)
		}
		for i, v := range rs.History {
			if refv := refHist[cp.Iteration+i]; v != refv {
				return fmt.Errorf("resumed cycle %d residual %v, fault-free %v", cp.Iteration+i+1, v, refv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
