// Package mg implements the paper's application workload: a geometric
// multigrid solver for the Laplacian on a DMDA-distributed structured grid
// (Section 5.5 uses a 100³ grid with three levels).  Every smoothing sweep
// and residual evaluation performs a star-stencil ghost exchange, and every
// level transfer performs an inter-level patch scatter, so the solver's
// communication profile is exactly the nonuniform, noncontiguous pattern the
// paper studies — and its scaling depends directly on which scatter backend
// and MPI configuration the experiment selects.
package mg

import (
	"fmt"
	"strconv"

	"nccd/internal/dmda"
	"nccd/internal/ksp"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
)

const flopSec = 0.6e-9

// level holds one grid of the hierarchy; levels[0] is the finest.
type level struct {
	da *dmda.DA
	h  [3]float64 // grid spacing per dimension

	b, x, r *petsc.Vec
	d       *petsc.Vec // Chebyshev direction (lazily allocated)
	lwork   []float64  // ghosted local array

	// Transfers to/from the next coarser level (nil on the coarsest).
	restrictSc  *petsc.Scatter // fine global -> fine patch (children of my coarse cells)
	restrictBox dmda.Box
	finePatch   []float64
	interpSc    *petsc.Scatter // coarse global -> coarse patch (interp stencil sources)
	interpBox   dmda.Box
	coarsePatch []float64
}

// Solver is a geometric multigrid V-cycle solver/preconditioner for the
// cell-centered Laplacian with homogeneous Dirichlet boundaries on the unit
// domain.  It implements ksp.Operator (finest-level Laplacian) and
// ksp.Preconditioner (one V-cycle from a zero guess).
type Solver struct {
	c      *mpi.Comm
	dim    int
	levels []*level

	// Nu1 and Nu2 are the pre- and post-smoothing sweep counts (weighted
	// Jacobi).
	Nu1, Nu2 int
	// CoarseIts caps the conjugate-gradient iterations of the coarsest-
	// level solve (the stand-in for PETSc's direct coarse solver).
	CoarseIts int
	// CoarseRtol is the coarsest-level relative tolerance.
	CoarseRtol float64
	// Omega is the Jacobi damping factor.
	Omega float64
	// Smoother selects the relaxation scheme; default damped Jacobi.
	Smoother Smoother

	// History records the relative residual after each V-cycle of the most
	// recent Solve.  The sequence is decomposition- and transport-
	// independent for a given problem, which makes it the equivalence
	// witness between in-process and multi-process runs.
	History []float64

	// Checkpoints, when non-nil, receives a decomposition-independent
	// snapshot of the finest-level iterate every CheckpointEvery V-cycles
	// of Solve, enabling restart on a different (e.g. shrunk or regrown)
	// communicator.  An in-memory ksp.CheckpointStore survives rank
	// crashes in-process; OwnedCheckpoints is the path that survives
	// process death.
	Checkpoints     ksp.Store
	CheckpointEvery int

	// OnCycle, when non-nil, runs before each V-cycle with the cycle number
	// about to execute (1-based, continuing from SolveFrom's base).  A
	// non-nil error stops the solve immediately with the cycles completed so
	// far.  The hook is where a scheduler paces a tenant job — blocking here
	// shifts timing only, never the arithmetic, so residual histories stay
	// bitwise identical under any pacing — and where cooperative
	// cancellation lands between cycles.
	OnCycle func(cycle int) error

	// OwnedCheckpoints, when non-nil, takes precedence over Checkpoints:
	// checkpoints are written collectively — each rank contributes only
	// its finest-level owned values and the store's two-phase aggregated
	// write makes the union durable — and restored by per-rank data
	// sieving, so no rank ever materializes the replicated O(global)
	// natural array.  The store must be bound (communicator + file view)
	// before the solve; the bench layer binds it from the finest DA.
	OwnedCheckpoints ksp.OwnedStore

	// coarseComm, when non-nil on active ranks, confines the coarsest
	// solve's inner products to the ranks that actually hold coarse cells
	// (inactive ranks skip the solve and wait at the next transfer).  Set
	// up by NewAgglomerated when agglomeration shrinks the coarsest level
	// and the communication configuration permits non-participation.
	coarseComm   *mpi.Comm
	skipInactive bool
}

// New builds a multigrid hierarchy over the grid of extents n (1-3 dims)
// with nlevels levels, coarsening by 2 per dimension.  Every extent must be
// divisible by 2^(nlevels-1).  mode selects the communication backend for
// all ghost exchanges and level transfers.  Collective.
func New(c *mpi.Comm, n []int, nlevels int, mode petsc.ScatterMode) *Solver {
	return NewAgglomerated(c, n, nlevels, mode, 0)
}

// NewAgglomerated is New with coarse-level agglomeration: every level is
// decomposed over at most cells/minCellsPerRank ranks (at least one), so
// coarse grids whose subdomains would shrink below minCellsPerRank
// concentrate on fewer ranks and stop paying neighbor-exchange latency for
// a handful of cells.  minCellsPerRank 0 disables agglomeration.
func NewAgglomerated(c *mpi.Comm, n []int, nlevels int, mode petsc.ScatterMode, minCellsPerRank int) *Solver {
	if nlevels < 1 {
		panic("mg: need at least one level")
	}
	dim := len(n)
	factor := 1 << uint(nlevels-1)
	for _, e := range n {
		if e%factor != 0 {
			panic(fmt.Sprintf("mg: grid extent %d not divisible by 2^(levels-1)=%d", e, factor))
		}
	}
	s := &Solver{c: c, dim: dim, Nu1: 2, Nu2: 2, CoarseIts: 400, CoarseRtol: 1e-10, Omega: 2.0 / 3.0}

	ext := append([]int(nil), n...)
	for l := 0; l < nlevels; l++ {
		limit := 0
		if minCellsPerRank > 0 {
			cells := 1
			for _, e := range ext {
				cells *= e
			}
			limit = cells / minCellsPerRank
			if limit < 1 {
				limit = 1
			}
		}
		da := dmda.NewLimited(c, ext, 1, dmda.StencilStar, 1, mode, nil, limit)
		lv := &level{da: da, lwork: da.CreateLocalArray()}
		for d := 0; d < 3; d++ {
			lv.h[d] = 1
		}
		for d := 0; d < dim; d++ {
			lv.h[d] = 1.0 / float64(ext[d])
		}
		lv.b = da.CreateGlobalVec()
		lv.x = da.CreateGlobalVec()
		lv.r = da.CreateGlobalVec()
		s.levels = append(s.levels, lv)
		if l < nlevels-1 {
			for d := range ext {
				ext[d] /= 2
			}
		}
	}

	// Build inter-level transfers: each fine level's scatters reference the
	// next coarser DA.
	for l := 0; l+1 < nlevels; l++ {
		fine, coarse := s.levels[l], s.levels[l+1]

		// Restriction: coarse cell I gathers fine cells [2I-1, 2I+3) per
		// split dimension (the adjoint of the linear interpolation
		// stencil), so I need that halo around my coarse cells' children.
		cOwn := coarse.da.OwnedBox()
		var want dmda.Box
		for d := 0; d < 3; d++ {
			want.Lo[d], want.Hi[d] = cOwn.Lo[d], cOwn.Hi[d]
		}
		for d := 0; d < s.dim; d++ {
			want.Lo[d] = 2*cOwn.Lo[d] - 1
			want.Hi[d] = 2*cOwn.Hi[d] + 1
		}
		fine.restrictSc, fine.restrictBox = fine.da.NewPatchScatter(want)
		fine.finePatch = make([]float64, fine.restrictBox.Cells())

		// Interpolation: I need the coarse cells feeding my fine cells'
		// linear-interpolation stencil: [fLo/2 - 1, (fHi-1)/2 + 2).
		fOwn := fine.da.OwnedBox()
		for d := 0; d < 3; d++ {
			want.Lo[d], want.Hi[d] = fOwn.Lo[d], fOwn.Hi[d]
		}
		for d := 0; d < s.dim; d++ {
			want.Lo[d] = fOwn.Lo[d]/2 - 1
			want.Hi[d] = (fOwn.Hi[d]-1)/2 + 2
		}
		fine.interpSc, fine.interpBox = coarse.da.NewPatchScatter(want)
		fine.coarsePatch = make([]float64, fine.interpBox.Cells())
	}

	// When the coarsest level is agglomerated, idle ranks can sit out the
	// coarse solve entirely — but only if no collective there requires
	// full participation: the binned Alltoallw and the hand-tuned path
	// contact planned peers only, while the baseline round-robin Alltoallw
	// synchronizes with every rank and therefore needs everyone present.
	coarsest := s.levels[nlevels-1]
	if act := coarsest.da.Active(); act < c.Size() {
		// One-sided scatters fence collectively, and round-robin Alltoallw
		// synchronizes with every rank; both need all ranks present on the
		// coarse level.
		needsAll := mode == petsc.ScatterOneSided ||
			(mode == petsc.ScatterDatatype && c.World().Config().Alltoallw == mpi.ATRoundRobin)
		if !needsAll {
			color := 0
			if c.Rank() >= act {
				color = -1
			}
			s.coarseComm = c.Split(color, 0)
			s.skipInactive = true
		}
	}
	return s
}

// Comm returns the communicator.
func (s *Solver) Comm() *mpi.Comm { return s.c }

// Levels returns the number of grid levels.
func (s *Solver) Levels() int { return len(s.levels) }

// DA returns the DMDA of level l (0 = finest).
func (s *Solver) DA(l int) *dmda.DA { return s.levels[l].da }

// CreateVec returns a zeroed vector with the finest grid's layout.
func (s *Solver) CreateVec() *petsc.Vec { return s.levels[0].da.CreateGlobalVec() }

// applyLevel computes y = A_l x on level l (ghost exchange + stencil).
func (s *Solver) applyLevel(l int, x, y *petsc.Vec) {
	lv := s.levels[l]
	lv.da.GlobalToLocal(x, lv.lwork)
	s.stencil(lv, y.Array(), nil, 0)
}

// Apply computes y = A x on the finest grid (ksp.Operator).
func (s *Solver) Apply(x, y *petsc.Vec) { s.applyLevel(0, x, y) }

// stencil evaluates, for every owned cell, either the operator value
//
//	y = A x          (mode jac == nil)
//
// or a damped-Jacobi update
//
//	x += omega/diag * (b - A x)     (jac = b's array, writing into upd)
//
// using the ghosted values already in lv.lwork.
func (s *Solver) stencil(lv *level, y []float64, jac []float64, omega float64) {
	da := lv.da
	own := da.OwnedBox()
	ghost := da.GhostBox()
	inv := [3]float64{}
	for d := 0; d < s.dim; d++ {
		inv[d] = 1 / (lv.h[d] * lv.h[d])
	}
	gnx := ghost.Hi[0] - ghost.Lo[0]
	gny := ghost.Hi[1] - ghost.Lo[1]
	strides := [3]int{1, gnx, gnx * gny}

	for k := own.Lo[2]; k < own.Hi[2]; k++ {
		for j := own.Lo[1]; j < own.Hi[1]; j++ {
			row := da.LocalIndex(own.Lo[0], j, k, 0)
			out := boxRowIndex(own, j, k)
			for i := own.Lo[0]; i < own.Hi[0]; i++ {
				li := row + (i - own.Lo[0])
				u := lv.lwork[li]
				coords := [3]int{i, j, k}
				// Homogeneous Dirichlet at the physical domain faces:
				// the ghost cell mirrors with opposite sign (u_ghost =
				// -u), which adds 1 to the diagonal coefficient of
				// boundary cells.  Discretizing the boundary at the same
				// physical location on every level is what lets the
				// coarse-grid correction work near the walls.
				acc := 0.0
				diag := 0.0
				for d := 0; d < s.dim; d++ {
					cd := 2.0
					if coords[d] > 0 {
						acc -= inv[d] * lv.lwork[li-strides[d]]
					} else {
						cd++
					}
					if coords[d] < lv.da.GlobalSize(d)-1 {
						acc -= inv[d] * lv.lwork[li+strides[d]]
					} else {
						cd++
					}
					acc += cd * inv[d] * u
					diag += cd * inv[d]
				}
				oi := out + (i - own.Lo[0])
				if jac == nil {
					y[oi] = acc
				} else {
					y[oi] = u + omega/diag*(jac[oi]-acc)
				}
			}
		}
	}
	s.c.Compute(float64(own.Cells()) * float64(4*s.dim+3) * flopSec)
}

// boxRowIndex returns the flat index of cell (Lo[0], j, k) within box b.
func boxRowIndex(b dmda.Box, j, k int) int {
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	return ((k-b.Lo[2])*ny + (j - b.Lo[1])) * nx
}

// Smoother selects the multigrid relaxation scheme.
type Smoother uint8

const (
	// SmootherJacobi is damped (weighted) point Jacobi.
	SmootherJacobi Smoother = iota
	// SmootherChebyshev is Chebyshev-accelerated Jacobi, PETSc's default
	// multigrid smoother: a degree-k Chebyshev polynomial in D⁻¹A tuned to
	// damp the upper part of the spectrum.
	SmootherChebyshev
)

func (s Smoother) String() string {
	if s == SmootherJacobi {
		return "jacobi"
	}
	return "chebyshev"
}

// lvl formats a level index for span annotation.
func lvl(l int) obs.Attr { return obs.Attr{Key: "level", Val: strconv.Itoa(l)} }

// smooth runs sweeps of the configured smoother on level l for A x = b.
func (s *Solver) smooth(l, sweeps int, b, x *petsc.Vec) {
	start := s.c.Clock()
	defer func() {
		s.c.Span("smooth", start, lvl(l),
			obs.Attr{Key: "sweeps", Val: strconv.Itoa(sweeps)},
			obs.Attr{Key: "smoother", Val: s.Smoother.String()})
	}()
	if s.Smoother == SmootherChebyshev {
		s.smoothChebyshev(l, sweeps, b, x)
		return
	}
	lv := s.levels[l]
	xnew := lv.r // reuse residual storage as the sweep target
	for it := 0; it < sweeps; it++ {
		lv.da.GlobalToLocal(x, lv.lwork)
		s.stencil(lv, xnew.Array(), b.Array(), s.Omega)
		x.Copy(xnew)
	}
}

// smoothChebyshev runs a degree-`sweeps` Chebyshev polynomial smoother.
// The Jacobi-preconditioned operator D⁻¹A of the face-Dirichlet Laplacian
// has spectrum in (0, 2] by Gershgorin (rows are weakly diagonally
// dominant), so the smoothing window is fixed to [2/10, 2] — the usual
// [0.1, 1.1]·λmax style target without needing eigenvalue estimation.
func (s *Solver) smoothChebyshev(l, degree int, b, x *petsc.Vec) {
	if degree < 1 {
		return
	}
	lv := s.levels[l]
	if lv.d == nil {
		lv.d = b.Duplicate()
	}
	d := lv.d
	z := lv.r // z = D⁻¹(b - A x), computed via one damped-Jacobi evaluation

	// Smoothers only need to damp the oscillatory upper half of the
	// spectrum; targeting [λmax/4, 1.05·λmax] concentrates the polynomial
	// there (the coarse-grid correction handles the smooth rest).
	const lmax, lmin = 2.1, 0.5
	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	sigma := theta / delta

	// z = D⁻¹(b - A x) is the omega=1 Jacobi update minus x.
	jacz := func() {
		lv.da.GlobalToLocal(x, lv.lwork)
		s.stencil(lv, z.Array(), b.Array(), 1)
		z.AXPY(-1, x)
	}

	jacz()
	d.Copy(z)
	d.Scale(1 / theta)
	x.AXPY(1, d)
	rhoOld := 1 / sigma
	for k := 2; k <= degree; k++ {
		rho := 1 / (2*sigma - rhoOld)
		jacz()
		// d = rho*rhoOld*d + (2*rho/delta) z
		d.Scale(rho * rhoOld)
		d.AXPY(2*rho/delta, z)
		x.AXPY(1, d)
		rhoOld = rho
	}
}

// residual computes r = b - A x on level l.
func (s *Solver) residual(l int, b, x, r *petsc.Vec) {
	lv := s.levels[l]
	lv.da.GlobalToLocal(x, lv.lwork)
	s.stencil(lv, r.Array(), nil, 0)
	r.AYPX(-1, b)
}

// restrictTo restricts fine-level values r_f (level l) into the next
// coarser level's vector out using the scaled adjoint of the linear
// interpolation, R = Pᵀ/2^dim — full weighting with Dirichlet-consistent
// boundary treatment.
func (s *Solver) restrictTo(l int, rf, out *petsc.Vec) {
	start := s.c.Clock()
	defer func() { s.c.Span("restrict", start, lvl(l)) }()
	fine := s.levels[l]
	coarse := s.levels[l+1]
	fine.restrictSc.DoArrays(rf.Array(), fine.finePatch)

	cOwn := coarse.da.OwnedBox()
	box := fine.restrictBox
	scale := 1.0
	for d := 0; d < s.dim; d++ {
		scale /= 2
	}
	oa := out.Array()

	// candWeights fills, for coarse index I along dimension d, the fine
	// candidate indices and their adjoint weights.
	candWeights := func(d, ci int, fis *[4]int, ws *[4]float64) int {
		if d >= s.dim {
			fis[0], ws[0] = ci, 1
			return 1
		}
		nf := fine.da.GlobalSize(d)
		nc := coarse.da.GlobalSize(d)
		n := 0
		for fi := 2*ci - 1; fi < 2*ci+3; fi++ {
			if fi < 0 || fi >= nf {
				continue
			}
			lo, wLo, wHi := interpWeights(fi, true, nc)
			var w float64
			switch {
			case lo == ci:
				w = wLo
			case lo+1 == ci:
				w = wHi
			}
			if w != 0 {
				fis[n], ws[n] = fi, w
				n++
			}
		}
		return n
	}

	var fiX, fiY, fiZ [4]int
	var wX, wY, wZ [4]float64
	idx := 0
	for k := cOwn.Lo[2]; k < cOwn.Hi[2]; k++ {
		nz := candWeights(2, k, &fiZ, &wZ)
		for j := cOwn.Lo[1]; j < cOwn.Hi[1]; j++ {
			ny := candWeights(1, j, &fiY, &wY)
			for i := cOwn.Lo[0]; i < cOwn.Hi[0]; i++ {
				nx := candWeights(0, i, &fiX, &wX)
				sum := 0.0
				for a := 0; a < nz; a++ {
					for b := 0; b < ny; b++ {
						for c := 0; c < nx; c++ {
							sum += wZ[a] * wY[b] * wX[c] *
								fine.finePatch[patchIndex(box, fiX[c], fiY[b], fiZ[a])]
						}
					}
				}
				oa[idx] = sum * scale
				idx++
			}
		}
	}
	s.c.Compute(float64(cOwn.Cells()) * float64(int(4)<<uint(s.dim)) * flopSec)
}

// interpolateAdd interpolates the coarse correction xc (level l+1) linearly
// and adds it into the fine-level vector x (level l).
func (s *Solver) interpolateAdd(l int, xc, x *petsc.Vec) {
	start := s.c.Clock()
	defer func() { s.c.Span("prolong", start, lvl(l)) }()
	fine := s.levels[l]
	coarse := s.levels[l+1]
	fine.interpSc.DoArrays(xc.Array(), fine.coarsePatch)

	fOwn := fine.da.OwnedBox()
	box := fine.interpBox
	xa := x.Array()
	cn := coarse.da
	idx := 0
	for k := fOwn.Lo[2]; k < fOwn.Hi[2]; k++ {
		ck, wkLo, wkHi := interpWeights(k, s.dim > 2, cn.GlobalSize(2))
		for j := fOwn.Lo[1]; j < fOwn.Hi[1]; j++ {
			cj, wjLo, wjHi := interpWeights(j, s.dim > 1, cn.GlobalSize(1))
			for i := fOwn.Lo[0]; i < fOwn.Hi[0]; i++ {
				ci, wiLo, wiHi := interpWeights(i, s.dim > 0, cn.GlobalSize(0))
				v := 0.0
				for _, zk := range [2]cw{{ck, wkLo}, {ck + 1, wkHi}} {
					if zk.w == 0 {
						continue
					}
					for _, zj := range [2]cw{{cj, wjLo}, {cj + 1, wjHi}} {
						if zj.w == 0 {
							continue
						}
						for _, zi := range [2]cw{{ci, wiLo}, {ci + 1, wiHi}} {
							if zi.w == 0 {
								continue
							}
							v += zk.w * zj.w * zi.w * fine.coarsePatch[patchIndex(box, zi.c, zj.c, zk.c)]
						}
					}
				}
				xa[idx] += v
				idx++
			}
		}
	}
	s.c.Compute(float64(fOwn.Cells()) * float64(int(3)<<uint(s.dim)) * flopSec)
}

// cw pairs a coarse index with its interpolation weight.
type cw struct {
	c int
	w float64
}

// interpWeights returns, for fine cell index i along a split dimension, the
// lower coarse neighbor and the weights of the (lo, lo+1) pair under
// cell-centered linear interpolation.  At domain boundaries the missing
// neighbor is the homogeneous-Dirichlet face (value 0, half a coarse cell
// away), so the surviving weight becomes 0.5 — keeping interpolation
// consistent with the operator's boundary discretization.  For unsplit
// dimensions the cell maps to itself with full weight.
func interpWeights(i int, split bool, coarseN int) (lo int, wLo, wHi float64) {
	if !split {
		return i, 1, 0
	}
	c := i / 2
	if i%2 == 0 {
		lo, wLo, wHi = c-1, 0.25, 0.75
	} else {
		lo, wLo, wHi = c, 0.75, 0.25
	}
	if lo < 0 {
		return lo, 0, 0.5 // interpolate between the face (0) and coarse cell 0
	}
	if lo+1 >= coarseN {
		return lo, 0.5, 0 // interpolate between the last cell and the face
	}
	return lo, wLo, wHi
}

// patchIndex returns the flat index of cell (i,j,k) in a dof-1 patch box.
func patchIndex(b dmda.Box, i, j, k int) int {
	nx := b.Hi[0] - b.Lo[0]
	ny := b.Hi[1] - b.Lo[1]
	return ((k-b.Lo[2])*ny+(j-b.Lo[1]))*nx + (i - b.Lo[0])
}

// vcycle runs one V-cycle on level l for A_l x = b (x holds the initial
// guess and result).
func (s *Solver) vcycle(l int, b, x *petsc.Vec) {
	start := s.c.Clock()
	defer func() { s.c.Span("mg_level", start, lvl(l)) }()
	if l == len(s.levels)-1 {
		s.coarseSolve(l, b, x)
		return
	}
	s.smooth(l, s.Nu1, b, x)
	lv := s.levels[l]
	s.residual(l, b, x, lv.r)
	next := s.levels[l+1]
	s.restrictTo(l, lv.r, next.b)
	next.x.Set(0)
	s.vcycle(l+1, next.b, next.x)
	s.interpolateAdd(l, next.x, x)
	s.smooth(l, s.Nu2, b, x)
}

// coarseSolve solves A_l x = b on the coarsest level with unpreconditioned
// conjugate gradients, the stand-in for PETSc's (exact) coarse-grid solver.
// A V-cycle's overall contraction depends on the coarsest problem being
// solved accurately, not merely smoothed.  With agglomeration, inactive
// ranks skip the solve and the inner products run on the active-rank
// sub-communicator only.
func (s *Solver) coarseSolve(l int, b, x *petsc.Vec) {
	if s.skipInactive && s.coarseComm == nil {
		return // inactive rank: owns no coarse cells, rejoins at the transfer
	}
	start := s.c.Clock()
	defer func() { s.c.Span("coarse_solve", start, lvl(l)) }()
	dotComm := s.coarseComm // nil means reduce over the whole world

	lv := s.levels[l]
	dot := func(a, b *petsc.Vec) float64 {
		if dotComm == nil {
			return a.Dot(b)
		}
		sum := 0.0
		ba := b.Array()
		for i, v := range a.Array() {
			sum += v * ba[i]
		}
		s.c.Compute(float64(2*len(ba)) * flopSec)
		return dotComm.AllreduceScalar(sum, mpi.OpSum)
	}

	r := lv.r
	s.applyLevel(l, x, r)
	r.AYPX(-1, b) // r = b - A x
	rr := dot(r, r)
	bnorm := dot(b, b)
	if bnorm == 0 {
		bnorm = 1
	}
	tol2 := s.CoarseRtol * s.CoarseRtol * bnorm
	if rr <= tol2 {
		return
	}
	p := b.Duplicate()
	ap := b.Duplicate()
	p.Copy(r)
	for it := 0; it < s.CoarseIts; it++ {
		s.applyLevel(l, p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return
		}
		alpha := rr / pap
		x.AXPY(alpha, p)
		r.AXPY(-alpha, ap)
		rrNew := dot(r, r)
		if rrNew <= tol2 {
			return
		}
		p.AYPX(rrNew/rr, r)
		rr = rrNew
	}
}

// VCycle runs one V-cycle on the finest level for A x = b.  Collective.
func (s *Solver) VCycle(b, x *petsc.Vec) { s.vcycle(0, b, x) }

// Precondition implements ksp.Preconditioner: z = one V-cycle for A z = r
// starting from zero.
func (s *Solver) Precondition(r, z *petsc.Vec) {
	z.Set(0)
	s.vcycle(0, r, z)
}

// Solve iterates V-cycles until the residual 2-norm falls below rtol times
// the initial residual norm, or maxCycles is reached.  It returns the cycle
// count and the final relative residual.  Collective.
func (s *Solver) Solve(b, x *petsc.Vec, rtol float64, maxCycles int) (cycles int, relres float64) {
	lv := s.levels[0]
	s.History = s.History[:0]
	s.residual(0, b, x, lv.r)
	r0 := lv.r.Norm2()
	if r0 == 0 {
		return 0, 0
	}
	return s.solve(b, x, rtol, maxCycles, r0, 0)
}

// SolveFrom resumes an interrupted solve from a restored checkpoint: base
// cycles have already run (cycle numbering, and hence checkpoint
// iterations, continue from there) and r0 is the original solve's initial
// residual norm, so relative residuals — and rtol — mean exactly what they
// meant before the interruption.  On the same problem at the same world
// size, the resumed History is therefore the fault-free run's history from
// cycle base+1 on.  maxCycles is the remaining cycle budget; the returned
// cycle count excludes base.  R0 and base travel inside each Checkpoint,
// so a restore hands both straight back here.  Collective.
func (s *Solver) SolveFrom(b, x *petsc.Vec, rtol float64, maxCycles, base int, r0 float64) (cycles int, relres float64) {
	s.History = s.History[:0]
	if r0 <= 0 {
		s.residual(0, b, x, s.levels[0].r)
		r0 = s.levels[0].r.Norm2()
		if r0 == 0 {
			return 0, 0
		}
	}
	return s.solve(b, x, rtol, maxCycles, r0, base)
}

// solve is the shared V-cycle iteration of Solve and SolveFrom: residuals
// are measured against r0, cycles are numbered from base+1, and History
// holds one entry per executed cycle.
func (s *Solver) solve(b, x *petsc.Vec, rtol float64, maxCycles int, r0 float64, base int) (cycles int, relres float64) {
	solveStart := s.c.Clock()
	defer func() {
		s.c.Span("mg_solve", solveStart,
			obs.Attr{Key: "cycles", Val: strconv.Itoa(cycles)},
			obs.Attr{Key: "relres", Val: strconv.FormatFloat(relres, 'g', 4, 64)})
	}()
	lv := s.levels[0]
	for cycles = 0; cycles < maxCycles; cycles++ {
		if s.OnCycle != nil {
			if err := s.OnCycle(base + cycles + 1); err != nil {
				return cycles, relres
			}
		}
		cycleStart := s.c.Clock()
		s.VCycle(b, x)
		s.residual(0, b, x, lv.r)
		relres = lv.r.Norm2() / r0
		s.History = append(s.History, relres)
		s.c.Span("mg_cycle", cycleStart,
			obs.Attr{Key: "cycle", Val: strconv.Itoa(base + cycles + 1)},
			obs.Attr{Key: "relres", Val: strconv.FormatFloat(relres, 'g', 4, 64)})
		if relres <= rtol {
			cycles++
			break
		}
		if (s.OwnedCheckpoints != nil || s.Checkpoints != nil) && s.CheckpointEvery > 0 && (base+cycles+1)%s.CheckpointEvery == 0 {
			cpStart := s.c.Clock()
			if s.OwnedCheckpoints != nil {
				// Collective two-phase write of the owned values; the
				// local array of the global vector is already the file
				// view's contribution buffer (canonical box order).  A
				// returned error means the checkpoint epoch aborted
				// (injected I/O fault somewhere) — checkpointing stays
				// best-effort, and a rank failure mid-write resurfaces
				// in the next V-cycle's collectives for the caller's
				// recovery path.
				_ = s.OwnedCheckpoints.PutOwned(base+cycles+1, relres, r0, x.Array())
			} else {
				s.Checkpoints.Put(ksp.Checkpoint{
					Iteration: base + cycles + 1,
					Residual:  relres,
					R0:        r0,
					X:         lv.da.GatherNatural(x),
				})
			}
			s.c.Span("checkpoint", cpStart,
				obs.Attr{Key: "iteration", Val: strconv.Itoa(base + cycles + 1)})
		}
	}
	return cycles, relres
}

// Restore loads the latest checkpoint into x (the finest-level layout of
// this solver's — possibly re-decomposed — DA) and returns the iteration it
// was taken at.  Purely local: the checkpoint is replicated.  Returns -1
// when the store holds nothing.
func (s *Solver) Restore(st ksp.Store, x *petsc.Vec) int {
	cp, ok := st.Latest()
	if !ok {
		return -1
	}
	s.levels[0].da.ScatterNatural(cp.X, x)
	s.c.Span("restore", s.c.Clock(),
		obs.Attr{Key: "iteration", Val: strconv.Itoa(cp.Iteration)})
	return cp.Iteration
}

// RestoreAt loads the checkpoint taken at exactly the given iteration into
// x and returns it (for its R0 and Residual).  The recovery path uses it
// after the ranks agree on an iteration everyone can produce.  Purely
// local: the checkpoint is replicated.
func (s *Solver) RestoreAt(st ksp.Store, iteration int, x *petsc.Vec) (ksp.Checkpoint, bool) {
	cp, ok := st.At(iteration)
	if !ok {
		return ksp.Checkpoint{}, false
	}
	s.levels[0].da.ScatterNatural(cp.X, x)
	s.c.Span("restore", s.c.Clock(),
		obs.Attr{Key: "iteration", Val: strconv.Itoa(cp.Iteration)})
	return cp, true
}

// RestoreOwnedAt loads this rank's owned values of the checkpoint taken at
// exactly the given iteration into x via the store's data-sieving read —
// per-rank, no collective, no replicated gather — and returns its residual
// and r0 for SolveFrom.  The recovery path uses it after the ranks agree on
// an iteration everyone can produce.
func (s *Solver) RestoreOwnedAt(st ksp.OwnedStore, iteration int, x *petsc.Vec) (residual, r0 float64, ok bool) {
	residual, r0, err := st.ReadOwned(iteration, x.Array())
	if err != nil {
		return 0, 0, false
	}
	s.c.Span("restore", s.c.Clock(),
		obs.Attr{Key: "iteration", Val: strconv.Itoa(iteration)},
		obs.Attr{Key: "sieve", Val: "1"})
	return residual, r0, true
}

// RevokeComms revokes the solver's communicators — the one it was built on
// and the agglomerated coarse sub-communicator, if any — so members still
// blocked in a broken collective abandon it with ErrRevoked and join the
// recovery.  The first rank to observe a failure calls this before
// mpi.Comm.Restore or Shrink.
func (s *Solver) RevokeComms() {
	s.c.Revoke()
	if s.coarseComm != nil {
		s.coarseComm.Revoke()
	}
}
