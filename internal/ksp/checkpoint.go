package ksp

// Store is the checkpoint surface a solver writes to and a recovery reads
// from.  Each rank contributes only its owned values (in its
// decomposition's canonical order) and the store makes the union durable
// collectively — the ckptio.Store two-phase write.  Reads are per-rank
// data sieving: a rank restores exactly its owned values, no replicated
// gather.  The interface is builtin-typed so the I/O layer below can
// implement it without importing the solver stack.
//
// PutOwned is collective and returns an error when the checkpoint epoch
// aborted (injected I/O fault on any rank, commit failure); rank death
// inside it surfaces as the mpi layer's typed errors for the caller's
// recovery path.  Iterations only advertises checkpoints that fully
// validate from this rank's perspective, so damaged files drop out of the
// restore-availability agreement that follows a failure (stores may have
// diverged).
type Store interface {
	PutOwned(iteration int, residual, r0 float64, data []float64) error
	ReadOwned(iteration int, dst []float64) (residual, r0 float64, err error)
	Iterations() []int
}
