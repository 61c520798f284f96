package ksp

import (
	"sort"
	"sync"
)

// Checkpoint is a decomposition-independent snapshot of solver state: the
// iterate in natural (global grid) order plus where the solve was.  For the
// stationary solvers used here (Richardson, multigrid V-cycles) the iterate
// is the whole state — restarting from it as the initial guess loses no
// convergence history — and for CG a restart merely re-enters steepest
// descent from a much better guess.
type Checkpoint struct {
	Iteration int
	Residual  float64 // relative residual at Iteration
	// R0 is the initial absolute residual norm of the original solve.
	// Resuming with it keeps relative residuals — and the caller's rtol —
	// meaning exactly what they meant before the interruption, so a resumed
	// history is directly comparable to the fault-free one.
	R0 float64
	X  []float64 // natural-order iterate, replicated on every rank
}

// Store is the replicated checkpoint spill a solver writes to and a
// recovery reads from.  CheckpointStore keeps recent checkpoints in memory
// (shared by all ranks of an in-process world); checkpoints that must
// survive the death of the process itself go through an OwnedStore.  After
// a failure the ranks agree on an iteration every survivor can produce
// (stores may have diverged), hence At and Iterations alongside Latest.
type Store interface {
	// Put records cp.  Every rank of a solve calls Put with an identical
	// snapshot; implementations are idempotent under those racing writes.
	Put(cp Checkpoint)
	// Latest returns the most recent checkpoint, if any.  The returned X
	// must not be modified.
	Latest() (Checkpoint, bool)
	// At returns the checkpoint taken at exactly the given iteration.
	At(iteration int) (Checkpoint, bool)
	// Iterations lists the retained checkpoint iterations, ascending.
	Iterations() []int
}

// OwnedStore is the collective-checkpoint counterpart of Store: instead of
// every rank Put-ting an identical replicated snapshot, each rank
// contributes only its owned values (in its decomposition's canonical
// order) and the store makes the union durable collectively — the
// ckptio.Store two-phase write.  Reads are per-rank data sieving: a rank
// restores exactly its owned values, no replicated gather.  The interface
// is builtin-typed so the I/O layer below can implement it without
// importing the solver stack.
//
// PutOwned is collective and returns an error when the checkpoint epoch
// aborted (injected I/O fault on any rank, commit failure); rank death
// inside it surfaces as the mpi layer's typed errors for the caller's
// recovery path.  Iterations only advertises checkpoints that fully
// validate from this rank's perspective, so damaged files drop out of the
// restore-availability agreement exactly as with Store.
type OwnedStore interface {
	PutOwned(iteration int, residual, r0 float64, data []float64) error
	ReadOwned(iteration int, dst []float64) (residual, r0 float64, err error)
	Iterations() []int
}

// keepCheckpoints bounds how many recent checkpoints the in-memory store
// retains: enough that ranks whose latest snapshots diverged (a rank died
// mid-Put) still share an older common iteration, without unbounded growth.
const keepCheckpoints = 4

// CheckpointStore holds the most recent checkpoints of a solve in memory.
// In the in-process runtime all ranks share the store, so a checkpoint
// survives any subset of rank crashes; the durable counterpart for
// multi-process runs is an OwnedStore.  Safe for concurrent use.
type CheckpointStore struct {
	mu  sync.Mutex
	cps []Checkpoint // ascending by iteration
}

// Put records cp, keeping the keepCheckpoints most recent iterations.  A
// duplicate iteration overwrites in place (replicas write identical data),
// which makes the store idempotent under racing rank writes and under a
// restarted solve re-saving an earlier iteration.
func (st *CheckpointStore) Put(cp Checkpoint) {
	x := make([]float64, len(cp.X))
	copy(x, cp.X)
	cp.X = x
	st.mu.Lock()
	defer st.mu.Unlock()
	i := sort.Search(len(st.cps), func(i int) bool { return st.cps[i].Iteration >= cp.Iteration })
	if i < len(st.cps) && st.cps[i].Iteration == cp.Iteration {
		st.cps[i] = cp
		return
	}
	st.cps = append(st.cps, Checkpoint{})
	copy(st.cps[i+1:], st.cps[i:])
	st.cps[i] = cp
	if len(st.cps) > keepCheckpoints {
		st.cps = append(st.cps[:0:0], st.cps[len(st.cps)-keepCheckpoints:]...)
	}
}

// Latest returns the most recent checkpoint, if any.  The returned X must
// not be modified.
func (st *CheckpointStore) Latest() (Checkpoint, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.cps) == 0 {
		return Checkpoint{}, false
	}
	return st.cps[len(st.cps)-1], true
}

// At returns the checkpoint taken at exactly the given iteration.
func (st *CheckpointStore) At(iteration int) (Checkpoint, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, cp := range st.cps {
		if cp.Iteration == iteration {
			return cp, true
		}
	}
	return Checkpoint{}, false
}

// Iterations lists the retained checkpoint iterations, ascending.
func (st *CheckpointStore) Iterations() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	its := make([]int, len(st.cps))
	for i, cp := range st.cps {
		its[i] = cp.Iteration
	}
	return its
}

// Clear drops every stored checkpoint (between unrelated solves).
func (st *CheckpointStore) Clear() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cps = nil
}
