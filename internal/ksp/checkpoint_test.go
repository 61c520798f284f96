package ksp

import "testing"

func fsCheckpoint(iter int) Checkpoint {
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(iter*1000+i) / 7.0
	}
	return Checkpoint{Iteration: iter, Residual: 1.0 / float64(iter+1), R0: 42.5, X: x}
}

// TestCheckpointStoreRetention: the in-memory store keeps the most recent
// keepCheckpoints iterations, overwrites duplicates idempotently, and
// serves At/Iterations for the availability agreement.
func TestCheckpointStoreRetention(t *testing.T) {
	var st CheckpointStore
	for it := 1; it <= 6; it++ {
		st.Put(fsCheckpoint(it))
	}
	st.Put(fsCheckpoint(5)) // duplicate: overwrite, not grow
	its := st.Iterations()
	if len(its) != keepCheckpoints || its[0] != 3 || its[len(its)-1] != 6 {
		t.Fatalf("retained %v", its)
	}
	if cp, ok := st.At(4); !ok || cp.Iteration != 4 {
		t.Fatalf("At(4): %+v ok=%v", cp, ok)
	}
	if cp, ok := st.Latest(); !ok || cp.Iteration != 6 {
		t.Fatalf("Latest: %+v ok=%v", cp, ok)
	}
	st.Clear()
	if _, ok := st.Latest(); ok || len(st.Iterations()) != 0 {
		t.Fatal("Clear left checkpoints behind")
	}
}
