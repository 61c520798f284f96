package main

import (
	"fmt"
	"sync/atomic"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// setupSamples is how many times a solve workload sets up; setup_s is
// their median.
const setupSamples = 3

// runFig17 is the Fig. 17 point: 32 ranks of the paper testbed on the
// virtual clock, a 100^3 grid with 3 levels, on the MVAPICH2-New arm.  The
// reference history comes from the hand-tuned arm on the same
// decomposition, so every timed solve is also the paper's claim that the
// datatype path computes exactly what hand-tuned PETSc computes.
func runFig17(cfg runConfig) (*report, error) {
	const n = 32
	p := problem{extent: 100, levels: 3, rtol: 1e-6, maxCycles: 30,
		mode: petsc.ScatterDatatype, scale: forcingScale(cfg.seed)}
	pool0 := datatype.PoolOutstandingBytes()
	hand := p
	hand.mode = petsc.ScatterHandTuned
	ref, _, err := referenceSolve(core.NewPaperWorld(n, mpi.Baseline()), hand)
	if err != nil {
		return nil, fmt.Errorf("hand-tuned reference: %w", err)
	}
	var op atomic.Int64
	ss, err := solveSetups(setupSamples, func(keep bool) (*session, error) {
		s := newSession(p, cfg, ref, n, keep, &op)
		d := newCounted(transport.NewInproc(n), cfg.spans, &op)
		s.decos = []*counted{d}
		w, err := mpi.NewWorldTransport(d.Transport(), simnet.Paper(n), mpi.Optimized())
		if err != nil {
			return nil, err
		}
		if err := w.Run(s.body); err != nil {
			return nil, err
		}
		s.selfFrac = selfBytesFrac(w.CommMatrix())
		return s, w.Close()
	})
	if err != nil {
		return nil, err
	}
	rep := solveReport(ss, 0)
	rep.setLayer("datatype.pool_outstanding_delta_bytes", float64(datatype.PoolOutstandingBytes()-pool0), "B")
	return rep, nil
}
