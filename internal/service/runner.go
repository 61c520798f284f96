package service

import (
	"errors"
	"fmt"
	"path/filepath"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/simnet"
)

// runJob hosts this daemon's rank of one tenant attempt: build the job's
// virtual transport (mux Sub under the attempt's internal id), a world
// labeled with the external job id, per-job metrics and checkpointing,
// then run the solve and report the outcome to the controller.  Spawned
// by applyCtl on a start message; s.localWG tracks it for drain.
func (s *Service) runJob(m ctlMsg) {
	defer s.localWG.Done()
	rep := ctlMsg{Type: "report", Ext: m.Ext, Int: m.Int, Rank: s.cfg.Rank}
	defer func() { s.report(rep) }()

	me := -1
	for i, r := range m.Ranks {
		if r == s.cfg.Rank {
			me = i
		}
	}
	if me < 0 {
		rep.Status = "failed"
		rep.Error = fmt.Sprintf("rank %d not in job ranks %v", s.cfg.Rank, m.Ranks)
		return
	}
	sub, err := s.mux.Sub(m.Int, m.Ranks)
	if err != nil {
		rep.Status = "failed"
		rep.Error = err.Error()
		return
	}
	cfg := s.cfg.MPI
	cfg.Job = m.Ext // spans and API state are per external job; the wire id is per attempt
	w, err := mpi.NewWorldTransport(sub, simnet.Uniform(len(m.Ranks), simnet.IBDDR()), cfg)
	if err != nil {
		sub.Close()
		rep.Status = "failed"
		rep.Error = err.Error()
		return
	}
	defer w.Close()

	matName := fmt.Sprintf("mpi.comm_matrix.job%d.rank%d", m.Ext, s.cfg.Rank)
	obs.Metrics.RegisterFunc(matName, func() any { return w.CommMatrix() })
	defer obs.Metrics.Unregister(matName)

	s.localMu.Lock()
	s.local[m.Int] = w
	s.localMu.Unlock()
	defer func() {
		s.localMu.Lock()
		delete(s.local, m.Int)
		s.localMu.Unlock()
	}()

	s.sch.Register(m.Int, m.Spec.Weight)
	defer s.sch.Unregister(m.Int)

	var store *ckptio.Store
	if s.cfg.CkptDir != "" {
		store, err = ckptio.NewStore(filepath.Join(s.cfg.CkptDir, fmt.Sprintf("job%d", m.Ext)), nil, ckptio.Options{})
		if err != nil {
			rep.Status = "failed"
			rep.Error = fmt.Sprintf("checkpoint store: %v", err)
			return
		}
		// Attempt ids only grow, so a relaunched attempt's commits sort
		// after — and are never evicted in favor of — the failed
		// attempt's.
		store.SetEpoch(m.Int)
	}

	p := bench.MultigridParams{
		Extent:    m.Spec.Extent,
		Levels:    m.Spec.Levels,
		Rtol:      m.Spec.Rtol,
		MaxCycles: m.Spec.MaxCycles,
		Chebyshev: m.Spec.Chebyshev,
	}
	var res bench.MultigridResult
	err = w.Run(func(c *mpi.Comm) error {
		r, rerr := bench.MultigridRank(c, p, s.cfg.Mode, bench.MultigridRankOptions{
			OnCycle: func(cycle int) error {
				if me == 0 {
					// Progress heartbeat for supervisors (the stress driver
					// keys its mid-run fault injection off these).
					s.event(fmt.Sprintf("JOB %d cycle %d", m.Ext, cycle))
				}
				return s.sch.Acquire(m.Int, w.Canceled)
			},
			Store:           store,
			CheckpointEvery: s.cfg.CheckpointEvery,
			Resume:          m.Resume,
		})
		res = r
		return rerr
	})
	rep.Cycles = res.Cycles
	rep.RelRes = res.RelRes
	rep.Seconds = res.Seconds
	rep.History = res.History
	rep.Base = res.Restored
	switch {
	case err == nil:
		rep.Status = "ok"
	case w.Canceled() || errors.Is(err, errSchedCanceled) || errors.Is(err, mpi.ErrRevoked):
		rep.Status = "canceled"
		rep.Error = err.Error()
	default:
		rep.Status = "failed"
		rep.Error = err.Error()
	}
}

// report hands a locally generated attempt outcome to the control plane:
// the controller consumes the channel directly on rank 0, workers flush
// it to rank 0 over the control world.
func (s *Service) report(m ctlMsg) {
	select {
	case s.reports <- m:
	default:
		// A full channel means the control loop is gone (drain raced a
		// report); dropping is safe — the attempt is already terminal.
	}
}
