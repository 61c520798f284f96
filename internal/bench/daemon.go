package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"nccd/internal/ckptio"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// RankReport is one multi-process rank's result, serialized as JSON on the
// daemon's stdout (prefixed "RESULT ") and parsed by the launcher.
type RankReport struct {
	Rank    int                `json:"rank"`
	Seconds float64            `json:"seconds"`
	Cycles  int                `json:"cycles"`
	RelRes  float64            `json:"relres"`
	History []float64          `json:"history"`
	Stats   transport.TCPStats `json:"stats"`
	// ShmStats carries the shared-memory endpoint's counters on
	// hierarchical (pernode > 1) runs; nil on flat TCP runs.
	ShmStats *shm.Stats `json:"shm_stats,omitempty"`
	// Trace is the path of this rank's Chrome trace file, when tracing
	// was requested.
	Trace string `json:"trace,omitempty"`
	// Self-healing outcome (zero values outside -selfheal runs): the
	// committed membership epoch, the checkpoint iteration the final
	// attempt resumed from (-1 = never interrupted), how many failures
	// were ridden out, and the final communicator size.
	Epoch      uint64 `json:"epoch,omitempty"`
	RestoredAt int    `json:"restored_at,omitempty"`
	Recoveries int    `json:"recoveries,omitempty"`
	FinalSize  int    `json:"final_size,omitempty"`
	Healed     bool   `json:"healed,omitempty"`
}

// DaemonObs configures a rank daemon's observability surfaces.
type DaemonObs struct {
	// TracePath, when non-empty, enables span recording for the run and
	// writes this rank's Chrome trace file there afterwards.  The
	// launcher merges the per-rank files with obs.MergeChromeTraceFiles.
	TracePath string
	// MetricsAddr, when non-empty, serves the process metrics registry
	// (plan cache, pool, reliability counters, live TCP endpoint stats)
	// over HTTP for the duration of the run.  The caller learns the
	// bound address — ":0" picks an ephemeral port — from the daemon's
	// "METRICS <addr>" stdout line.  The live communication-matrix
	// dashboard is served at /dash on the same listener.
	MetricsAddr string
	// SpansPath, when non-empty, enables span recording and writes this
	// rank's raw spans (obs.WriteSpansFile format, attributes included)
	// there afterwards, for the launcher's cross-rank analysis pass.
	SpansPath string
}

// obsSetup applies the pre-run daemon observability surfaces shared by the
// daemon variants; the returned func tears them down.
func obsSetup(w *mpi.World, rw *rankWire, rank int, ob DaemonObs) (func(), error) {
	if ob.TracePath != "" || ob.SpansPath != "" {
		w.Tracer().Enable()
	}
	if ob.MetricsAddr == "" {
		return func() {}, nil
	}
	unreg := registerWireMetrics(rw, rank)
	matName := fmt.Sprintf("mpi.comm_matrix.rank%d", rank)
	obs.Metrics.RegisterFunc(matName, func() any { return w.CommMatrix() })
	srv, err := obs.ServeMetrics(ob.MetricsAddr, obs.Metrics)
	if err != nil {
		unreg()
		obs.Metrics.Unregister(matName)
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	fmt.Printf("METRICS %s\n", srv.Addr())
	return func() {
		srv.Close()
		obs.Metrics.Unregister(matName)
		unreg()
	}, nil
}

// obsFinish writes the post-run observability artifacts.
func obsFinish(w *mpi.World, rank int, ob DaemonObs, rep *RankReport) error {
	if ob.TracePath != "" {
		if err := obs.WriteChromeTraceFile(ob.TracePath, w.Tracer().Spans(), rank); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		rep.Trace = ob.TracePath
	}
	if ob.SpansPath != "" {
		if err := obs.WriteSpansFile(ob.SpansPath, w.Tracer()); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}

// ArmByName maps a command-line arm name to an MPI build and scatter
// backend: "baseline" (MVAPICH2-0.9.5), "optimized" (MVAPICH2-New),
// "compiled" (optimized + compiled datatype plans), "hand" (hand-tuned
// scatter over the baseline build).
func ArmByName(name string) (mpi.Config, petsc.ScatterMode, error) {
	switch name {
	case "baseline":
		return mpi.Baseline(), petsc.ScatterDatatype, nil
	case "optimized":
		return mpi.Optimized(), petsc.ScatterDatatype, nil
	case "compiled":
		return mpi.Compiled(), petsc.ScatterDatatype, nil
	case "hand":
		return mpi.Baseline(), petsc.ScatterHandTuned, nil
	default:
		return mpi.Config{}, 0, fmt.Errorf("unknown arm %q (want baseline, optimized, compiled or hand)", name)
	}
}

// Placement describes how a rank daemon's world is laid out across
// nodes.  The zero value is the flat layout: every rank on its own node,
// all traffic over TCP.  With PerNode > 1 ranks are grouped PerNode to a
// node (node id = rank / PerNode), co-located ranks exchange over a
// shared-memory segment under ShmDir, and only the node leaders' traffic
// crosses TCP — the layout the hierarchy-aware collectives exploit.
type Placement struct {
	PerNode int    // co-located ranks per node (0 or 1 = flat TCP)
	ShmDir  string // directory for the per-node segment files (PerNode > 1)
}

// Hierarchical reports whether the placement groups ranks onto nodes.
func (pl Placement) Hierarchical() bool { return pl.PerNode > 1 }

// NodeOf returns the node map for an n-rank world, nil for the flat
// layout.
func (pl Placement) NodeOf(n int) []int {
	if !pl.Hierarchical() {
		return nil
	}
	m := make([]int, n)
	for r := range m {
		m[r] = r / pl.PerNode
	}
	return m
}

// rankWire bundles one rank's transport stack: the endpoint the world
// sends through plus the constituent endpoints for stats reporting.
type rankWire struct {
	tr  transport.Transport
	tcp *transport.TCP
	shm *shm.Transport // nil on flat placements
	cl  *simnet.Cluster
}

func (rw *rankWire) shmStats() *shm.Stats {
	if rw.shm == nil {
		return nil
	}
	s := rw.shm.Stats()
	return &s
}

// buildWire constructs one rank's transport per the placement: plain TCP
// for the flat layout, or a Hierarchical router of a shared-memory
// segment (intra-node) and TCP (inter-node).  The returned cluster
// mirrors the layout so virtual-time tooling and the mpi topology agree
// with the wires.
func buildWire(tcfg transport.TCPConfig, pl Placement) (*rankWire, error) {
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return nil, err
	}
	if !pl.Hierarchical() {
		cl := simnet.Uniform(tcfg.Size, simnet.IBDDR())
		cl.Faults = tcfg.Faults
		return &rankWire{tr: tcp, tcp: tcp, cl: cl}, nil
	}
	if tcfg.Size%pl.PerNode != 0 {
		tcp.Close()
		return nil, fmt.Errorf("world size %d not divisible by pernode %d", tcfg.Size, pl.PerNode)
	}
	if pl.ShmDir == "" {
		tcp.Close()
		return nil, fmt.Errorf("hierarchical placement needs a segment directory")
	}
	nodeOf := pl.NodeOf(tcfg.Size)
	node := nodeOf[tcfg.Rank]
	ranks := make([]int, 0, pl.PerNode)
	for r, nd := range nodeOf {
		if nd == node {
			ranks = append(ranks, r)
		}
	}
	st, err := shm.New(shm.Config{
		Rank:      tcfg.Rank,
		Size:      tcfg.Size,
		Ranks:     ranks,
		WorldID:   tcfg.WorldID,
		Path:      filepath.Join(pl.ShmDir, fmt.Sprintf("world%d-node%d.shm", tcfg.WorldID, node)),
		Heartbeat: tcfg.Heartbeat,
		Epoch:     tcfg.Epoch,
		Rejoin:    tcfg.Rejoin,
	})
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("shared-memory segment: %w", err)
	}
	hier, err := transport.NewHierarchical(tcfg.Rank, nodeOf, st, tcp)
	if err != nil {
		st.Close()
		tcp.Close()
		return nil, err
	}
	cl := simnet.TwoLevel(tcfg.Size/pl.PerNode, pl.PerNode, simnet.IBDDR(), simnet.ShmIntra())
	cl.Faults = tcfg.Faults
	return &rankWire{tr: hier, tcp: tcp, shm: st, cl: cl}, nil
}

// registerWireMetrics publishes the endpoints' counters in the process
// metrics registry.  The stats are per-endpoint, so each rank registers
// under its own name — "transport.tcp.rank<N>", "transport.shm.rank<N>"
// — and a scraper that wants totals sums the labeled entries itself;
// registering them under one shared name would silently clobber (not
// aggregate) when ranks share a process.  The returned func unregisters.
func registerWireMetrics(rw *rankWire, rank int) func() {
	tcpName := fmt.Sprintf("transport.tcp.rank%d", rank)
	obs.Metrics.RegisterFunc(tcpName, func() any { return rw.tcp.Stats() })
	shmName := ""
	if rw.shm != nil {
		shmName = fmt.Sprintf("transport.shm.rank%d", rank)
		obs.Metrics.RegisterFunc(shmName, func() any { return rw.shm.Stats() })
	}
	return func() {
		obs.Metrics.Unregister(tcpName)
		if shmName != "" {
			obs.Metrics.Unregister(shmName)
		}
	}
}

// RunMultigridDaemon hosts one rank of the multigrid solve over TCP —
// or, with a hierarchical placement, over shared memory within the node
// and TCP across nodes: it builds the transport from tcfg and pl, joins
// the world, solves, and reports the local result plus the endpoints'
// wire statistics.  tcfg's fault plan is injected below the TCP framing
// layer AND installed as the cluster's plan, so scheduled crashes
// (CrashAt) fire off the local virtual clock; link-fault simulation in
// virtual time is skipped in wall mode, so the plan is never applied
// twice.
func RunMultigridDaemon(tcfg transport.TCPConfig, pl Placement, cfg mpi.Config, p MultigridParams, mode petsc.ScatterMode, ob DaemonObs) (RankReport, error) {
	rw, err := buildWire(tcfg, pl)
	if err != nil {
		return RankReport{}, err
	}
	w, err := mpi.NewWorldTransport(rw.tr, rw.cl, cfg)
	if err != nil {
		rw.tr.Close()
		return RankReport{}, err
	}
	defer w.Close()
	obsDown, err := obsSetup(w, rw, tcfg.Rank, ob)
	if err != nil {
		return RankReport{}, err
	}
	defer obsDown()
	res := RunMultigridWorld(w, p, mode)
	rep := RankReport{
		Rank:     tcfg.Rank,
		Seconds:  res.Seconds,
		Cycles:   res.Cycles,
		RelRes:   res.RelRes,
		History:  res.History,
		Stats:    rw.tcp.Stats(),
		ShmStats: rw.shmStats(),
	}
	if err := obsFinish(w, tcfg.Rank, ob, &rep); err != nil {
		return RankReport{}, err
	}
	return rep, nil
}

// SelfHealDaemon configures a rank daemon's self-healing additions.
type SelfHealDaemon struct {
	// CkptDir is the shared checkpoint directory (required): every rank
	// checkpoints through the collective I/O layer there — two-phase
	// aggregated writes into one shared file per checkpoint, data-sieving
	// restore of just the owned range — so a respawned process finds its
	// pre-crash state on disk.
	CkptDir string
	// CheckpointEvery is the V-cycle checkpoint period.  Default 1.
	CheckpointEvery int
	// RejoinEpoch marks this process as a replacement joining recovery
	// number RejoinEpoch (the launcher's respawn count).
	RejoinEpoch uint64
	// AwaitTimeout bounds how long survivors wait for a replacement.
	AwaitTimeout time.Duration
	// OnCheckpoint and OnRecovered announce progress (the launcher's
	// chaos controller keys its kill and MTTR clock off these).
	OnCheckpoint func(iteration int)
	OnRecovered  func(epoch uint64, restoredAt int)
	// Aggregators and StripeBytes configure the collective layout
	// (defaults: 2 aggregators, 256 KiB stripes).
	Aggregators int
	StripeBytes int64
	// IOFaults, when non-empty, wraps this rank's filesystem in the
	// fault-injecting ckptio.FaultFS — syntax as ckptio.ParseFaultPlan
	// ("short=0.2,eio=0.1,fsync=0.1,enospc=65536,crash=12,seed=7").
	IOFaults string
}

// RunMultigridSelfHealDaemon hosts one rank of the self-healing multigrid
// solve over TCP: like RunMultigridDaemon, but checkpoints durably, rides
// out peer failures through the epoch/rejoin recovery loop, and — when
// launched with RejoinEpoch — comes up as a replacement that restores the
// agreed checkpoint into the regrown world instead of starting over.
func RunMultigridSelfHealDaemon(tcfg transport.TCPConfig, pl Placement, cfg mpi.Config, p MultigridParams, mode petsc.ScatterMode, ob DaemonObs, hd SelfHealDaemon) (RankReport, error) {
	rw, err := buildWire(tcfg, pl)
	if err != nil {
		return RankReport{}, err
	}
	w, err := mpi.NewWorldTransport(rw.tr, rw.cl, cfg)
	if err != nil {
		rw.tr.Close()
		return RankReport{}, err
	}
	defer w.Close()
	obsDown, err := obsSetup(w, rw, tcfg.Rank, ob)
	if err != nil {
		return RankReport{}, err
	}
	defer obsDown()

	var plan *ckptio.FaultPlan
	if hd.IOFaults != "" {
		plan, err = ckptio.ParseFaultPlan(hd.IOFaults)
		if err != nil {
			return RankReport{}, err
		}
	}

	if hd.CkptDir == "" {
		return RankReport{}, fmt.Errorf("self-healing daemon needs a checkpoint directory")
	}
	store, err := ckptio.NewStore(hd.CkptDir, nil, ckptio.Options{
		StripeBytes: hd.StripeBytes,
		Aggregators: hd.Aggregators,
		Faults:      plan,
		OnCommit:    hd.OnCheckpoint,
	})
	if err != nil {
		return RankReport{}, err
	}

	var res SelfHealResult
	wall0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		r, herr := SelfHealMultigrid(c, p, mode, nil, HealParams{
			CheckpointEvery: hd.CheckpointEvery,
			RejoinEpoch:     hd.RejoinEpoch,
			AwaitTimeout:    hd.AwaitTimeout,
			OnRecovered:     hd.OnRecovered,
			Collective:      store,
		})
		if herr != nil {
			return herr
		}
		res = r
		return nil
	})
	if err != nil {
		return RankReport{}, err
	}
	rep := RankReport{
		Rank:       tcfg.Rank,
		Seconds:    time.Since(wall0).Seconds(),
		Cycles:     res.Cycles,
		RelRes:     res.RelRes,
		History:    res.History,
		Stats:      rw.tcp.Stats(),
		ShmStats:   rw.shmStats(),
		Epoch:      res.Epoch,
		RestoredAt: res.RestoredAt,
		Recoveries: res.Recoveries,
		FinalSize:  res.FinalSize,
		Healed:     res.Healed,
	}
	if err := obsFinish(w, tcfg.Rank, ob, &rep); err != nil {
		return RankReport{}, err
	}
	return rep, nil
}
