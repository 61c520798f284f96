// Command nccdd hosts one rank of a multi-process nccd world: it connects
// to its peers over TCP (the full mesh is established during startup),
// runs the 3-D Laplacian multigrid solve, and prints its result as a
// "RESULT {json}" line on stdout.  It is normally spawned by
// `mgsolve -tcp N`, one process per rank, but can be launched by hand:
//
//	nccdd -rank 0 -n 2 -addrs 127.0.0.1:7001,127.0.0.1:7002 &
//	nccdd -rank 1 -n 2 -addrs 127.0.0.1:7001,127.0.0.1:7002
//
// With -pernode K (and a shared -shmdir) ranks are grouped K to a node:
// co-located ranks exchange over a lock-free shared-memory segment and
// only inter-node traffic crosses TCP, which also switches the mpi layer
// to its hierarchy-aware collectives.
//
// A seeded fault plan (-drop/-corrupt/-dup/-delaymean/-seed) is injected
// below the TCP framing layer, exercising the transport's CRC trailer and
// ack/retransmission protocol against real sockets; -crashat schedules a
// local-rank crash in virtual time for fault-tolerance experiments.
//
// With -ckpt DIR the daemon checkpoints the solve into DIR and rides out
// peer failures through the epoch/rejoin recovery protocol instead of
// aborting; a supervisor relaunches a killed rank with -rejoin -epoch N
// and the same rank/address, and the replacement restores the agreed
// checkpoint into the regrown full-size world.  -selfheal and -rejoin
// require -ckpt, since a respawned process can only restore from disk.
// -hb enables the heartbeat failure detector so hung (not just dead) peers
// are caught.
//
// Checkpoints use collective I/O: each checkpoint is ONE shared file
// written by -aggr aggregator ranks in -stripe byte stripes (two-phase
// aggregation), and a restore is a local data-sieving read of just the
// owned range.  -iofault injects filesystem faults (short writes, EIO,
// ENOSPC, fsync failure, crash-between-write-and-rename) into it.
//
// With -serve ADDR the daemon stops being a one-shot solver and becomes
// one rank of a long-lived multi-tenant solver service: rank 0 serves the
// job API (POST /jobs, GET /jobs/<id>, POST /jobs/<id>/cancel) plus
// /debug/metrics and /dash on ADDR (printed as a "SERVICE <addr>" line),
// and every rank hosts its share of the submitted jobs, each in its own
// communicator namespace on the shared mesh.  SIGTERM drains: running
// jobs are canceled, then every daemon exits cleanly.  A SIGKILLed rank
// is respawned by its supervisor with -rejoin -epoch N and the same
// rank/address; only the jobs mapped onto that rank abort — they heal
// from their own checkpoints (-ckpt) while untouched jobs run on
// undisturbed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nccd/internal/bench"
	"nccd/internal/mpi"
	"nccd/internal/obs"
	"nccd/internal/petsc"
	"nccd/internal/service"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

func main() {
	rank := flag.Int("rank", -1, "world rank of this process")
	n := flag.Int("n", 0, "world size")
	addrList := flag.String("addrs", "", "comma-separated listen addresses, one per rank")
	worldID := flag.Uint64("world", 1, "world id (must match across ranks)")
	arm := flag.String("arm", "compiled", "experimental arm: baseline, optimized, compiled or hand")
	extent := flag.Int("extent", 64, "cubic grid extent")
	levels := flag.Int("levels", 3, "multigrid levels")
	rtol := flag.Float64("rtol", 1e-6, "relative tolerance")
	maxCycles := flag.Int("maxcycles", 30, "V-cycle cap")
	drop := flag.Float64("drop", 0, "frame drop probability (injected below TCP framing)")
	corrupt := flag.Float64("corrupt", 0, "frame corruption probability")
	dup := flag.Float64("dup", 0, "frame duplication probability")
	delayMean := flag.Float64("delaymean", 0, "mean injected frame delay in seconds")
	seed := flag.Uint64("seed", 1, "fault plan seed")
	crashAt := flag.Float64("crashat", 0, "virtual time at which this rank crashes (0 = never)")
	ackTimeout := flag.Duration("acktimeout", 20*time.Millisecond, "wall-clock wait before the first retransmission")
	trace := flag.String("trace", "", "write this rank's Chrome trace JSON to the given path")
	spans := flag.String("spans", "", "write this rank's raw spans (matching identities included) to the given path for cross-rank analysis")
	metrics := flag.String("metrics", "", "serve the metrics registry over HTTP at this address (e.g. 127.0.0.1:0); the bound address is printed as a METRICS line")
	dash := flag.Bool("dash", false, "serve the live communication-matrix dashboard at /dash on the -metrics listener (implies -metrics 127.0.0.1:0 when unset)")
	selfheal := flag.Bool("selfheal", false, "ride out peer failures: checkpoint, and recover via epoch bump + rejoin instead of aborting (requires -ckpt)")
	ckptDir := flag.String("ckpt", "", "durable checkpoint directory (shared across ranks; implies -selfheal)")
	ckptEvery := flag.Int("ckptevery", 1, "checkpoint period in V-cycles for -selfheal runs")
	rejoin := flag.Bool("rejoin", false, "this process replaces a failed rank: dial the whole surviving mesh and restore from checkpoint")
	epoch := flag.Uint64("epoch", 0, "membership epoch a -rejoin replacement joins at (the launcher's respawn count)")
	hb := flag.Duration("hb", 0, "heartbeat interval for the failure detector (0 = disabled; hung-peer detection then relies on connection loss)")
	hbMiss := flag.Int("hbmiss", 3, "missed heartbeat intervals before a peer is suspected")
	aggr := flag.Int("aggr", 2, "collective-I/O aggregator rank count")
	stripe := flag.Int64("stripe", 256<<10, "collective-I/O stripe size in bytes")
	ioFault := flag.String("iofault", "", "inject checkpoint I/O faults, e.g. short=0.2,eio=0.1,fsync=0.1,enospc=65536,crash=12,seed=7")
	perNode := flag.Int("pernode", 1, "co-located ranks per node: >1 groups ranks onto nodes (node = rank/pernode), intra-node traffic over a shared-memory segment, inter-node over TCP")
	shmDir := flag.String("shmdir", "", "directory for the per-node shared-memory segment files (required with -pernode > 1; must be shared by co-located ranks)")
	serve := flag.String("serve", "", "run as a multi-tenant solver service instead of one fixed solve: rank 0 serves the job API, /debug/metrics and /dash at this address (e.g. 127.0.0.1:0)")
	flag.Parse()

	addrs := strings.Split(*addrList, ",")
	if *rank < 0 || *n < 1 || *rank >= *n || len(addrs) != *n {
		fmt.Fprintf(os.Stderr, "nccdd: need -rank in [0,%d) and %d comma-separated -addrs\n", *n, *n)
		os.Exit(2)
	}
	if (*selfheal || *rejoin) && *ckptDir == "" && *serve == "" {
		fmt.Fprintln(os.Stderr, "nccdd: -selfheal and -rejoin need a -ckpt directory")
		os.Exit(2)
	}
	cfg, mode, err := bench.ArmByName(*arm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nccdd: %v\n", err)
		os.Exit(2)
	}

	var fp *simnet.FaultPlan
	if *drop > 0 || *corrupt > 0 || *dup > 0 || *delayMean > 0 || *crashAt > 0 {
		fp = &simnet.FaultPlan{Seed: *seed, Drop: *drop, Corrupt: *corrupt,
			Duplicate: *dup, DelayMean: *delayMean}
		if *crashAt > 0 {
			fp.CrashAt = map[int]float64{*rank: *crashAt}
		}
	}

	tcfg := transport.TCPConfig{Rank: *rank, Size: *n, WorldID: *worldID, Addrs: addrs,
		Faults: fp, AckTimeout: *ackTimeout,
		Heartbeat: transport.HeartbeatConfig{Interval: *hb, Miss: *hbMiss},
		Epoch:     *epoch, Rejoin: *rejoin}
	p := bench.MultigridParams{Extent: *extent, Levels: *levels, Rtol: *rtol, MaxCycles: *maxCycles}
	if *dash && *metrics == "" {
		*metrics = "127.0.0.1:0"
	}
	ob := bench.DaemonObs{TracePath: *trace, SpansPath: *spans, MetricsAddr: *metrics}
	if *dash {
		fmt.Println("dashboard: open http://<METRICS addr>/dash")
	}
	pl := bench.Placement{PerNode: *perNode, ShmDir: *shmDir}

	if *serve != "" {
		if err := runService(tcfg, cfg, mode, *serve, *ckptDir, *ckptEvery); err != nil {
			fmt.Fprintf(os.Stderr, "nccdd: rank %d: %v\n", *rank, err)
			os.Exit(1)
		}
		fmt.Println("SERVED")
		return
	}

	var rep bench.RankReport
	if *selfheal || *ckptDir != "" || *rejoin {
		rep, err = bench.RunMultigridSelfHealDaemon(tcfg, pl, cfg, p, mode, ob, bench.SelfHealDaemon{
			CkptDir:         *ckptDir,
			CheckpointEvery: *ckptEvery,
			RejoinEpoch:     *epoch,
			Aggregators:     *aggr,
			StripeBytes:     *stripe,
			IOFaults:        *ioFault,
			// Progress lines the launcher's chaos controller keys off:
			// CKPT marks a durable checkpoint, RESUMED a committed
			// recovery.  Stdout is line-buffered through the launcher's
			// scanner, so these arrive promptly.
			OnCheckpoint: func(it int) { fmt.Printf("CKPT %d\n", it) },
			OnRecovered:  func(e uint64, at int) { fmt.Printf("RESUMED epoch=%d from=%d\n", e, at) },
		})
	} else {
		rep, err = bench.RunMultigridDaemon(tcfg, pl, cfg, p, mode, ob)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nccdd: rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nccdd: rank %d: %v\n", *rank, err)
		os.Exit(1)
	}
	fmt.Printf("RESULT %s\n", out)
}

// runService hosts this daemon's rank of the multi-tenant solver service:
// one shared TCP mesh under a transport.Mux, the service control plane on
// top, and (rank 0 only) the HTTP job API.  Blocks until the service
// drains (SIGTERM, or the controller's drain broadcast on worker ranks).
func runService(tcfg transport.TCPConfig, armCfg mpi.Config, mode petsc.ScatterMode,
	apiAddr, ckptDir string, ckptEvery int) error {
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return err
	}
	mux := transport.NewMux(tcp)
	statName := fmt.Sprintf("transport.tcp.rank%d", tcfg.Rank)
	obs.Metrics.RegisterFunc(statName, func() any { return tcp.Stats() })
	defer obs.Metrics.Unregister(statName)

	svc, err := service.New(mux, service.Config{
		Rank:            tcfg.Rank,
		MPI:             armCfg,
		Mode:            mode,
		CkptDir:         ckptDir,
		CheckpointEvery: ckptEvery,
		OnEvent:         func(line string) { fmt.Printf("EVENT %s\n", line) },
	})
	if err != nil {
		return err
	}

	var srv *http.Server
	if tcfg.Rank == 0 {
		ln, lerr := net.Listen("tcp", apiAddr)
		if lerr != nil {
			return fmt.Errorf("job API listener: %w", lerr)
		}
		hm := http.NewServeMux()
		hm.Handle("/jobs", svc.Handler())
		hm.Handle("/jobs/", svc.Handler())
		hm.Handle("/debug/metrics", obs.MetricsHandler(obs.Metrics))
		hm.Handle("/dash", obs.DashHandler())
		srv = &http.Server{Handler: hm}
		go func() { _ = srv.Serve(ln) }()
		fmt.Printf("SERVICE %s\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			fmt.Println("EVENT draining on signal")
			svc.Drain()
		}
	}()

	err = svc.Wait()
	if srv != nil {
		_ = srv.Close()
	}
	_ = mux.Close()
	return err
}
