// Command faultsim demonstrates the fault-injection and fault-tolerance
// subsystem end to end:
//
//  1. the reliability layer: the outlier Allgatherv microbenchmark under a
//     sweep of link drop/duplication rates, reporting the virtual-time
//     overhead of ack/retransmission against a clean run (results stay
//     bytewise identical — see the property tests in internal/mpi);
//  2. solver-level recovery: the Figure 17 multigrid solve (100^3 grid by
//     default) with a rank crash injected mid-solve, recovered via
//     Comm.Revoke + Comm.Shrink, re-decomposition over the survivors, and
//     resumption from the newest checkpoint every survivor can restore —
//     collective owned-range writes and reads through internal/ckptio.
//
// With -iomatrix it instead sweeps injected checkpoint-I/O faults (short
// writes, EIO, fsync failure, ENOSPC, filesystem crash) over the collective
// checkpoint layer while a rank is killed mid-solve: every cell of the
// matrix must still heal with a bitwise-identical resumed history — an
// aborted checkpoint epoch may cost a restore point, never correctness.
package main

import (
	"flag"
	"fmt"
	"os"

	"nccd/internal/bench"
	"nccd/internal/ckptio"
)

// ioMatrix runs the in-process collective-checkpoint chaos harness under
// each fault spec and returns the number of failed cells.
func ioMatrix(n int, p bench.MultigridParams) int {
	specs := []struct{ name, spec string }{
		{"clean", ""},
		{"short-writes", "short=0.3,seed=11"},
		{"eio", "eio=0.2,seed=12"},
		{"fsync-fail", "fsync=0.3,seed=13"},
		{"enospc", "enospc=262144,seed=14"},
		{"fs-crash", "crash=40,seed=15"},
	}
	failed := 0
	for _, sp := range specs {
		plan, err := ckptio.ParseFaultPlan(sp.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultsim: %s: %v\n", sp.name, err)
			return 1
		}
		dir, err := os.MkdirTemp("", "nccd-iomatrix-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
			return 1
		}
		run, err := bench.RunMultigridSelfHeal(n, p, n/2, 0.5, nil, bench.SelfHealIO{
			CkptDir: dir,
			Ckpt:    ckptio.Options{StripeBytes: 4096, Aggregators: 2, Faults: plan},
		})
		os.RemoveAll(dir)
		switch {
		case err != nil:
			fmt.Printf("  %-13s FAIL: %v\n", sp.name, err)
			failed++
		case !run.Result.Healed || !run.HistoryMatches:
			fmt.Printf("  %-13s FAIL: healed=%v historyMatches=%v restoredAt=%d\n",
				sp.name, run.Result.Healed, run.HistoryMatches, run.Result.RestoredAt)
			failed++
		default:
			fmt.Printf("  %-13s ok: healed at full size, restored from cycle %d, history bitwise-identical\n",
				sp.name, run.Result.RestoredAt)
		}
	}
	return failed
}

// validateFlags rejects flag values the demo cannot run: fewer than two
// processes leaves no survivor to shrink to, and the crash rank must name
// an existing rank (-1 selects the last).
func validateFlags(procs, crashRank, extent, levels int) error {
	switch {
	case procs < 2:
		return fmt.Errorf("-procs %d: need at least 2 processes", procs)
	case crashRank < -1 || crashRank >= procs:
		return fmt.Errorf("-crash-rank %d: must be -1 or a rank in [0, %d)", crashRank, procs)
	case extent < 2:
		return fmt.Errorf("-extent %d: need at least 2", extent)
	case levels < 1:
		return fmt.Errorf("-levels %d: need at least 1", levels)
	}
	return nil
}

func main() {
	procs := flag.Int("procs", 16, "process count")
	extent := flag.Int("extent", 100, "cubic grid extent for the crash demo")
	levels := flag.Int("levels", 3, "multigrid levels")
	rtol := flag.Float64("rtol", 1e-6, "relative tolerance")
	crashRank := flag.Int("crash-rank", -1, "rank to crash (default procs-1)")
	crashFrac := flag.Float64("crash-frac", 0.5, "crash time as a fraction of the clean solve")
	seed := flag.Uint64("seed", 20250806, "fault plan seed")
	iters := flag.Int("iters", 10, "iterations per overhead measurement")
	ioMat := flag.Bool("iomatrix", false, "sweep injected checkpoint-I/O faults over the collective checkpoint layer (small grid, rank kill mid-solve)")
	flag.Parse()
	if err := validateFlags(*procs, *crashRank, *extent, *levels); err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(2)
	}

	if *ioMat {
		p := bench.MultigridParams{Extent: 16, Levels: 2, Rtol: *rtol, MaxCycles: 20}
		fmt.Printf("FAULTSIM: collective checkpoint I/O fault matrix (4 ranks, %d^3 grid, rank kill at 50%%)\n", p.Extent)
		if failed := ioMatrix(4, p); failed > 0 {
			fmt.Printf("  RESULT: %d matrix cells FAILED\n", failed)
			os.Exit(1)
		}
		fmt.Println("  RESULT: every fault cell healed with a bitwise-identical history")
		return
	}

	bench.FaultOverhead(*procs, []float64{0.001, 0.01, 0.05}, *iters, *seed).Print(os.Stdout)

	rank := *crashRank
	if rank < 0 {
		rank = *procs - 1
	}
	p := bench.MultigridParams{Extent: *extent, Levels: *levels, Rtol: *rtol, MaxCycles: 50}
	fmt.Printf("FAULTSIM: %d^3 multigrid on %d ranks, rank %d crashes at %.0f%% of the clean solve\n",
		p.Extent, *procs, rank, 100**crashFrac)
	dir, err := os.MkdirTemp("", "nccd-faultsim-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}
	res, err := bench.RunMultigridFaulted(*procs, p, rank, *crashFrac, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}
	// A full-size survivor set means the first attempt converged before
	// the scheduled crash time.
	recovered := res.Survivors < *procs
	fmt.Printf("  clean solve:    %d cycles, %.4f s virtual\n", res.CleanCycles, res.CleanSeconds)
	fmt.Printf("  crash injected: t=%.4f s\n", res.CrashAt)
	switch {
	case !recovered:
		fmt.Printf("  recovery:       none needed — crash fell after convergence\n")
	case res.CheckpointAt == 0:
		fmt.Printf("  recovery:       shrink to %d survivors, restart from scratch (no common checkpoint)\n",
			res.Survivors)
	default:
		fmt.Printf("  recovery:       shrink to %d survivors, restart from checkpoint of cycle %d\n",
			res.Survivors, res.CheckpointAt)
	}
	fmt.Printf("  restarted run:  %d cycles to relative residual %.3e (target %.0e)\n",
		res.CyclesAfter, res.RelRes, p.Rtol)
	fmt.Printf("  faulted total:  %.4f s virtual (clean %.4f s)\n", res.Seconds, res.CleanSeconds)
	if !res.Recovered {
		fmt.Println("  RESULT: solve did NOT converge after the crash")
		os.Exit(1)
	}
	if !recovered {
		fmt.Println("  RESULT: solve converged before the scheduled crash; no recovery exercised")
	} else {
		fmt.Println("  RESULT: solve converged after mid-solve rank crash via Comm.Shrink()")
	}
}
