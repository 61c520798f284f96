package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/obs"
	"nccd/internal/obs/analyze"
	"nccd/internal/transport"
)

// rankTracePath names rank r's intermediate trace file; the per-rank files
// are kept next to the merged output.
func rankTracePath(base string, r int) string {
	return fmt.Sprintf("%s.rank%d", base, r)
}

// rankSpansPath names rank r's raw span file under the analysis directory.
func rankSpansPath(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("spans.rank%d.json", r))
}

// analyzeRankSpans merges the per-rank raw span files and runs the
// cross-rank analyzer: message matching, wait states, critical path, the
// communication matrix.  Returns nonzero when any message edge is
// unmatched on a complete trace — a send span with no receive span (or
// vice versa) on a clean run means the identity plumbing broke, not the
// application.
func analyzeRankSpans(lc launchConfig) int {
	var spans []obs.Span
	var dropped int64
	for r := 0; r < lc.n; r++ {
		sf, err := obs.ReadSpansFile(rankSpansPath(lc.spansDir, r))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d spans: %v\n", r, err)
			return 1
		}
		spans = append(spans, sf.Spans...)
		dropped += sf.Dropped
	}
	rep := analyze.Analyze(spans, analyze.Options{Wall: true, Ranks: lc.n, Dropped: dropped})
	rep.Render(os.Stdout)
	if dropped == 0 && (rep.UnmatchedSends > 0 || rep.UnmatchedRecvs > 0) {
		fmt.Fprintf(os.Stderr, "mgsolve: %d unmatched sends, %d unmatched recvs on a complete trace\n",
			rep.UnmatchedSends, rep.UnmatchedRecvs)
		return 1
	}
	return 0
}

// launchConfig parameterizes the multi-process run.
type launchConfig struct {
	n          int    // total rank count (nodes × perNode)
	perNode    int    // co-located ranks per node; >1 = hierarchical run
	shmDir     string // per-node segment directory for hierarchical runs
	daemon     string // nccdd path; empty = auto-locate
	arm        string
	p          bench.MultigridParams
	drop       float64
	corrupt    float64
	dup        float64
	delayMean  float64
	seed       uint64
	skipVerify bool
	trace      string // merged Chrome trace output path; "" = no tracing
	analyze    bool   // collect per-rank spans and run the cross-rank analyzer
	spansDir   string // per-rank raw-span directory (set internally for -analyze)

	// Self-healing / chaos.
	selfheal     bool
	chaos        bool // SIGKILL killRank after its first checkpoint, expect full recovery
	killRank     int
	ckptDir      string
	ckptEvery    int
	hb           time.Duration
	hbMiss       int
	recoveryJSON string // BENCH_recovery.json output path for chaos runs

	// Collective checkpoint I/O.
	aggr    int
	stripe  int64
	ioFault string // ckptio fault spec forwarded to every daemon
}

// procTable tracks the live rank daemons so the launcher can take every
// child down with it — on a rank failure, a chaos kill gone wrong, or a
// signal — instead of leaving orphaned nccdd processes holding ports.
type procTable struct {
	mu   sync.Mutex
	cmds map[int]*exec.Cmd
}

func newProcTable() *procTable { return &procTable{cmds: make(map[int]*exec.Cmd)} }

func (pt *procTable) set(rank int, cmd *exec.Cmd) {
	pt.mu.Lock()
	pt.cmds[rank] = cmd
	pt.mu.Unlock()
}

func (pt *procTable) remove(rank int) {
	pt.mu.Lock()
	delete(pt.cmds, rank)
	pt.mu.Unlock()
}

func (pt *procTable) get(rank int) *exec.Cmd {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.cmds[rank]
}

// killAll SIGKILLs every live daemon.  Reaping stays with the runDaemon
// goroutines' cmd.Wait, so no zombie outlives the launcher.
func (pt *procTable) killAll() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, cmd := range pt.cmds {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// runLauncher spawns lc.n nccdd rank daemons on localhost, collects their
// results, replays the identical problem on the in-process virtual-time
// transport, and verifies that both converge through the same residual
// history.  With lc.chaos it additionally SIGKILLs lc.killRank after its
// first durable checkpoint, relaunches it as a -rejoin replacement, and
// requires the healed full-size run to reproduce the reference history from
// the restored cycle on.  Returns the process exit code.
func runLauncher(lc launchConfig) int {
	addrs, err := freeAddrs(lc.n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: allocating ports: %v\n", err)
		return 1
	}
	daemon, err := locateDaemon(lc.daemon)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	if lc.chaos {
		lc.selfheal = true
		if lc.killRank < 0 || lc.killRank >= lc.n {
			fmt.Fprintf(os.Stderr, "mgsolve: -killrank %d out of range for %d ranks\n", lc.killRank, lc.n)
			return 1
		}
	}
	if lc.selfheal && lc.ckptDir == "" {
		dir, err := os.MkdirTemp("", "nccd-ckpt-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: checkpoint dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.ckptDir = dir
	}
	if lc.perNode > 1 {
		// The co-located daemons of each node attach the same segment
		// file; the directory outlives respawned replacements and is
		// reaped with the launcher.
		dir, err := os.MkdirTemp("", "nccd-shm-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: segment dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.shmDir = dir
	}
	if lc.analyze {
		dir, err := os.MkdirTemp("", "nccd-spans-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: span dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		lc.spansDir = dir
	}
	worldID := uint64(os.Getpid())
	pt := newProcTable()

	// Take the children down with us: on SIGINT/SIGTERM every daemon is
	// killed, the runDaemon goroutines reap them, and the launcher exits
	// nonzero.  Same on any single rank failing — survivors would
	// otherwise block forever on the dead peer's port.
	aborted := false
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		s, ok := <-sigCh
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "mgsolve: %v: killing rank daemons\n", s)
		aborted = true
		pt.killAll()
	}()

	if lc.perNode > 1 {
		fmt.Printf("spawning %d rank daemons (%s) on %d nodes x %d ranks: shared memory within a node, TCP between\n",
			lc.n, daemon, lc.n/lc.perNode, lc.perNode)
	} else {
		fmt.Printf("spawning %d rank daemons (%s) over TCP localhost\n", lc.n, daemon)
	}
	var chaosMu sync.Mutex
	var killTime, resumeTime time.Time
	chaosKilled := false

	reports := make([]*bench.RankReport, lc.n)
	procErrs := make([]error, lc.n)
	var wg sync.WaitGroup
	for r := 0; r < lc.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			onLine := func(line string) {
				if !lc.chaos {
					return
				}
				chaosMu.Lock()
				defer chaosMu.Unlock()
				if r == lc.killRank && !chaosKilled && strings.HasPrefix(line, "CKPT ") {
					if cmd := pt.get(r); cmd != nil && cmd.Process != nil {
						chaosKilled = true
						killTime = time.Now()
						fmt.Printf("chaos: SIGKILL rank %d after %s\n", r, line)
						_ = cmd.Process.Kill()
					}
				}
				if chaosKilled && resumeTime.IsZero() && strings.HasPrefix(line, "RESUMED ") {
					resumeTime = time.Now()
				}
			}
			rep, derr := runDaemon(daemon, r, addrs, worldID, lc, nil, pt, onLine)
			if derr != nil && lc.chaos && r == lc.killRank {
				chaosMu.Lock()
				wasKilled := chaosKilled
				chaosMu.Unlock()
				if wasKilled {
					// Expected death: relaunch the rank as a replacement
					// on the same address, joining the bumped epoch.
					fmt.Printf("chaos: respawning rank %d as a rejoin replacement\n", r)
					rep, derr = runDaemon(daemon, r, addrs, worldID, lc,
						[]string{"-rejoin", "-epoch", "1"}, pt, onLine)
				}
			}
			reports[r], procErrs[r] = rep, derr
			if derr != nil {
				// One dead rank means the run cannot complete: take the
				// rest down instead of leaving them orphaned.
				pt.killAll()
			}
		}(r)
	}
	wg.Wait()

	if aborted {
		fmt.Fprintln(os.Stderr, "mgsolve: aborted by signal; all rank daemons killed")
		return 1
	}
	failed := false
	for r := 0; r < lc.n; r++ {
		if procErrs[r] != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d: %v\n", r, procErrs[r])
			failed = true
		}
	}
	if failed {
		return 1
	}
	if lc.chaos && !chaosKilled {
		fmt.Fprintln(os.Stderr, "mgsolve: chaos kill never fired (no checkpoint observed before completion)")
		return 1
	}

	r0 := reports[0]
	fmt.Printf("tcp result: %d cycles, relres %.3e, %.3fs wall\n", r0.Cycles, r0.RelRes, r0.Seconds)
	var agg struct{ frames, retrans, crc, dropped, corrupted int64 }
	for _, rep := range reports {
		agg.frames += rep.Stats.FramesSent
		agg.retrans += rep.Stats.Retransmits
		agg.crc += rep.Stats.CRCRejects
		agg.dropped += rep.Stats.Dropped
		agg.corrupted += rep.Stats.Corrupted
	}
	fmt.Printf("wire: %d frames sent, %d dropped, %d corrupted, %d retransmits, %d CRC rejects\n",
		agg.frames, agg.dropped, agg.corrupted, agg.retrans, agg.crc)
	if lc.perNode > 1 {
		var shm struct {
			frames, bytes, vectored, stalls, stallNs int64
		}
		for _, rep := range reports {
			if s := rep.ShmStats; s != nil {
				shm.frames += s.FramesSent
				shm.bytes += s.BytesSent
				shm.vectored += s.VectoredSends
				shm.stalls += s.RingFullStalls
				shm.stallNs += s.StallNanos
			}
		}
		fmt.Printf("shm: %d frames (%d vectored), %d ring bytes, %d full-ring stalls (%.3fs)\n",
			shm.frames, shm.vectored, shm.bytes, shm.stalls, float64(shm.stallNs)/1e9)
	}

	if lc.trace != "" {
		paths := make([]string, lc.n)
		for r := range paths {
			paths[r] = rankTracePath(lc.trace, r)
		}
		if err := obs.MergeChromeTraceFiles(lc.trace, paths); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: merging traces: %v\n", err)
			return 1
		}
		if err := obs.ValidateChromeTraceFile(lc.trace); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: merged trace failed validation: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s, merged from %d per-rank traces (load it at https://ui.perfetto.dev)\n", lc.trace, lc.n)
	}

	if lc.analyze {
		if code := analyzeRankSpans(lc); code != 0 {
			return code
		}
	}

	// Every rank solved the same system; their histories must agree with
	// each other before being compared against the reference.
	for r := 1; r < lc.n; r++ {
		if err := historiesEqual(reports[r].History, r0.History); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d diverged from rank 0: %v\n", r, err)
			return 1
		}
	}
	if lc.chaos {
		return verifyChaos(lc, reports, killTime, resumeTime)
	}
	if lc.skipVerify {
		return 0
	}
	return verifyAgainstReference(lc, r0.History, 0)
}

// verifyAgainstReference replays the problem on the in-process virtual-time
// transport and requires history to equal the reference's from cycle `from`
// on, bitwise.
func verifyAgainstReference(lc launchConfig, history []float64, from int) int {
	cfg, mode, err := bench.ArmByName(lc.arm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: %v\n", err)
		return 1
	}
	fmt.Printf("verifying against in-process reference run...\n")
	ref := bench.RunMultigridWorld(core.NewUniformWorld(lc.n, cfg), lc.p, mode)
	if from > len(ref.History) {
		fmt.Fprintf(os.Stderr, "mgsolve: restored cycle %d beyond the reference's %d cycles\n", from, len(ref.History))
		return 1
	}
	if err := historiesEqual(history, ref.History[from:]); err != nil {
		fmt.Fprintf(os.Stderr, "mgsolve: tcp run diverged from in-process reference (from cycle %d): %v\n", from, err)
		return 1
	}
	fmt.Printf("OK: tcp and in-process runs converged through identical residual histories (%d cycles, compared from cycle %d)\n", ref.Cycles, from)
	return 0
}

// verifyChaos checks the healed run end to end — full size, committed
// epoch, agreed restore point, reference-identical resumed history — and
// writes the recovery benchmark JSON.
func verifyChaos(lc launchConfig, reports []*bench.RankReport, killTime, resumeTime time.Time) int {
	base := reports[0].RestoredAt
	for r, rep := range reports {
		if !rep.Healed || rep.Recoveries < 1 {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d did not heal (healed=%v recoveries=%d)\n", r, rep.Healed, rep.Recoveries)
			return 1
		}
		if rep.FinalSize != lc.n {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d finished at size %d, want full %d\n", r, rep.FinalSize, lc.n)
			return 1
		}
		if rep.Epoch == 0 {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d never committed an epoch bump\n", r)
			return 1
		}
		if rep.RestoredAt != base {
			fmt.Fprintf(os.Stderr, "mgsolve: rank %d restored at %d, rank 0 at %d — availability agreement violated\n", r, rep.RestoredAt, base)
			return 1
		}
	}
	mttr := 0.0
	if !killTime.IsZero() && !resumeTime.IsZero() {
		mttr = resumeTime.Sub(killTime).Seconds()
	}
	fmt.Printf("chaos: healed at full size %d, epoch %d, restored from cycle %d, MTTR %.3fs\n",
		lc.n, reports[0].Epoch, base, mttr)
	if base < 0 {
		base = 0
	}
	if code := verifyAgainstReference(lc, reports[0].History, base); code != 0 {
		return code
	}
	if lc.recoveryJSON != "" {
		hb := transport.HeartbeatConfig{Interval: lc.hb, Miss: lc.hbMiss}
		if hb.Interval <= 0 {
			hb.Interval = 10 * time.Millisecond
		}
		// Detection latency and in-process MTTR run on a small fixed
		// problem; the TCP numbers come from the chaos run just measured.
		rep, err := bench.RunRecovery(4, bench.MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 20}, hb)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: recovery benchmark: %v\n", err)
			return 1
		}
		rep.TCPMTTRMS = mttr * 1e3
		rep.TCPRespawns = 1
		rep.TCPWorldSize = lc.n
		rep.TCPKilledRank = lc.killRank
		rep.TCPRestoredAt = base
		rep.TCPTotalCycles = reports[0].Cycles
		if err := bench.WriteRecoveryJSON(lc.recoveryJSON, rep); err != nil {
			fmt.Fprintf(os.Stderr, "mgsolve: writing %s: %v\n", lc.recoveryJSON, err)
			return 1
		}
		fmt.Printf("wrote %s\n", lc.recoveryJSON)
	}
	return 0
}

// runDaemon spawns one rank daemon, registers it for cleanup, streams its
// progress lines through onLine, and parses its RESULT line.
func runDaemon(daemon string, rank int, addrs []string, worldID uint64, lc launchConfig, extra []string, pt *procTable, onLine func(line string)) (*bench.RankReport, error) {
	args := []string{
		"-rank", fmt.Sprint(rank),
		"-n", fmt.Sprint(lc.n),
		"-addrs", strings.Join(addrs, ","),
		"-world", fmt.Sprint(worldID),
		"-arm", lc.arm,
		"-extent", fmt.Sprint(lc.p.Extent),
		"-levels", fmt.Sprint(lc.p.Levels),
		"-rtol", fmt.Sprint(lc.p.Rtol),
		"-maxcycles", fmt.Sprint(lc.p.MaxCycles),
		"-drop", fmt.Sprint(lc.drop),
		"-corrupt", fmt.Sprint(lc.corrupt),
		"-dup", fmt.Sprint(lc.dup),
		"-delaymean", fmt.Sprint(lc.delayMean),
		"-seed", fmt.Sprint(lc.seed),
	}
	if lc.perNode > 1 {
		args = append(args, "-pernode", fmt.Sprint(lc.perNode), "-shmdir", lc.shmDir)
	}
	if lc.selfheal {
		args = append(args, "-selfheal", "-ckpt", lc.ckptDir, "-ckptevery", fmt.Sprint(lc.ckptEvery),
			"-aggr", fmt.Sprint(lc.aggr), "-stripe", fmt.Sprint(lc.stripe))
		if lc.hb > 0 {
			args = append(args, "-hb", lc.hb.String(), "-hbmiss", fmt.Sprint(lc.hbMiss))
		}
		if lc.ioFault != "" {
			args = append(args, "-iofault", lc.ioFault)
		}
	}
	if lc.trace != "" {
		args = append(args, "-trace", rankTracePath(lc.trace, rank))
	}
	if lc.spansDir != "" {
		args = append(args, "-spans", rankSpansPath(lc.spansDir, rank))
	}
	args = append(args, extra...)
	cmd := exec.Command(daemon, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pt.set(rank, cmd)
	defer pt.remove(rank)
	var rep *bench.RankReport
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "RESULT "); ok {
			rep = &bench.RankReport{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, fmt.Errorf("parsing result: %w", err)
			}
			continue
		}
		if onLine != nil {
			onLine(line)
		}
		fmt.Printf("[rank %d] %s\n", rank, line)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("daemon exited: %w", err)
	}
	if rep == nil {
		return nil, fmt.Errorf("daemon printed no RESULT line")
	}
	return rep, nil
}

// freeAddrs picks n distinct free localhost ports.  The ports are released
// before the daemons re-bind them — the window is small and collisions on
// a quiet CI host are rare; a clash surfaces as a daemon bind error.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// locateDaemon finds the nccdd binary: the explicit flag, next to this
// executable, or on PATH.
func locateDaemon(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "nccdd")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("nccdd"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find the nccdd daemon: build it with `go build ./cmd/nccdd` and pass -daemon, place it next to mgsolve, or add it to PATH")
}

func historiesEqual(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cycles vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("cycle %d: residual %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}
