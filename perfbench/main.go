// Command perfbench is the repository's benchmark: one program, four
// workloads, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run.  See README.md for the workloads, the metric
// table and the layer each metric belongs to.
//
// Every layer is measured from outside the program: the benchmark times
// calls into public functions (mg.Solver, dmda.DA, mpi.Comm collectives,
// service.Service), reads public counters (mpi.World stats and comm
// matrix, datatype plan cache and buffer pool, transport.TCP stats,
// runtime.MemStats) and wraps the transport in a counting decorator.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The exit code is nonzero when
// any output failed its correctness check or the run could not complete.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	// spans collects the benchmark's own spans in the traced run; nil
	// otherwise.
	spans *spanLog
}

// report is what a workload returns: both metric sets (main prints the one
// the run asked for) and the operation accounting.
type report struct {
	e2e   map[string]metric
	layer map[string]metric
	// attempted counts operations (solves, collective rounds, jobs);
	// failed counts those that failed, were refused or mismatched.
	attempted, failed int
	// mismatches counts outputs that differed from their reference.  Any
	// mismatch makes the run incorrect.
	mismatches int
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: v, Unit: unit}
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// workloads maps each name in BENCHMARK.json to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"fig17-new-32": runFig17,
	"mg-tcp-2":     runMGTCP,
	"coll-1024":    runColl,
	"svc-open-2":   runSvc,
}

// workloadOrder is the order of --workload all and of BENCHMARK.json.
var workloadOrder = []string{"fig17-new-32", "mg-tcp-2", "coll-1024", "svc-open-2"}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files of traced runs")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*out, *seed, *seconds, *trace))
	}
	if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", *name, workloadOrder)
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	printJSON(map[string]any{"env": environment()})

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.spans = newSpanLog(maxSpans)
	}
	res, err := runOne(*name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.spans != nil {
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := cfg.spans.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# %s: %d spans written to %s (%d dropped)\n", *name, cfg.spans.len(), path, cfg.spans.dropped())
	}
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, as separate
// benchmark runs would: the plan cache, the buffer pool and the heap are
// process-wide, and one workload's leftovers must not reach the next.  It
// prints each child's output and then one combined result whose metric
// names are prefixed with the workload, and returns the exit code.
func runAll(out string, seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, wl := range workloadOrder {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-out", out, "-workload", wl, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not complete: %v\n", wl, runErr)
			total.Correct, code = false, 1
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[wl+"."+k] = m
		}
	}
	printJSON(total)
	if !total.Correct {
		code = 1
	}
	return code
}

// runOne runs one workload and prints its metrics as a table before
// returning the contract result.
func runOne(wl string, cfg runConfig) (result, error) {
	rep, err := workloads[wl](cfg)
	if err != nil {
		return result{}, err
	}
	if err := rep.complete(); err != nil {
		return result{}, err
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-14s %-34s %16.6g %s\n", wl, k, metrics[k].Value, metrics[k].Unit)
	}
	return result{
		Correct:   rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}, nil
}

// environment is recorded with every result: what the numbers were measured
// on.
func environment() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    rev,
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
