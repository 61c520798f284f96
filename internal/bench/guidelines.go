package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// Self-consistent performance guidelines in the style of Träff and
// Carpen-Amarie: pairs of semantically equivalent formulations where the
// library promises the specialized one is never (much) slower than the
// generic one a user could write by hand.  Each guideline is executable —
// both sides are measured on this machine and the ratio is asserted
// against a noise margin — so a regression that silently inverts an
// optimization (fused sends losing to the pack they were meant to beat,
// Allgatherv losing to a padded Allgather) fails CI instead of shipping.

// GuidelineRow is one measured guideline: the preferred formulation, the
// baseline it must not lose to, and the verdict.
type GuidelineRow struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Preferred   string `json:"preferred"`
	Baseline    string `json:"baseline"`
	// PreferredNs and BaselineNs are per-operation costs: wall-clock
	// nanoseconds for wire guidelines, virtual-time nanoseconds for
	// model-clock guidelines (Clock says which).
	PreferredNs float64 `json:"preferred_ns"`
	BaselineNs  float64 `json:"baseline_ns"`
	Ratio       float64 `json:"ratio"` // preferred / baseline
	Margin      float64 `json:"margin"`
	Violated    bool    `json:"violated"`
	Clock       string  `json:"clock"` // "wall" or "virtual"
	// CopiedBytes is the preferred path's intermediate-copy volume per op —
	// the structural witness that zero-copy really was zero-copy.
	CopiedBytes int64 `json:"copied_bytes_preferred"`
}

// GuidelinesReport is the full guideline run, serializable as
// BENCH_guidelines.json.
type GuidelinesReport struct {
	Margin float64        `json:"margin"`
	Rows   []GuidelineRow `json:"guidelines"`
}

// Violations returns the rows whose preferred formulation exceeded
// margin × baseline.
func (g *GuidelinesReport) Violations() []GuidelineRow {
	var out []GuidelineRow
	for _, r := range g.Rows {
		if r.Violated {
			out = append(out, r)
		}
	}
	return out
}

// Print renders the guideline verdicts as an aligned table.
func (g *GuidelinesReport) Print(w io.Writer) {
	fmt.Fprintf(w, "GUIDELINES: self-consistent performance assertions (margin %.2fx)\n", g.Margin)
	fmt.Fprintf(w, "  %-28s %14s %14s %8s %8s  %s\n", "guideline", "preferred ns", "baseline ns", "ratio", "clock", "verdict")
	for _, r := range g.Rows {
		verdict := "ok"
		if r.Violated {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  %-28s %14.0f %14.0f %8.2f %8s  %s\n",
			r.Name, r.PreferredNs, r.BaselineNs, r.Ratio, r.Clock, verdict)
	}
	fmt.Fprintln(w)
}

// WriteJSONFile writes the report to path (e.g. BENCH_guidelines.json).
func (g *GuidelinesReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunGuidelines measures every guideline with the given noise margin: a
// guideline is violated when preferred > margin × baseline.  Margins below
// 1 are clamped to 1 (a guideline may never require the preferred path to
// win by more than "not slower").
func RunGuidelines(margin float64) *GuidelinesReport {
	if margin < 1 {
		margin = 1
	}
	g := &GuidelinesReport{Margin: margin}
	g.Rows = append(g.Rows, guidelineFusedSend(margin))
	g.Rows = append(g.Rows, guidelineAllgatherv(margin))
	g.Rows = append(g.Rows, guidelineFusedScatterShape(margin))
	g.Rows = append(g.Rows, guidelineHierAllgatherv(margin))
	return g
}

// wirePair brings up a two-endpoint localhost TCP mesh whose receivers
// count deliveries, for wire-level guideline measurements outside any test
// harness.
type wirePair struct {
	eps   [2]*transport.TCP
	recvd atomic.Int64
}

func newWirePair() (*wirePair, error) {
	wp := &wirePair{}
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for r := 0; r < 2; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	for r := 0; r < 2; r++ {
		ep, err := transport.NewTCP(transport.TCPConfig{
			Rank: r, Size: 2, WorldID: 0xbe9c, Addrs: addrs, Listener: lns[r],
			AckTimeout: 50 * time.Millisecond, DialTimeout: 5 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		wp.eps[r] = ep
	}
	handler := func(to int, hdr transport.Header, payload []byte) {
		datatype.PutBuffer(payload)
		wp.recvd.Add(1)
	}
	var wg sync.WaitGroup
	errs := [2]error{}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = wp.eps[r].Start(handler, nil)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			wp.close()
			return nil, err
		}
	}
	return wp, nil
}

func (wp *wirePair) close() {
	for _, ep := range wp.eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// timeWire measures sending rounds messages with sendOne and draining them
// at the receiver, returning wall nanoseconds per message.  A short warm
// round precedes the measurement.
func (wp *wirePair) timeWire(rounds int, sendOne func() error) (float64, error) {
	for i := 0; i < 4; i++ {
		if err := sendOne(); err != nil {
			return 0, err
		}
	}
	wp.waitRecvd(wp.recvd.Load())
	base := wp.recvd.Load()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := sendOne(); err != nil {
			return 0, err
		}
	}
	wp.waitRecvd(base + int64(rounds))
	return float64(time.Since(start).Nanoseconds()) / float64(rounds), nil
}

func (wp *wirePair) waitRecvd(target int64) {
	deadline := time.Now().Add(30 * time.Second)
	for wp.recvd.Load() < target {
		if time.Now().After(deadline) {
			panic("bench: guideline wire pair stalled")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// raceWire measures two send formulations over the pair, alternating reps
// repetitions of each and keeping the minimum per-op time per side: the
// minimum is the intrinsic cost, alternation cancels drift (scheduler and
// socket-buffer state), and loopback throughput on a shared machine is far
// too noisy for single-shot comparisons.
func (wp *wirePair) raceWire(rounds, reps int, a, b func() error) (aNs, bNs float64, err error) {
	aNs, bNs = math.Inf(1), math.Inf(1)
	for i := 0; i < reps; i++ {
		na, e := wp.timeWire(rounds, a)
		if e != nil {
			return 0, 0, e
		}
		nb, e := wp.timeWire(rounds, b)
		if e != nil {
			return 0, 0, e
		}
		aNs = math.Min(aNs, na)
		bNs = math.Min(bNs, nb)
	}
	return aNs, bNs, nil
}

// fusedVsPackedWire measures one layout both ways over a real socket:
// preferred = the zero-copy vectored gather-list send, baseline = compiled
// pack into a pooled buffer followed by a contiguous send.
func fusedVsPackedWire(name, desc string, ty *datatype.Type, margin float64) GuidelineRow {
	wp, err := newWirePair()
	if err != nil {
		panic(fmt.Sprintf("bench: guideline TCP pair: %v", err))
	}
	defer wp.close()

	plan := datatype.PlanFor(ty, 1)
	user := make([]byte, datatype.RequiredBytes(ty, 1))
	for i := range user {
		user[i] = byte(i*131 + 17)
	}
	hdr := transport.Header{Ctx: 1, Src: 0, Tag: 9}
	const rounds, reps = 32, 5

	fusedNs, packedNs, err := wp.raceWire(rounds, reps,
		func() error {
			return wp.eps[0].SendVectored(1, hdr, user, plan.Segments())
		},
		func() error {
			wire := datatype.GetBuffer(plan.Bytes())
			plan.Pack(user, wire)
			return wp.eps[0].Send(1, hdr, wire)
		})
	if err != nil {
		panic(fmt.Sprintf("bench: guideline wire race: %v", err))
	}
	row := GuidelineRow{
		Name:        name,
		Description: desc,
		Preferred:   "SendVectored(gather list)",
		Baseline:    "Plan.Pack + Send(contiguous)",
		PreferredNs: fusedNs,
		BaselineNs:  packedNs,
		Ratio:       fusedNs / packedNs,
		Margin:      margin,
		Violated:    fusedNs > margin*packedNs,
		Clock:       "wall",
		CopiedBytes: 0, // the gather list references user memory directly
	}
	return row
}

// guidelineFusedSend: sending a fusable strided derived type must not be
// slower than packing it and sending the packed stream — the datatype
// engine's raison d'être per the source paper.
func guidelineFusedSend(margin float64) GuidelineRow {
	// 256 segments of 1 KiB: comfortably above the fusion threshold.
	ty := datatype.Vector(256, 128, 256, datatype.Double)
	return fusedVsPackedWire("derived-send-vs-packed",
		"fused derived-type send is not slower than explicit pack + contiguous send",
		ty, margin)
}

// guidelineFusedScatterShape: the nonuniform ghost-exchange shape (mixed
// large and small runs, as a DMDA corner rank produces) must also win
// fused, not only the uniform strided best case.
func guidelineFusedScatterShape(margin float64) GuidelineRow {
	// Nonuniform run lengths, mean segment ≈ 3.4 KiB, above threshold.
	lens := []int{8192, 256, 16384, 64, 4096, 1024, 32768, 512}
	displs := make([]int, len(lens))
	off := 0
	for i, l := range lens {
		displs[i] = off
		off += l + 128 // gaps keep the runs noncontiguous
	}
	ty := datatype.Hindexed(lens, displs, datatype.Byte)
	return fusedVsPackedWire("fused-scatter-vs-packed",
		"nonuniform scatter shape sends fused not slower than packed",
		ty, margin)
}

// guidelineAllgatherv: gathering nonuniform contributions with Allgatherv
// must not be slower than padding every contribution to the maximum and
// calling Allgather — the classic guideline MPI_Allgatherv ≼ MPI_Allgather.
// Measured on the deterministic virtual clock of the simulated paper
// testbed, so the comparison is exact and noise-free; the margin still
// applies for symmetry with the wall-clock rows.
func guidelineAllgatherv(margin float64) GuidelineRow {
	const n = 8
	const base = 4096
	counts := make([]int, n)
	total, maxc := 0, 0
	for r := 0; r < n; r++ {
		counts[r] = (r + 1) * base // nonuniform: rank n-1 contributes n× rank 0
		total += counts[r]
		if counts[r] > maxc {
			maxc = counts[r]
		}
	}

	vSec := func(f func(c *mpi.Comm)) float64 {
		var mu sync.Mutex
		worst := 0.0
		w := core.NewPaperWorld(n, mpi.Compiled())
		if err := w.Run(func(c *mpi.Comm) error {
			f(c)
			mu.Lock()
			if c.Clock() > worst {
				worst = c.Clock()
			}
			mu.Unlock()
			return nil
		}); err != nil {
			panic(fmt.Sprintf("bench: guideline allgatherv world: %v", err))
		}
		return worst
	}

	vecSec := vSec(func(c *mpi.Comm) {
		data := make([]byte, counts[c.Rank()])
		recv := make([]byte, total)
		c.Allgatherv(data, counts, recv)
	})
	padSec := vSec(func(c *mpi.Comm) {
		data := make([]byte, maxc)
		recv := make([]byte, n*maxc)
		c.Allgather(data, recv)
	})

	return GuidelineRow{
		Name:        "allgatherv-vs-allgather",
		Description: "nonuniform Allgatherv is not slower than max-size-padded Allgather",
		Preferred:   "Allgatherv(counts)",
		Baseline:    "Allgather(max(counts) padded)",
		PreferredNs: vecSec * 1e9,
		BaselineNs:  padSec * 1e9,
		Ratio:       vecSec / padSec,
		Margin:      margin,
		Violated:    vecSec > margin*padSec,
		Clock:       "virtual",
		CopiedBytes: 0,
	}
}

// guidelineHierAllgatherv: on a topology-carrying world, the hierarchical
// Allgatherv must not be slower than running the same flat algorithm over
// the same wires.  The regime is the auto policy's known weakness — a
// nonuniform set whose one large outlier drives the total past the
// large-volume threshold, so the flat side picks ring and serializes the
// outlier through every hop, while the leader aggregation confines it to
// the intra-node fabric plus a single inter-node exchange.  Deterministic
// virtual clock on a two-level cluster model (fast intra-node plane,
// IB-DDR between nodes).
func guidelineHierAllgatherv(margin float64) GuidelineRow {
	const nodes, perNode = 2, 4
	const n = nodes * perNode
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 2048
	}
	counts[3] = 128 * 1024 // the nonuniform outlier
	total := 0
	for _, v := range counts {
		total += v
	}
	cfg := mpi.Compiled()
	cfg.Allgatherv = mpi.AGAuto

	run := func(flat bool) float64 {
		var mu sync.Mutex
		worst := 0.0
		w := mpi.NewWorld(simnet.TwoLevel(nodes, perNode, simnet.IBDDR(), simnet.ShmIntra()), cfg)
		if flat {
			if err := w.SetTopology(nil); err != nil {
				panic(fmt.Sprintf("bench: guideline hier allgatherv topology: %v", err))
			}
		}
		if err := w.Run(func(c *mpi.Comm) error {
			data := make([]byte, counts[c.Rank()])
			recv := make([]byte, total)
			c.Allgatherv(data, counts, recv)
			mu.Lock()
			if c.Clock() > worst {
				worst = c.Clock()
			}
			mu.Unlock()
			return nil
		}); err != nil {
			panic(fmt.Sprintf("bench: guideline hier allgatherv world: %v", err))
		}
		return worst
	}

	hierSec := run(false)
	flatSec := run(true)
	return GuidelineRow{
		Name:        "hier-allgatherv-vs-flat",
		Description: "hierarchical Allgatherv on a two-level topology is not slower than the flat algorithms on the same wires",
		Preferred:   "Allgatherv(node topology, leader aggregation)",
		Baseline:    "Allgatherv(flat, topology ignored)",
		PreferredNs: hierSec * 1e9,
		BaselineNs:  flatSec * 1e9,
		Ratio:       hierSec / flatSec,
		Margin:      margin,
		Violated:    hierSec > margin*flatSec,
		Clock:       "virtual",
		CopiedBytes: 0,
	}
}
