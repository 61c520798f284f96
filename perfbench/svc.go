package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/bench"
	"nccd/internal/core"
	"nccd/internal/datatype"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/service"
	"nccd/internal/transport"
)

// Shape of the svc-open-2 traffic.
const (
	svcRanks    = 2
	svcRate     = 10.0 // jobs offered per second
	svcBigShare = 0.2  // share of extent-32 jobs; the rest are extent 16
	svcSmall    = 16
	svcBig      = 32
	svcSetups   = 5
	// svcPoll is how often outstanding jobs are polled for completion; it
	// bounds the error of a completion time.
	svcPoll = 2 * time.Millisecond
	// svcSettle bounds the wait for jobs still running when the window
	// closes; a job not done by then counts as failed.
	svcSettle = 60 * time.Second
)

// fleet is one in-process service deployment: a TCP mesh endpoint, mux and
// service per daemon, as nccdd -serve runs them.
type fleet struct {
	svcs  []*service.Service
	muxes []*transport.Mux
	decos []*counted
	tcps  []*transport.TCP

	mu      sync.Mutex
	queued  map[uint64]time.Time
	started map[uint64]time.Time
}

// startFleet brings up the fleet and returns once every daemon's control
// world is running.
func startFleet(worldID uint64, spans *spanLog, op *atomic.Int64) (*fleet, error) {
	decos, tcps, err := tcpMesh(svcRanks, worldID, spans, op)
	if err != nil {
		return nil, err
	}
	f := &fleet{decos: decos, tcps: tcps, svcs: make([]*service.Service, svcRanks),
		muxes:  make([]*transport.Mux, svcRanks),
		queued: map[uint64]time.Time{}, started: map[uint64]time.Time{}}
	for r := range f.muxes {
		f.muxes[r] = transport.NewMux(decos[r].Transport())
	}
	err = runRanks(svcRanks, func(r int) error {
		cfg := service.Config{Rank: r, MPI: mpi.Compiled(), Mode: petsc.ScatterDatatype}
		if r == 0 {
			cfg.OnEvent = f.onEvent
		}
		s, err := service.New(f.muxes[r], cfg)
		f.svcs[r] = s
		return err
	})
	if err != nil {
		for _, m := range f.muxes {
			m.Close()
		}
		return nil, err
	}
	return f, nil
}

// onEvent timestamps the controller's queue and start events.  It runs on
// the service's own goroutines, once per V-cycle too, so it returns early
// on every other line.
func (f *fleet) onEvent(line string) {
	now := time.Now()
	rest, ok := strings.CutPrefix(line, "JOB ")
	if !ok {
		return
	}
	num, kind, _ := strings.Cut(rest, " ")
	kind, _, _ = strings.Cut(kind, " ")
	if kind != "queued" && kind != "start" {
		return
	}
	id, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return
	}
	f.mu.Lock()
	if kind == "queued" {
		f.queued[id] = now
	} else if _, seen := f.started[id]; !seen {
		f.started[id] = now
	}
	f.mu.Unlock()
}

// stop drains the fleet through the controller and waits for every daemon
// to exit.
func (f *fleet) stop() error {
	f.svcs[0].Drain()
	done := make(chan error, len(f.svcs))
	for _, s := range f.svcs {
		go func(s *service.Service) { done <- s.Wait() }(s)
	}
	var err error
	timeout := time.After(svcSettle)
	for range f.svcs {
		select {
		case e := <-done:
			if e != nil && err == nil {
				err = e
			}
		case <-timeout:
			if err == nil {
				err = fmt.Errorf("fleet did not drain within %v", svcSettle)
			}
		}
	}
	for _, m := range f.muxes {
		m.Close()
	}
	return err
}

// jobRec is one generated job's timeline and outcome.
type jobRec struct {
	extent               int
	due, sent, submitted time.Time // due, POST start, POST response
	done                 time.Time // first poll that saw a terminal state
	id                   uint64
	status               service.JobStatus
	refused, failed      bool
	traced               bool
}

// runSvc drives a 2-daemon service fleet through its HTTP handler with an
// open-loop Poisson generator: jobs are sent when due whatever the state of
// earlier ones, and each is timed from when it was due.
func runSvc(cfg runConfig) (*report, error) {
	refs := map[int][]float64{}
	virt := map[int]float64{}
	for _, e := range []int{svcSmall, svcBig} {
		p := bench.MultigridParams{Extent: e, Levels: 3, Rtol: 1e-6, MaxCycles: 30}
		r := bench.RunMultigridWorld(core.NewUniformWorld(svcRanks, mpi.Compiled()), p, petsc.ScatterDatatype)
		refs[e], virt[e] = r.History, r.Seconds
	}

	var op atomic.Int64
	var setups []float64
	var f *fleet
	var heap0 uint64
	for i := 0; i < svcSetups; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		heap0 = liveHeap()
		t0 := time.Now()
		var err error
		f, err = startFleet(0x5e7000+uint64(i), cfg.spans, &op)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heapMB := (float64(liveHeap()) - float64(heap0)) / 1e6

	srv := httptest.NewServer(f.svcs[0].Handler())
	nproc := runtime.NumCPU()
	client := &http.Client{Timeout: svcSettle, Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	defer client.CloseIdleConnections()
	defer srv.Close()

	// Untimed warm-up: one job of each size fills the plan cache.
	for _, e := range []int{svcSmall, svcBig} {
		j := &jobRec{extent: e}
		postJob(client, srv.URL, j)
		var err error
		if j.refused || j.failed {
			err = fmt.Errorf("warm-up job extent %d was not accepted (refused with 429: %v)", e, j.refused)
		} else {
			err = waitJob(f.svcs[0], j)
		}
		if err != nil {
			_ = f.stop() // the warm-up error is the one to report
			return nil, err
		}
	}

	var ms0, ms1 runtime.MemStats
	var dc counters
	rep := newReport()
	for _, d := range f.decos {
		dc = dc.sub(d.snapshot())
	}
	pool0 := datatype.PoolOutstandingBytes()
	runtime.ReadMemStats(&ms0)
	jobs := runOpenLoop(cfg, f, client, srv.URL)
	runtime.ReadMemStats(&ms1)
	svcReport(rep, jobs, refs)
	rep.setLayer("datatype.pool_outstanding_delta_bytes", float64(datatype.PoolOutstandingBytes()-pool0), "B")
	for _, d := range f.decos {
		dc = dc.add(d.snapshot())
	}

	f.mu.Lock()
	var waits []float64
	traced := 0
	for _, j := range jobs {
		q, okq := f.queued[j.id]
		s, oks := f.started[j.id]
		if j.id == 0 || !okq || !oks {
			continue
		}
		waits = append(waits, s.Sub(q).Seconds())
		if j.traced {
			traced++
			cfg.spans.add("service.queue", int64(j.id), q, s)
			if !j.done.IsZero() {
				cfg.spans.add("service.run", int64(j.id), s, j.done)
			}
		}
	}
	f.mu.Unlock()
	rep.setLayer("service.queue_wait_s", median(waits), "s")
	per := float64(len(jobs))
	rep.setE2E("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/per, "MB")
	rep.setLayer("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/per, "count")
	layerTransport(rep, dc, per, traced, f.decos)
	rep.setE2E("setup_s", median(setups), "s")
	rep.setE2E("heap_mb", heapMB, "MB")
	rep.setE2E("virt_ms", ((1-svcBigShare)*virt[svcSmall]+svcBigShare*virt[svcBig])*1e3, "virt_ms")
	var tcp transport.TCPStats
	for _, t := range f.tcps {
		tcp = addTCP(tcp, t.Stats())
	}
	layerTCP(rep, tcp)
	rep.failed += int(tcp.Retransmits + tcp.CRCRejects)
	if err := f.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runOpenLoop sends the seeded schedule through at most nproc concurrent
// client connections and returns once every accepted job has finished or
// svcSettle has passed.
func runOpenLoop(cfg runConfig, f *fleet, client *http.Client, url string) []*jobRec {
	sched := poissonSchedule(cfg.seed, svcRate, cfg.window, svcBigShare, svcSmall, svcBig)
	jobs := make([]*jobRec, len(sched))
	for i, a := range sched {
		jobs[i] = &jobRec{extent: a.extent}
	}

	var mu sync.Mutex
	outstanding := map[uint64]*jobRec{}
	stopPoll := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(svcPoll)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			mu.Lock()
			for id, j := range outstanding {
				if st, ok := f.svcs[0].Status(id); ok && terminal(st.State) {
					j.done, j.status = time.Now(), st
					delete(outstanding, id)
					if j.traced {
						cfg.spans.add("job", int64(id), j.due, j.done)
					}
				}
			}
			mu.Unlock()
		}
	}()

	nproc := runtime.NumCPU()
	work := make(chan *jobRec, len(jobs)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				postJob(client, url, j)
				if j.traced {
					cfg.spans.add("service.submit", int64(j.id), j.sent, j.submitted)
				}
				if j.id != 0 {
					mu.Lock()
					outstanding[j.id] = j
					mu.Unlock()
				}
			}
		}()
	}

	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		jobs[i].due = due
		// In the traced run, jobs due in the second half of the window are
		// traced and the first half gives the untraced baseline.
		if cfg.trace && a.due >= cfg.window/2 {
			jobs[i].traced = true
			for _, d := range f.decos {
				d.timing.Store(true)
			}
		}
		work <- jobs[i]
	}
	close(work)
	wg.Wait()
	deadline := time.Now().Add(svcSettle)
	for {
		mu.Lock()
		left := len(outstanding)
		mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(svcPoll)
	}
	close(stopPoll)
	<-polled
	for _, d := range f.decos {
		d.timing.Store(false)
	}
	return jobs
}

// postJob submits j through the HTTP API and records the outcome.
func postJob(client *http.Client, url string, j *jobRec) {
	body, _ := json.Marshal(service.JobSpec{Extent: j.extent, Ranks: svcRanks})
	j.sent = time.Now()
	resp, err := client.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	j.submitted = time.Now()
	if err != nil {
		j.failed = true
		return
	}
	defer resp.Body.Close()
	var out struct {
		ID uint64 `json:"id"`
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		j.refused = true
		_, _ = io.Copy(io.Discard, resp.Body)
	case resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&out) != nil:
		j.failed = true
	default:
		j.id = out.ID
	}
}

// waitJob polls until j reaches a terminal state.
func waitJob(s *service.Service, j *jobRec) error {
	deadline := time.Now().Add(svcSettle)
	for time.Now().Before(deadline) {
		if st, ok := s.Status(j.id); ok && terminal(st.State) {
			j.status = st
			if st.State != "completed" {
				return fmt.Errorf("job %d ended %s: %s", j.id, st.State, st.Error)
			}
			return nil
		}
		time.Sleep(svcPoll)
	}
	return fmt.Errorf("job %d not done after %v", j.id, svcSettle)
}

func terminal(state string) bool {
	return state == "completed" || state == "failed" || state == "canceled"
}

// svcReport checks every job against the reference of its size and turns
// the timelines into metrics.
func svcReport(rep *report, jobs []*jobRec, refs map[int][]float64) {
	rep.attempted = len(jobs)
	var lat, latTraced, submit, run, over, lag []float64
	var refused, failed int
	first, last := time.Time{}, time.Time{}
	for _, j := range jobs {
		lag = append(lag, j.sent.Sub(j.due).Seconds())
		submit = append(submit, j.submitted.Sub(j.sent).Seconds()*1e6)
		switch {
		case j.refused:
			refused++
			continue
		case j.failed || j.done.IsZero() || j.status.State != "completed":
			failed++
			continue
		case !sameHistory(j.status.History, refs[j.extent]):
			rep.mismatches++
			failed++
			continue
		}
		l := j.done.Sub(j.due).Seconds()
		if j.traced {
			latTraced = append(latTraced, l)
		} else {
			lat = append(lat, l)
		}
		run = append(run, j.status.Seconds)
		over = append(over, l-j.status.Seconds)
		if first.IsZero() || j.due.Before(first) {
			first = j.due
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	rep.failed = refused + failed
	rep.setE2E("op_s", median(lat), "s")
	if done := len(lat) + len(latTraced); done > 0 {
		rep.setE2E("ops_per_s", float64(done)/last.Sub(first).Seconds(), "1/s")
	}
	layerTail(rep, lat, latTraced)
	rep.setLayer("service.submit_us", median(submit), "us")
	rep.setLayer("service.run_s", median(run), "s")
	rep.setLayer("service.overhead_s", median(over), "s")
	rep.setLayer("service.refused", float64(refused), "count")
	rep.setLayer("service.failed", float64(failed), "count")
	maxLag := 0.0
	for _, l := range lag {
		maxLag = max(maxLag, l)
	}
	rep.setLayer("svc.gen_lag_s", maxLag, "s")
	if len(latTraced) > 0 && len(lat) > 0 {
		rep.setLayer("obs.trace_overhead", median(latTraced)/median(lat), "ratio")
	}
}

// liveHeap returns the live heap in bytes after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
