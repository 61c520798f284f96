package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans are
// counted as dropped.  A fig17 solve sends on the order of 10^5 messages,
// and keeping every one would make the span file, not the program, the
// thing being measured.
const maxSpans = 200000

// span is one timed call into a layer.  Spans of one operation (a solve, a
// collective round, a job) share op; the operation's own span is the parent
// of the others.
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends; writeFile puts them on
// disk afterwards, so the file I/O is never inside a measured interval.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	max   int
	spans []span
	drops int
}

func newSpanLog(max int) *spanLog { return &spanLog{base: time.Now(), max: max} }

func (l *spanLog) add(name string, op int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.max {
		l.spans = append(l.spans, span{name, op, start.Sub(l.base).Nanoseconds(), end.Sub(l.base).Nanoseconds()})
	} else {
		l.drops++
	}
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (l *spanLog) dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("encoding span: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
