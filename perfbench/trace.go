package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into the program:
// name, start, end, parent span and operation id. Spans stay in memory
// (up to maxKeptSpans of them) and are written out when the run ends;
// the per-layer aggregates cover every span, kept or not.
//
// A span's self time is its duration minus the time its child spans
// cover. Children of one span never overlap here (each is a
// synchronous call made by the parent's goroutine), so that is the
// duration minus the children's summed durations.
type tracer struct {
	base time.Time

	nextID atomic.Int64

	mu     sync.Mutex
	kept   []spanRecord
	drops  int64
	layers map[string]*layerAgg
}

const maxKeptSpans = 50_000

type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span, held by value by the code that opened it. The
// zero span (from a nil tracer) is inert.
type span struct {
	tr      *tracer
	parent  *span
	id, op  int64
	name    string
	start   int64
	childNs int64
}

type layerAgg struct {
	calls  int64
	selfNs int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), layers: map[string]*layerAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span named name for operation op under parent (nil for
// a root). It is a no-op on a nil tracer.
func (t *tracer) begin(name string, parent *span, op int64) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, parent: parent, id: t.nextID.Add(1), op: op, name: name, start: t.now()}
}

// end closes s and returns its duration in ns (0 for an inert span).
func (s *span) end() int64 {
	if s.tr == nil {
		return 0
	}
	return s.endAt(s.tr.now())
}

// endAt closes s at a time taken by the caller (tracer clock).
func (s *span) endAt(at int64) int64 {
	t := s.tr
	if t == nil {
		return 0
	}
	dur := at - s.start
	var parentID int64
	if s.parent != nil {
		s.parent.childNs += dur
		parentID = s.parent.id
	}
	t.mu.Lock()
	a := t.layers[s.name]
	if a == nil {
		a = &layerAgg{}
		t.layers[s.name] = a
	}
	a.calls++
	a.selfNs += dur - s.childNs
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRecord{ID: s.id, Parent: parentID, Op: s.op, Name: s.name, Start: s.start, End: at})
	} else {
		t.drops++
	}
	t.mu.Unlock()
	return dur
}

// record adds a finished root span whose interval the caller timed
// itself (for example a delivery that started on another goroutine).
func (t *tracer) record(name string, op, start, end int64) {
	if t == nil {
		return
	}
	s := t.begin(name, nil, op)
	s.start = start
	s.endAt(end)
}

// selfPerCall returns the mean self time per call of a layer in ns, and
// whether the layer was seen at all.
func (t *tracer) selfPerCall(name string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.layers[name]
	if a == nil || a.calls == 0 {
		return 0, false
	}
	return float64(a.selfNs) / float64(a.calls), true
}

// write stores the kept spans as JSON lines under perfbench/traces/
// (relative to the working directory) and returns the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join("perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, r := range t.kept {
		if err := enc.Encode(r); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	drops := t.drops
	t.mu.Unlock()
	if drops > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", drops)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
