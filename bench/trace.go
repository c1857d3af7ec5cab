package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one request (or one pipeline pass) share a trace id;
// parent is the span that caused this one, 0 for a root.
type span struct {
	Trace  int64  `json:"trace"`
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced and the traced replay share one code path.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// cur is the innermost open span on the replay goroutine. The replay is
	// sequential, so a span opened on another goroutine (a store lookup
	// under ScoreMany, a peer replica's handler) belongs to it.
	cur   int64
	trace int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the current one and makes it current. The
// returned func closes it and restores the previous current span.
func (t *tracer) begin(name string) func() { return t.open(name, true) }

// leaf records a span under the current one without making it current; it
// is safe to call from goroutines other than the replay's.
func (t *tracer) leaf(name string) func() { return t.open(name, false) }

func (t *tracer) open(name string, makeCurrent bool) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	parent := t.cur
	if makeCurrent {
		if parent == 0 {
			t.trace++
		}
		t.cur = id
	}
	t.spans = append(t.spans, span{Trace: t.trace, Span: id, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		if makeCurrent {
			t.cur = parent
		}
		t.mu.Unlock()
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(children[s.Span], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, v := range iv {
		s, e := max(v[0], at), min(v[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}
