package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent indexes the
// enclosing span, or is -1 for a root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, op int64, parent int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTime is one layer's total time outside its child spans.
type selfTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfTime)
	for i, s := range t.spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Spans++
		a.SelfMS += float64(self) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur, curEnd := lo, lo
	for _, s := range spans {
		start, end := max(s.Start, lo), min(s.End, hi)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - cur
			cur, curEnd = start, end
		} else {
			curEnd = max(curEnd, end)
		}
	}
	return total + curEnd - cur
}

// write stores the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	raw, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self"`
	}{t.spans, self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-32s %16s %s\n", "layer (self time)", "ms", "spans")
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "%-32s %16.3f n=%d\n", s.Name, s.SelfMS, s.Spans)
	}
}
