package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. A span's parent is always in an earlier
// layer: workload → pass (or the open loop) → figure (or request) →
// store op, render or server handler.
const (
	layerWorkload = "workload"
	layerPass     = "pass"
	layerFigure   = "figure"
	layerRender   = "render"
	layerStore    = "store"
	layerRequest  = "request"
	layerHandler  = "handler"
)

var layerOrder = []string{layerWorkload, layerPass, layerFigure, layerRequest, layerHandler, layerRender, layerStore}

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	id, parent int64
	layer      string
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op, so the end-to-end runs pay
// one nil check per call site.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t          *tracer
	id, parent int64
	layer      string
	name       string
	start      time.Time
}

// begin opens a span under parent (0 = a root span).
func (t *tracer) begin(layer, name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, layer: layer, name: name, start: time.Now()}
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		id: s.id, parent: s.parent, layer: s.layer, name: s.name,
		start: s.start.Sub(s.t.origin), end: now.Sub(s.t.origin),
	})
	s.t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part of that interval its
// child spans cover (children may overlap one another when they ran in
// parallel, so their union is subtracted, not their sum).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.layer] += (s.end - s.start - covered(s, children[s.id])).Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// spanCount returns how many spans of a layer were recorded.
func (t *tracer) spanCount(layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.layer == layer {
			n++
		}
	}
	return n
}

// chromeEvent is one Chrome trace-event record ("X" complete events
// for spans, "M" metadata events naming the rows).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing). Spans of one layer that overlap in
// time are spread over numbered rows of that layer, since a row must
// nest properly.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	var events []chromeEvent
	for li, layer := range layerOrder {
		var rowEnd []time.Duration // per row of this layer: end of its last span
		for _, s := range spans {
			if s.layer != layer {
				continue
			}
			row := -1
			for r, end := range rowEnd {
				if end <= s.start {
					row = r
					break
				}
			}
			if row < 0 {
				row = len(rowEnd)
				rowEnd = append(rowEnd, 0)
				events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: li*1000 + row,
					Args: map[string]any{"name": fmt.Sprintf("%s %d", layer, row)}})
			}
			rowEnd[row] = s.end
			events = append(events, chromeEvent{
				Name: s.name, Cat: layer, Ph: "X", Pid: 1, Tid: li*1000 + row,
				Ts:   float64(s.start.Nanoseconds()) / 1e3,
				Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{"id": s.id, "parent": s.parent},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
