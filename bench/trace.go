package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed interval recorded around a call into a layer. Spans of
// one lap share its lap span as ancestor; id 0 means "no parent".
type span struct {
	name       string
	id, parent int
	start, end time.Duration // since tracer start
}

// tracer records spans in memory; a nil tracer records nothing, so untraced
// laps pay one nil compare per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].end = time.Since(t.t0)
}

// lapOf walks up to the root span, the lap.
func (t *tracer) lapOf(s span) int {
	for s.parent != 0 {
		s = t.spans[s.parent-1]
	}
	return s.id
}

// perLapSeconds sums, for every lap, the duration of its spans called name,
// and returns the per-lap totals.
func (t *tracer) perLapSeconds(name string) []float64 {
	byLap := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.parent == 0 {
			order = append(order, s.id)
		}
		if s.name == name {
			byLap[t.lapOf(s)] += (s.end - s.start).Seconds()
		}
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = byLap[id]
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (load in
// chrome://tracing or ui.perfetto.dev): one complete ("X") event per span,
// one track per lap, span and parent ids in args.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: t.lapOf(s),
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phase runs fn under a pprof label naming the lap phase, so the CPU profile
// of a traced run can be cut down to the simulate phase. Untraced laps call
// fn directly.
func (t *tracer) phase(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { fn() })
}
