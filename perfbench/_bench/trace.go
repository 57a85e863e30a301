package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (the layer and call), the
// operation it belongs to (one request, batch or learner run; every span
// of that operation shares the id), the span that caused it (-1 for a
// root) and its interval relative to the tracer's start.
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced mode: every method is a no-op, so the timed
// code paths are the same in both modes.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere, such as a
// learner generation reported by the learner's own history.
func (t *tracer) record(name string, op int64, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// add bumps a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// durationsMs returns the duration in milliseconds of every closed span
// with the given name, in recording order.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > s.Start {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// layerSummary is the per-name aggregate written with the trace.
type layerSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children (overlapping
// children, such as parallel fan-out legs, are counted once).
func (t *tracer) summary() map[string]layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerSummary)
	for _, s := range t.spans {
		d := s.dur()
		self := d - covered(s, children[s.ID])
		ls := out[s.Name]
		ls.Count++
		ls.TotalMs += float64(d) / 1e6
		ls.SelfMs += float64(self) / 1e6
		out[s.Name] = ls
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeFile writes every span, the counters and the per-name summary as
// one JSON document.
func (t *tracer) writeFile(path string) error {
	sum := t.summary()
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "counters": t.counters, "summary": sum}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
