package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one circuit share its id.
type span struct {
	Name    string `json:"name"`
	Circuit string `json:"circuit"`
	Parent  int    `json:"parent"` // index of the enclosing span, −1 for a root
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. The nil
// tracer records nothing, which is how measured runs stay untraced.
type tracer struct {
	epoch   time.Time
	circuit string
	spans   []span
	open    []int // stack of open spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Circuit: t.circuit, Parent: parent,
		Start: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// call runs f inside a span named name and returns its wall time, which
// measured runs use as well.
func (t *tracer) call(name string, f func() error) (time.Duration, error) {
	i := t.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	t.end(i)
	return d, err
}

// call1 is call for callers that need only the error.
func (t *tracer) call1(name string, f func() error) error {
	_, err := t.call(name, f)
	return err
}

// seconds returns the total duration of the given circuit's spans whose
// path — the span's name after its ancestors' names, joined by "/" —
// equals path.
func (t *tracer) seconds(circuit, path string) float64 {
	var ns int64
	for i, s := range t.spans {
		if s.Circuit == circuit && t.path(i) == path {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) path(i int) string {
	p := t.spans[i].Name
	for j := t.spans[i].Parent; j >= 0; j = t.spans[j].Parent {
		p = t.spans[j].Name + "/" + p
	}
	return p
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the time its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return self
}

// write saves the spans and their self-time summary as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type row struct {
		Name  string  `json:"name"`
		SelfS float64 `json:"self_s"`
	}
	rows := make([]row, len(names))
	for i, n := range names {
		rows[i] = row{n, self[n]}
	}
	b, err := json.MarshalIndent(map[string]any{"self_time": rows, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	//qlint:ignore atomicrename the span export is a report, not checkpoint data
	return os.WriteFile(path, b, 0o644)
}
