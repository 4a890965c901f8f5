package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Req; Parent names the span whose interval logically contains
// this one. The ladder measures each layer in its own call, outside the
// program, so parents are assigned by the harness, not discovered.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) micros() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the ladder ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs fn and records it as a span.
func (t *tracer) time(name, parent string, req int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, parent, req, start, time.Since(start))
}

func (t *tracer) add(name, parent string, req int, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: s, End: s + d.Nanoseconds()})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey addresses the spans of one name within one request.
type spanKey struct {
	req  int
	name string
}

// layerTimes groups spans by name and returns, per name and request, the
// total duration and the self time in µs: the duration minus the
// durations of the same request's spans that name it as parent. Several
// spans of one name in one request (one per shard, say) are summed.
func layerTimes(spans []span) (total, self map[string]map[int]float64) {
	total = map[string]map[int]float64{}
	children := map[spanKey]float64{}
	for _, s := range spans {
		if total[s.Name] == nil {
			total[s.Name] = map[int]float64{}
		}
		total[s.Name][s.Req] += s.micros()
		if s.Parent != "" {
			children[spanKey{s.Req, s.Parent}] += s.micros()
		}
	}
	self = map[string]map[int]float64{}
	for name, byReq := range total {
		self[name] = map[int]float64{}
		for req, d := range byReq {
			self[name][req] = d - children[spanKey{req, name}]
		}
	}
	return total, self
}

// medianOver returns the median of byReq over the requests keep accepts
// (nil keeps all), and how many there were.
func medianOver(byReq map[int]float64, keep func(req int) bool) (float64, int) {
	var xs []float64
	for req, v := range byReq {
		if keep == nil || keep(req) {
			xs = append(xs, v)
		}
	}
	return orZero(median(xs)), len(xs)
}
