package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := orZero(percentile(nil, 0.5)); got != 0 {
		t.Errorf("orZero(NaN) = %v", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1,2,4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
	if m := meanMedian([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("meanMedian = %v, want 2.5", m)
	}
}

// TestLayerTimesSubtraction pins the ladder arithmetic: a layer's self
// time is its span minus the spans that name it as parent, per request,
// and same-named spans of one request (one per shard) add up.
func TestLayerTimesSubtraction(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		{Name: "server", Req: 0, Start: 0, End: us(100)},
		{Name: "engine", Parent: "server", Req: 0, Start: 0, End: us(80)},
		{Name: "topk", Parent: "engine", Req: 0, Start: 0, End: us(30)},
		{Name: "core", Parent: "engine", Req: 0, Start: 0, End: us(40)},
		{Name: "lists/ta", Parent: "topk", Req: 0, Start: 0, End: us(12)},
		{Name: "storage.seq/ta", Parent: "lists/ta", Req: 0, Start: 0, End: us(5)},
		{Name: "storage.rand/ta", Parent: "lists/ta", Req: 0, Start: 0, End: us(4)},
		// request 1 is a cache hit: the engine span has no children
		{Name: "server", Req: 1, Start: 0, End: us(20)},
		{Name: "engine", Parent: "server", Req: 1, Start: 0, End: us(1)},
		// two shards' TA runs in request 2
		{Name: "topk", Parent: "shard", Req: 2, Start: 0, End: us(7)},
		{Name: "topk", Parent: "shard", Req: 2, Start: 0, End: us(9)},
	}
	total, self := layerTimes(spans)
	for _, tc := range []struct {
		m    map[string]map[int]float64
		name string
		req  int
		want float64
	}{
		{total, "server", 0, 100}, {self, "server", 0, 20},
		{self, "engine", 0, 10}, {self, "topk", 0, 18}, {self, "core", 0, 40},
		{self, "lists/ta", 0, 3}, {self, "storage.seq/ta", 0, 5},
		{self, "server", 1, 19}, {self, "engine", 1, 1},
		{total, "topk", 2, 16}, {self, "topk", 2, 16},
	} {
		if got := tc.m[tc.name][tc.req]; got != tc.want {
			t.Errorf("%s request %d = %v µs, want %v", tc.name, tc.req, got, tc.want)
		}
	}
	// Self times of one request telescope back to the top span.
	var sum float64
	for name := range self {
		if v, ok := self[name][0]; ok {
			sum += v
		}
	}
	if sum != 100 {
		t.Errorf("self times of request 0 sum to %v µs, want the handler's 100", sum)
	}
	med, n := medianOver(self["server"], nil)
	if n != 2 || med != 19 {
		t.Errorf("medianOver(server self) = %v over %d, want 19 over 2", med, n)
	}
	med, n = medianOver(self["server"], func(req int) bool { return req == 0 })
	if n != 1 || med != 20 {
		t.Errorf("filtered medianOver = %v over %d, want 20 over 1", med, n)
	}
}

// TestCutSlices pins the slice arithmetic: a request belongs to the slice
// its reply arrived in, one that outlasts the last tick to none, and each
// slice yields its own rate, CPU per operation and medians.
func TestCutSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ticks := []tick{{at(0), 1.0}, {at(1000), 1.5}, {at(2000), 1.6}}
	logs := []*clientLog{
		{ops: []opSample{{opAnalyze, at(100), 4}, {opTopK, at(900), 1}, {opTopK, at(1500), 2}, {opTopK, at(2100), 9}}},
		{ops: []opSample{{opTopK, at(500), 3}, {opAnalyze, at(1999), 6}}},
	}
	var sl sliceSeries
	sl.cut(ticks, logs)
	for _, tc := range []struct {
		name      string
		got, want []float64
	}{
		{"ops per second", sl.opsPerS, []float64{3, 2}},
		{"cpu ms per op", sl.cpuMsPerOp, []float64{1e3 * 0.5 / 3, 1e3 * (1.6 - 1.5) / 2}},
		{"p50", sl.p50, []float64{3, 2}},
		{"analyze p50", sl.analyzeP50, []float64{4, 6}},
	} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: %v, want %v", tc.name, tc.got, tc.want)
		}
		for i := range tc.want {
			if math.Abs(tc.got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("%s: %v, want %v", tc.name, tc.got, tc.want)
			}
		}
	}
	// A second deployment's slices are appended to the first's.
	sl.cut(ticks[:2], logs[1:])
	if len(sl.opsPerS) != 3 || sl.opsPerS[2] != 1 {
		t.Errorf("appended slices: %v", sl.opsPerS)
	}
}
