package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricNameRe is the runtime charset check on registration; the
// obsreg analyzer additionally pins the repo's `ir_` prefix statically.
var metricNameRe = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// LatencyBuckets are the default duration buckets (seconds): half a
// millisecond to ten seconds, roughly 2.5x apart — wide enough for the
// cold fig12 tail, fine enough to separate cache hits from TA scans.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets suit discrete work counters (sorted accesses, rounds):
// powers of four from 64 to ~1M.
var CountBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// metric is one registered family; write emits its sample lines (not
// HELP/TYPE — the registry owns those).
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string
	write(w *bufio.Writer)
}

// Registry is a set of metric families keyed by name. The zero value
// is not usable; see NewRegistry. All methods are safe for concurrent
// use; sample updates are atomic and never block exposition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]metric
}

// NewRegistry returns an empty registry. Almost all code uses the
// package-level Default via the New* constructors; separate registries
// exist for tests.
func NewRegistry() *Registry {
	return &Registry{families: map[string]metric{}}
}

// Default is the process-wide registry served by Handler.
var Default = NewRegistry()

// register adds m, panicking on duplicate or malformed names:
// registration happens once at package init, so a bad name is a bug
// that should stop the process before it serves anything.
func (r *Registry) register(m metric) {
	name := m.metricName()
	if !metricNameRe.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.families[name] = m
}

// Names returns the registered family names, sorted. The golden
// metric-name snapshot test pins this set.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteText renders the registry in the Prometheus text exposition
// format (0.0.4): families sorted by name, HELP and TYPE once each,
// then the samples.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]metric, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	for _, m := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", m.metricName(), escapeHelp(m.metricHelp()))
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.metricName(), m.metricType())
		m.write(bw)
	}
	return bw.Flush()
}

// Handler serves the default registry as text/plain exposition.
func Handler() http.Handler {
	return HandlerFor(Default)
}

// HandlerFor serves one registry's exposition.
func HandlerFor(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// escapeHelp escapes backslashes and newlines per the exposition
// grammar (HELP text is otherwise free-form).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value for the `name{k="v"}` syntax.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatFloat renders sample values: integers without an exponent,
// everything else in Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// atomicFloat is a float64 with atomic add/load, stored as IEEE bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// ---- Counter ----

// Counter is a monotonically increasing integer sample.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, hp: help}
	Default.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.nm }
func (c *Counter) metricHelp() string { return c.hp }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) write(w *bufio.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

// ---- CounterVec ----

// CounterVec is a counter family over one label whose values come from
// a closed set; With creates the child series on first use.
type CounterVec struct {
	nm, hp, label string
	mu            sync.RWMutex
	children      map[string]*atomic.Int64
}

// NewCounterVec registers a one-label counter family.
func NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{nm: name, hp: help, label: label, children: map[string]*atomic.Int64{}}
	Default.register(v)
	return v
}

// child returns the series cell for one label value, creating it on
// first use. Values must come from a closed set (the obsreg analyzer
// rejects non-constant values without an explicit suppression).
func (v *CounterVec) child(value string) *atomic.Int64 {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = new(atomic.Int64)
		v.children[value] = c
	}
	return c
}

// Inc adds one to the series for value.
func (v *CounterVec) Inc(value string) { v.child(value).Add(1) }

// Add adds n (non-negative) to the series for value.
func (v *CounterVec) Add(value string, n int64) {
	if n > 0 {
		v.child(value).Add(n)
	}
}

// Value returns the series count (0 if the series does not exist yet).
func (v *CounterVec) Value(value string) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c := v.children[value]; c != nil {
		return c.Load()
	}
	return 0
}

func (v *CounterVec) metricName() string { return v.nm }
func (v *CounterVec) metricHelp() string { return v.hp }
func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) write(w *bufio.Writer) {
	v.mu.RLock()
	vals := make([]string, 0, len(v.children))
	for val := range v.children {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	for _, val := range vals {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", v.nm, v.label, escapeLabel(val), v.children[val].Load())
	}
	v.mu.RUnlock()
}

// ---- Gauge ----

// Gauge is an adjustable float sample.
type Gauge struct {
	nm, hp string
	bits   atomic.Uint64
}

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, hp: help}
	Default.register(g)
	return g
}

// Add adjusts the value by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.nm }
func (g *Gauge) metricHelp() string { return g.hp }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) write(w *bufio.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.nm, formatFloat(g.Value()))
}

// ---- GaugeFunc ----

// GaugeFunc samples a callback at exposition time; it is the bridge
// type that mirrors the /stats snapshots (storage.IOStats, WAL,
// overlay, replication lag) into /metrics so the two never drift.
type GaugeFunc struct {
	nm, hp string
	labels string // pre-rendered `{k="v",...}` or ""
	fn     func() float64
}

// NewGaugeFunc registers a callback-backed gauge. fn runs on every
// scrape and must be cheap, non-blocking and nil-safe.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{nm: name, hp: help, fn: fn}
	Default.register(g)
	return g
}

// NewLabeledGaugeFunc registers a callback gauge with constant labels
// (rendered once, sorted by key) — the `ir_build_info` idiom.
func NewLabeledGaugeFunc(name, help string, labels map[string]string, fn func() float64) *GaugeFunc {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	g := &GaugeFunc{nm: name, hp: help, labels: "{" + b.String() + "}", fn: fn}
	Default.register(g)
	return g
}

func (g *GaugeFunc) metricName() string { return g.nm }
func (g *GaugeFunc) metricHelp() string { return g.hp }
func (g *GaugeFunc) metricType() string { return "gauge" }
func (g *GaugeFunc) write(w *bufio.Writer) {
	fmt.Fprintf(w, "%s%s %s\n", g.nm, g.labels, formatFloat(g.fn()))
}

// ---- Histogram ----

// Histogram is a fixed-bucket distribution; buckets are upper bounds
// in ascending order with an implicit +Inf. Observe is lock-free.
type Histogram struct {
	nm, hp string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	n      atomic.Int64
}

// NewHistogram registers a histogram; buckets must be strictly
// ascending and non-empty (registration panics otherwise).
func NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, help, buckets)
	Default.register(h)
	return h
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram " + name + " needs buckets")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not ascending")
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{nm: name, hp: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

func (h *Histogram) metricName() string { return h.nm }
func (h *Histogram) metricHelp() string { return h.hp }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) write(w *bufio.Writer) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(h.sum.load()))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.n.Load())
}

// ---- HistogramVec ----

// HistogramVec is a histogram family over one label.
type HistogramVec struct {
	nm, hp, label string
	bounds        []float64
	mu            sync.RWMutex
	children      map[string]*Histogram
}

// NewHistogramVec registers a one-label histogram family.
func NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	// Validate eagerly via a throwaway child so bad buckets fail at init.
	_ = newHistogram(name, help, buckets)
	v := &HistogramVec{nm: name, hp: help, label: label,
		bounds: append([]float64(nil), buckets...), children: map[string]*Histogram{}}
	Default.register(v)
	return v
}

// Observe records a sample in the series for value.
func (v *HistogramVec) Observe(value string, sample float64) {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h == nil {
		v.mu.Lock()
		if h = v.children[value]; h == nil {
			h = newHistogram(v.nm, v.hp, v.bounds)
			v.children[value] = h
		}
		v.mu.Unlock()
	}
	h.Observe(sample)
}

// Count returns the observation count for one series.
func (v *HistogramVec) Count(value string) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if h := v.children[value]; h != nil {
		return h.Count()
	}
	return 0
}

func (v *HistogramVec) metricName() string { return v.nm }
func (v *HistogramVec) metricHelp() string { return v.hp }
func (v *HistogramVec) metricType() string { return "histogram" }
func (v *HistogramVec) write(w *bufio.Writer) {
	v.mu.RLock()
	vals := make([]string, 0, len(v.children))
	for val := range v.children {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	for _, val := range vals {
		h := v.children[val]
		lbl := fmt.Sprintf("%s=\"%s\",", v.label, escapeLabel(val))
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", v.nm, lbl, formatFloat(b), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", v.nm, lbl, cum)
		fmt.Fprintf(w, "%s_sum{%s=\"%s\"} %s\n", v.nm, v.label, escapeLabel(val), formatFloat(h.sum.load()))
		fmt.Fprintf(w, "%s_count{%s=\"%s\"} %d\n", v.nm, v.label, escapeLabel(val), h.n.Load())
	}
	v.mu.RUnlock()
}
