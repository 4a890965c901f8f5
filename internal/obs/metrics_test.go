package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Registries under test are private so the package-global Default (and
// its golden name set) is untouched.

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := &Counter{nm: "ir_test_total", hp: "a test counter"}
	r.register(c)
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP ir_test_total a test counter\n# TYPE ir_test_total counter\nir_test_total 5\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCounterVecSortsAndEscapes(t *testing.T) {
	r := NewRegistry()
	vec := &CounterVec{nm: "ir_test_vec_total", hp: "h", label: "kind", children: map[string]*atomic.Int64{}}
	r.register(vec)
	vec.Inc("b")
	vec.Add("a", 2)
	vec.Inc(`quo"te`)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia, ib := strings.Index(out, `kind="a"`), strings.Index(out, `kind="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("children not sorted by label value:\n%s", out)
	}
	if !strings.Contains(out, `kind="quo\"te"`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

func TestGaugeAndFunc(t *testing.T) {
	r := NewRegistry()
	g := &Gauge{nm: "ir_test_gauge", hp: "g"}
	r.register(g)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Value() = %v, want 1.5", got)
	}
	gf := &GaugeFunc{nm: "ir_test_gf", hp: "gf", fn: func() float64 { return 42 }}
	r.register(gf)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ir_test_gauge 1.5\n") || !strings.Contains(b.String(), "ir_test_gf 42\n") {
		t.Fatalf("exposition:\n%s", b.String())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := newHistogram("ir_test_seconds", "h", []float64{0.1, 1, 10})
	r.register(h)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ir_test_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1 (le is inclusive)
		`ir_test_seconds_bucket{le="1"} 3`,
		`ir_test_seconds_bucket{le="10"} 4`,
		`ir_test_seconds_bucket{le="+Inf"} 5`,
		`ir_test_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	v := &HistogramVec{nm: "ir_test_hv_seconds", hp: "h", label: "target",
		bounds: []float64{0.5, 1}, children: map[string]*Histogram{}}
	r.register(v)
	v.Observe("n2", 0.2)
	v.Observe("n1", 2)
	v.Observe("n1", 0.7)
	if got := v.Count("n1"); got != 2 {
		t.Fatalf("Count(n1) = %d, want 2", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ir_test_hv_seconds_bucket{target="n1",le="0.5"} 0`,
		`ir_test_hv_seconds_bucket{target="n1",le="1"} 1`,
		`ir_test_hv_seconds_bucket{target="n1",le="+Inf"} 2`,
		`ir_test_hv_seconds_count{target="n1"} 2`,
		`ir_test_hv_seconds_count{target="n2"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.register(&Counter{nm: "ir_dup_total"})
	for name, m := range map[string]metric{
		"duplicate": &Counter{nm: "ir_dup_total"},
		"bad chars": &Counter{nm: "ir-bad-name"},
		"uppercase": &Counter{nm: "IR_bad"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("register(%s) did not panic", name)
				}
			}()
			r.register(m)
		}()
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := newHistogram("ir_test_conc_seconds", "h", LatencyBuckets)
	r.register(h)
	c := &Counter{nm: "ir_test_conc_total", hp: "c"}
	r.register(c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) / 100)
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("lost updates: hist=%d counter=%d", h.Count(), c.Value())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("lint problems: %v", problems)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"missing metadata": "ir_orphan_total 1\n",
		"missing type":     "# HELP ir_x_total h\nir_x_total 1\n",
		"duplicate series": "# HELP ir_d h\n# TYPE ir_d gauge\nir_d 1\nir_d 2\n",
		"bad name":         "# HELP ir_Bad h\n# TYPE ir_Bad gauge\nir_Bad 1\n",
		"bad type":         "# HELP ir_t h\n# TYPE ir_t rate\nir_t 1\n",
		"no inf bucket": "# HELP ir_h h\n# TYPE ir_h histogram\n" +
			"ir_h_bucket{le=\"1\"} 1\nir_h_sum 1\nir_h_count 1\n",
		"non-monotonic": "# HELP ir_h h\n# TYPE ir_h histogram\n" +
			"ir_h_bucket{le=\"1\"} 5\nir_h_bucket{le=\"2\"} 3\nir_h_bucket{le=\"+Inf\"} 5\nir_h_sum 1\nir_h_count 5\n",
		"count mismatch": "# HELP ir_h h\n# TYPE ir_h histogram\n" +
			"ir_h_bucket{le=\"1\"} 1\nir_h_bucket{le=\"+Inf\"} 2\nir_h_sum 1\nir_h_count 3\n",
		"unparseable value": "# HELP ir_v h\n# TYPE ir_v gauge\nir_v x\n",
	}
	for name, in := range cases {
		if problems := LintExposition(strings.NewReader(in)); len(problems) == 0 {
			t.Errorf("%s: lint found nothing in:\n%s", name, in)
		}
	}
	clean := "# HELP ir_ok_total h\n# TYPE ir_ok_total counter\nir_ok_total 3\n"
	if problems := LintExposition(strings.NewReader(clean)); len(problems) != 0 {
		t.Errorf("clean exposition flagged: %v", problems)
	}
}

func TestDefaultRegistryConformant(t *testing.T) {
	var b strings.Builder
	if err := Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if problems := LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Fatalf("default registry not conformant: %v", problems)
	}
	for _, want := range []string{"ir_build_info", "ir_process_start_time_seconds", "ir_process_uptime_seconds"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("default registry missing %s", want)
		}
	}
}
