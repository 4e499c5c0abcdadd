package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "kind", "a")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters never decrease
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value = %g, want 3", got)
	}
	if again := r.Counter("test_ops_total", "kind", "a"); again != c {
		t.Fatal("get-or-create returned a different handle for the same series")
	}
	if other := r.Counter("test_ops_total", "kind", "b"); other == c {
		t.Fatal("distinct label sets must be distinct series")
	}

	g := r.Gauge("test_depth")
	if !math.IsNaN(g.Value()) {
		t.Fatalf("fresh gauge = %g, want NaN", g.Value())
	}
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %g, want 2.5", got)
	}
	g.SetMin(7) // higher: ignored
	if got := g.Value(); got != 2.5 {
		t.Fatalf("SetMin raised the gauge to %g", got)
	}
	g.SetMin(1)
	if got := g.Value(); got != 1 {
		t.Fatalf("SetMin value = %g, want 1", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var reg *Registry
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	g.SetMin(1)
	h.Observe(1)
	tr.Emit("x", nil)
	if tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer returned events")
	}
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil {
		t.Fatal("nil registry returned live handles")
	}
	if err := reg.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var sh *SearchHooks
	if sh.WithID(3) != nil || sh.ProposedFor(0) != nil || sh.AcceptedFor(0) != nil {
		t.Fatal("nil SearchHooks not inert")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_mixed")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter family as a gauge did not panic")
		}
	}()
	r.Gauge("test_mixed")
}

func TestLabelRendering(t *testing.T) {
	r := NewRegistry()
	// Keys sort canonically: the same set in any order is one series.
	a := r.Counter("test_l_total", "b", "2", "a", "1")
	b := r.Counter("test_l_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order created distinct series")
	}
	r.Counter("test_esc_total", "msg", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `test_esc_total{msg="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", sb.String())
	}
}

// expositionLine matches a valid sample line of the text format.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

// CheckExposition validates Prometheus text output: every line is a
// comment or a well-formed sample, and no series repeats. Shared with
// the server tests via this exported-in-test helper pattern.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("empty exposition line")
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if series[key] {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = true
	}
	return series
}

// runtimeSeries returns the series RegisterRuntimeMetrics creates.
func runtimeSeries(t *testing.T) map[string]bool {
	t.Helper()
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return checkExposition(t, sb.String())
}

// sampleSeries returns the series of a sample line (everything before
// the value), or "" for a comment line.
func sampleSeries(line string) string {
	if strings.HasPrefix(line, "#") {
		return ""
	}
	return line[:max(strings.LastIndexByte(line, ' '), 0)]
}

func TestWritePromDeterministicAndValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_b_total", "x", "1").Add(2)
	r.Counter("test_b_total", "x", "2").Add(3)
	r.Counter("test_a_total").Inc()
	r.Gauge("test_g").Set(1.25)
	r.GaugeFunc("test_fn", func() float64 { return 9 })
	r.Histogram("test_h_seconds", []float64{0.1, 1}).Observe(0.5)
	r.SetHelp("test_a_total", "first\nsecond")
	RegisterRuntimeMetrics(r)

	var sb1, sb2 strings.Builder
	if err := r.WriteProm(&sb1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&sb2); err != nil {
		t.Fatal(err)
	}
	// The runtime gauges read live process state (goroutines of other
	// tests come and go between the two scrapes), so only their sample
	// values may differ; every other line, and the runtime series
	// themselves, must match line for line.
	live := runtimeSeries(t)
	l1 := strings.Split(sb1.String(), "\n")
	l2 := strings.Split(sb2.String(), "\n")
	if len(l1) != len(l2) {
		t.Fatalf("exposition is not deterministic: %d lines, then %d", len(l1), len(l2))
	}
	for i, a := range l1 {
		b := l2[i]
		if a == b {
			continue
		}
		if ka, kb := sampleSeries(a), sampleSeries(b); ka == kb && live[ka] {
			continue
		}
		t.Fatalf("exposition is not deterministic at line %d:\n  %s\n  %s", i+1, a, b)
	}
	body := sb1.String()
	series := checkExposition(t, body)
	for _, want := range []string{
		`test_a_total`,
		`test_b_total{x="1"}`,
		`test_b_total{x="2"}`,
		`test_g`,
		`test_fn`,
		`test_h_seconds_bucket{le="0.1"}`,
		`test_h_seconds_bucket{le="+Inf"}`,
		`test_h_seconds_sum`,
		`test_h_seconds_count`,
		`go_goroutines`,
	} {
		if !series[want] {
			t.Errorf("exposition is missing series %q:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "# TYPE test_h_seconds histogram") {
		t.Error("missing histogram TYPE line")
	}
	if !strings.Contains(body, "# HELP test_a_total first second") {
		t.Error("HELP newline not flattened")
	}
	// Families must appear sorted.
	ia := strings.Index(body, "# TYPE test_a_total")
	ib := strings.Index(body, "# TYPE test_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Error("families are not sorted by name")
	}
}

// TestRegistryConcurrency exercises the sharded registry under the
// race detector: concurrent get-or-create of hot and cold series,
// concurrent updates on shared handles, and concurrent collection.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	wg.Add(goroutines + 2)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			mine := r.Counter("test_cc_total", "g", string(rune('a'+g)))
			shared := r.Counter("test_shared_total")
			gauge := r.Gauge("test_cc_gauge")
			hist := r.Histogram("test_cc_seconds", []float64{0.001, 0.01, 0.1, 1})
			for i := 0; i < perG; i++ {
				mine.Inc()
				shared.Inc()
				gauge.Set(float64(i))
				gauge.SetMin(float64(-i))
				hist.Observe(float64(i%7) / 50)
			}
		}(g)
	}
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WriteProm(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test_shared_total").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %g, want %d (lost updates)", got, goroutines*perG)
	}
	if got := r.Histogram("test_cc_seconds", nil).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter("test_cc_total", "g", string(rune('a'+g))).Value(); got != perG {
			t.Fatalf("per-goroutine counter %d = %g, want %d", g, got, perG)
		}
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "a b", "a-b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd label pairs did not panic")
			}
		}()
		r.Counter("test_ok_total", "onlykey")
	}()
}
