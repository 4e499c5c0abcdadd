package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
)

// expositionLine matches one sample line of the Prometheus text
// format: a metric name, an optional label set, and a value. Label
// values may themselves contain braces (route patterns like
// /v1/jobs/{id}), so the label-set match is greedy rather than
// brace-excluding.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$`)

// TestMetricsExposition drives the server with real jobs and then
// checks the /metrics endpoint end to end: the body parses as valid
// exposition text with no duplicate series, and the series the ISSUE
// names as the acceptance bar are all present with sensible values.
func TestMetricsExposition(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 4, QueueDepth: 16, CacheSize: 16,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()

	// Run a few jobs (one repeated for a cache hit) so the search,
	// restart, job, and cache series all have observations.
	for _, seed := range []uint64{1, 2, 1} {
		v, err := c.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := c.Wait(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}

	body := mustGET(t, ts.URL+"/metrics")
	series := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatal("empty exposition line")
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		key := line[:sp]
		if _, dup := series[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		var v float64
		if err := json.Unmarshal([]byte(line[sp+1:]), &v); err == nil {
			series[key] = v
		} else {
			series[key] = 0 // NaN/Inf renderings; presence is what matters
		}
	}

	for _, want := range []string{
		"stochsyn_search_iterations_total",
		`stochsyn_moves_proposed_total{move="instruction"}`,
		`stochsyn_moves_accepted_total{move="instruction"}`,
		`stochsyn_restarts_total{strategy="adaptive"}`,
		`stochsyn_job_run_seconds_count`,
		`stochsyn_job_run_seconds_bucket{le="+Inf"}`,
		"stochsyn_job_queue_wait_seconds_count",
		"stochsyn_jobs_submitted_total",
		"stochsyn_cache_hits_total",
		"stochsyn_cache_misses_total",
		"stochsyn_queue_depth",
		"stochsyn_uptime_seconds",
		`stochsyn_jobs{state="completed"}`,
		`stochsyn_http_requests_total{code="200",route="/v1/jobs/{id}"}`,
		`stochsyn_http_request_seconds_count{route="/v1/jobs"}`,
		"go_goroutines",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("exposition missing series %q", want)
		}
	}
	if v := series["stochsyn_search_iterations_total"]; v <= 0 {
		t.Errorf("search iterations total = %g, want > 0", v)
	}
	if v := series[`stochsyn_jobs{state="completed"}`]; v != 3 {
		t.Errorf("completed jobs gauge = %g, want 3", v)
	}
	if v := series["stochsyn_cache_hits_total"]; v < 1 {
		t.Errorf("cache hits = %g, want >= 1", v)
	}

	// /tracez returns well-formed JSONL covering the job lifecycle.
	trace := mustGET(t, ts.URL+"/tracez")
	sawJob := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(trace))
	n := 0
	for sc.Scan() {
		var ev struct {
			Seq   uint64         `json:"seq"`
			Event string         `json:"event"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("tracez line %d is not JSON: %v (%q)", n, err, sc.Text())
		}
		sawJob[ev.Event] = true
		n++
	}
	if n == 0 {
		t.Fatal("tracez is empty after running jobs")
	}
	for _, want := range []string{"job_submitted", "job_started", "job_finished", "search_start", "search_stop", "cache_hit"} {
		if !sawJob[want] {
			t.Errorf("tracez missing a %q event (saw %v)", want, sawJob)
		}
	}

	// /statsz carries the new fields alongside the original shape.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %g", st.UptimeSeconds)
	}
	if st.JobsByState["completed"] != 3 || st.Jobs.Completed != 3 {
		t.Errorf("jobs_by_state = %v, Jobs = %+v; want 3 completed", st.JobsByState, st.Jobs)
	}
	if st.Cache.Hits < 1 || st.Submitted != 3 {
		t.Errorf("registry-backed stats wrong: %+v", st)
	}

	// pprof is wired.
	if body := mustGET(t, ts.URL+"/debug/pprof/cmdline"); body == "" {
		t.Error("pprof cmdline endpoint returned nothing")
	}
}

func mustGET(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTracez checks that /tracez serves the events its query selects
// (Tracer.Query) as JSONL and answers a malformed n with an APIError
// 400.
func TestTracez(t *testing.T) {
	o := obs.New()
	srv, ts, _ := newTestServer(t, server.Config{Workers: 1, Obs: o})
	defer ts.Close()
	defer srv.Close()
	for i := 0; i < 3; i++ {
		o.Tracer.Emit("restart_fire", map[string]any{"i": i})
		o.Tracer.Emit("search_cost", map[string]any{"i": i})
	}
	var evs []obs.Event
	sc := bufio.NewScanner(strings.NewReader(mustGET(t, ts.URL+"/tracez?event=search_cost&n=2")))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if len(evs) != 2 || evs[0].Name != "search_cost" || evs[0].Attrs["i"] != 1.0 || evs[1].Attrs["i"] != 2.0 {
		t.Errorf("?event=search_cost&n=2 gave %+v, want the last two search_cost events", evs)
	}
	for _, q := range []string{"?n=abc", "?n=-1", "?n=1.5"} {
		resp, err := http.Get(ts.URL + "/tracez" + q)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr server.APIError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(apiErr.Error, "malformed n") {
			t.Errorf("GET /tracez%s = %d %+v (%v), want 400 naming the malformed n", q, resp.StatusCode, apiErr, err)
		}
	}
}
