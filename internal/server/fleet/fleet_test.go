package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"stochsyn"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
	"stochsyn/internal/server/fleet"
)

func easySpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{Expr: "xorq(x, y)", Inputs: 2, NumCases: 40, CaseSeed: 11},
		Options: server.OptionsSpec{Budget: 2_000_000, Seed: seed, Workers: 2},
	}
}

func hardSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{
			Expr:   "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))",
			Inputs: 1, NumCases: 50, CaseSeed: 3,
		},
		Options: server.OptionsSpec{Budget: 1 << 40, Seed: seed},
	}
}

func slowSpec(seed uint64) server.JobSpec {
	s := hardSpec(seed)
	s.Options.Budget = 1_500_000
	return s
}

// worker bundles one worker synthd and its HTTP front.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
}

func newWorker(t *testing.T, cfg server.Config) *worker {
	t.Helper()
	srv := server.New(cfg)
	return &worker{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// stop tears the worker down hard: HTTP first, then an already-
// expired drain so running jobs are cancelled, not awaited. Open
// client connections (e.g. a relay's SSE stream) are severed first —
// ts.Close would otherwise block on them, which is exactly the
// opposite of the worker-crash this simulates.
func (w *worker) stop() {
	w.ts.CloseClientConnections()
	w.ts.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	_ = w.srv.Shutdown(ctx)
}

func newFleet(t *testing.T, workers ...*worker) (*fleet.Coordinator, *httptest.Server, *client.Client) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	co, err := fleet.New(fleet.Config{Workers: urls, HealthInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	c := client.New(ts.URL)
	c.HTTPClient = ts.Client()
	return co, ts, c
}

func waitRunning(t *testing.T, c *client.Client, id string) *server.JobView {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if v.Status == server.StatusRunning {
			return v
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s terminal while waiting for running: %+v", id, v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not start running", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetDeterminism checks that placement is invisible: a job
// submitted through the coordinator, the same spec run against a
// single local synthd, and the same spec built and synthesized by the
// library in process return bit-identical results (solved, program,
// iterations, searches, seed, canonical hash) — the schedule-
// deterministic tree executor makes the topology invisible.
func TestFleetDeterminism(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	local := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer local.stop()
	lc := client.New(local.ts.URL)

	seeds := []uint64{1, 2, 3, 4}
	fleetViews := make([]*server.JobView, len(seeds))
	for i, seed := range seeds {
		v, err := c.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatalf("fleet submit seed %d: %v", seed, err)
		}
		fleetViews[i] = v
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	for i := range fleetViews {
		v, err := c.Wait(wctx, fleetViews[i].ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		fleetViews[i] = v
	}

	for i, seed := range seeds {
		lv, err := lc.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatalf("local submit seed %d: %v", seed, err)
		}
		lv, err = lc.Wait(wctx, lv.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		fv := fleetViews[i]
		if fv.Status != server.StatusCompleted || lv.Status != server.StatusCompleted {
			t.Fatalf("seed %d: fleet %s / local %s", seed, fv.Status, lv.Status)
		}
		if fv.Worker == "" {
			t.Errorf("seed %d: fleet view missing worker attribution: %+v", seed, fv)
		}
		fr, lr := fv.Result, lv.Result
		if fr == nil || lr == nil {
			t.Fatalf("seed %d: missing result: fleet %+v local %+v", seed, fr, lr)
		}
		problem, opts, err := easySpec(seed).Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := stochsyn.SynthesizeContext(ctx, problem, opts)
		if err != nil {
			t.Fatalf("seed %d: library: %v", seed, err)
		}
		lib := server.ResultView{
			Solved: res.Solved, Program: res.Program, Iterations: res.Iterations,
			Searches: res.Searches, Seed: res.Seed, CanonicalHash: fmt.Sprintf("%016x", res.CanonicalHash),
		}
		for name, r := range map[string]*server.ResultView{"fleet": fr, "local": lr} {
			if r.Solved != lib.Solved || r.Program != lib.Program || r.Iterations != lib.Iterations ||
				r.Searches != lib.Searches || r.Seed != lib.Seed || r.CanonicalHash != lib.CanonicalHash {
				t.Errorf("seed %d: %s result differs from the library's:\n%s: %+v\nlibrary: %+v", seed, name, name, r, lib)
			}
		}
	}

	st := co.Snapshot()
	var forwards int64
	for _, ws := range st.Workers {
		forwards += ws.Forwards
	}
	if forwards != int64(len(seeds)) || st.Submissions != len(seeds) {
		t.Errorf("fleet stats: %+v, want %d forwards/submissions", st, len(seeds))
	}
}

// TestFleetFailoverMidRun kills the worker a job is running on and
// expects the coordinator to re-dispatch it to the surviving shard
// under the same id — no hang, no lost job.
func TestFleetFailoverMidRun(t *testing.T) {
	ctx := context.Background()
	workers := []*worker{
		newWorker(t, server.Config{Workers: 1, WorkerBudget: 1}),
		newWorker(t, server.Config{Workers: 1, WorkerBudget: 1}),
	}
	co, ts, c := newFleet(t, workers[0], workers[1])
	defer ts.Close()
	defer co.Close()

	v, err := c.Submit(ctx, hardSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	v = waitRunning(t, c, v.ID)
	var dead, survivor *worker
	switch v.Worker {
	case "w0":
		dead, survivor = workers[0], workers[1]
	case "w1":
		dead, survivor = workers[1], workers[0]
	default:
		t.Fatalf("unattributed job: %+v", v)
	}
	deadName := v.Worker
	defer survivor.stop()
	dead.stop()

	// The next polls find the worker gone and re-dispatch; the job
	// keeps its coordinator id and ends up running on the survivor.
	deadline := time.Now().Add(15 * time.Second)
	for {
		rv, err := c.Job(ctx, v.ID)
		if err == nil && rv.Worker != deadName && rv.Status == server.StatusRunning {
			v = rv
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not re-dispatched: last view %+v err %v", rv, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := co.Snapshot(); st.Redispatches != 1 {
		t.Errorf("redispatches = %d, want 1", st.Redispatches)
	}

	// The re-dispatched job is live: cancel it through the
	// coordinator and see it finish.
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	fv, err := c.Wait(wctx, v.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCancelled {
		t.Errorf("cancelled re-dispatched job: %+v", fv)
	}
}

// TestFleetSingleflightSharding checks the fleet-level dedup story:
// identical submissions shard to the same worker, whose singleflight
// joins them — one search for two coordinator clients.
func TestFleetSingleflightSharding(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 2})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 2})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	first, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	first = waitRunning(t, c, first.ID)
	second, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Fatalf("identical submissions sharded apart: %s vs %s", first.Worker, second.Worker)
	}

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	fv, err := c.Wait(wctx, first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.Wait(wctx, second.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Deduped {
		t.Errorf("second identical submission should be a singleflight follower: %+v", sv)
	}
	if fv.Result == nil || sv.Result == nil || fv.Result.Program != sv.Result.Program ||
		fv.Result.Iterations != sv.Result.Iterations {
		t.Errorf("deduped results differ:\n%+v\n%+v", fv.Result, sv.Result)
	}
	joins := w0.srv.Snapshot().Dedup.Joins + w1.srv.Snapshot().Dedup.Joins
	if joins != 1 {
		t.Errorf("worker dedup joins = %d, want 1", joins)
	}
}

// TestFleetBackpressure fills the only worker and expects the
// coordinator to answer 503 with a Retry-After hint rather than hang.
func TestFleetBackpressure(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1, QueueDepth: 1})
	defer w0.stop()
	co, ts, c := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	first, err := c.Submit(ctx, hardSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, first.ID)
	if _, err := c.Submit(ctx, hardSpec(2)); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(hardSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit through coordinator = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 from coordinator missing Retry-After hint")
	}
	if st := co.Snapshot(); st.Backpressure != 1 {
		t.Errorf("backpressure counter = %d, want 1", st.Backpressure)
	}
}

// TestFleetBadSpec checks that invalid specs are rejected at the
// coordinator (400) without consuming a forward.
func TestFleetBadSpec(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer w0.stop()
	co, ts, c := newFleet(t, w0)
	defer ts.Close()
	defer co.Close()

	_, err := c.Submit(ctx, server.JobSpec{Problem: server.ProblemSpec{Expr: "frobq(x)", Inputs: 1}})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec through coordinator: %v, want 400", err)
	}
	var forwards int64
	for _, ws := range co.Snapshot().Workers {
		forwards += ws.Forwards
	}
	if forwards != 0 {
		t.Errorf("bad spec consumed %d forwards", forwards)
	}
}

// TestFleetEqSatCacheHit checks that rewrite-equivalence caching works
// fleet-wide: expr submissions shard by EqSatCacheKey, so a reference
// expression rewrite-equivalent to an earlier one — over a different
// sampled example set — lands on the same worker, whose second-level
// cache index serves it born-completed.
func TestFleetEqSatCacheHit(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	spec := func(expr string, caseSeed uint64) server.JobSpec {
		return server.JobSpec{
			Problem: server.ProblemSpec{Expr: expr, Inputs: 1, NumCases: 40, CaseSeed: caseSeed},
			Options: server.OptionsSpec{Budget: 4_000_000, Seed: 2},
		}
	}

	first, err := c.Submit(ctx, spec("addq(addq(x, 1), 2)", 11))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	fv, err := c.Wait(wctx, first.ID, 0)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCompleted || fv.Result == nil || !fv.Result.Solved {
		t.Fatalf("first job: %+v", fv)
	}

	// The respelling samples a different suite (different case seed),
	// so only the rewrite-equivalence shard key can co-locate it.
	second, err := c.Submit(ctx, spec("addq(x, 3)", 12))
	if err != nil {
		t.Fatal(err)
	}
	if second.Worker != first.Worker {
		t.Fatalf("rewrite-equivalent submissions sharded apart: %s vs %s", first.Worker, second.Worker)
	}
	if second.Status != server.StatusCompleted || !second.Cached {
		t.Fatalf("rewrite-equivalent submission not served from the worker cache: %+v", second)
	}
	if second.Result == nil || !second.Result.Solved || second.Result.Program != fv.Result.Program {
		t.Errorf("eqsat hit result differs:\n%+v\n%+v", second.Result, fv.Result)
	}

	hits := w0.srv.Snapshot().Cache.EqSatHits + w1.srv.Snapshot().Cache.EqSatHits
	if hits != 1 {
		t.Errorf("worker eqsat cache hits = %d, want 1", hits)
	}
}

// TestSubmitBodyLimits is the job API's conformance table, named for
// the body-limit rows it began with. Every row goes to a synthd and to
// a coordinator in front of it, and both must answer with the row's
// status and a JSON APIError whose text holds the row's message — the
// same text from both. The rows are the specs that do not build and
// the bodies that do not decode (a body over server.MaxSpecBytes is a
// 413 naming the limit, a num_cases over server.MaxNumCases a 400
// naming that one), unknown ids, an unknown ?status=, and a malformed
// Last-Event-ID on a known job. None may reach a job.
func TestSubmitBodyLimits(t *testing.T) {
	ctx := context.Background()
	w := newWorker(t, server.Config{Workers: 1})
	defer w.stop()
	co, ts, c := newFleet(t, w)
	defer ts.Close()
	defer co.Close()

	// One known job on each side, for the row that needs one.
	known := map[string]string{}
	for name, cl := range map[string]*client.Client{"synthd": client.New(w.ts.URL), "coordinator": c} {
		v, err := cl.Submit(ctx, easySpec(1))
		if err != nil {
			t.Fatal(err)
		}
		known[name] = v.ID
	}

	spec := func(s server.JobSpec) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	xor := server.ProblemSpec{Expr: "xorq(x, y)", Inputs: 2}
	huge := `{"problem": {"expr": "` + strings.Repeat("x", server.MaxSpecBytes) + `", "inputs": 1}}`
	type row struct {
		name, method, path, body string
		lastEventID              string
		code                     int
		msg                      string
	}
	const post, get, del = http.MethodPost, http.MethodGet, http.MethodDelete
	rows := []row{
		{name: "no-problem-source", method: post, path: "/v1/jobs", body: spec(server.JobSpec{}), code: 400, msg: "bad job spec"},
		{name: "two-sources", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: server.ProblemSpec{
			Expr: "xorq(x, y)", Inputs: 2, Sygus: "(set-logic BV)"}}), code: 400, msg: "bad job spec"},
		{name: "bad-expr", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: server.ProblemSpec{Expr: "frobq(x)", Inputs: 1}}), code: 400, msg: "frobq"},
		{name: "bad-cost", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: xor, Options: server.OptionsSpec{Cost: "bogus"}}), code: 400, msg: "bogus"},
		{name: "bad-strategy", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: xor, Options: server.OptionsSpec{Strategy: "fixed:-1"}}), code: 400, msg: "fixed:-1"},
		{name: "strategy-workers-field", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: xor, Options: server.OptionsSpec{Strategy: "adaptive:1000:0:8"}}), code: 400, msg: `surplus field "8"`},
		{name: "bad-timeout", method: post, path: "/v1/jobs", body: spec(server.JobSpec{Problem: xor, TimeoutMS: -5}), code: 400, msg: "timeout"},
		{name: "oversized", method: post, path: "/v1/jobs", body: huge, code: 413, msg: strconv.Itoa(server.MaxSpecBytes)},
		{name: "malformed", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}`, code: 400, msg: "bad job spec"},
		{name: "unknown-field", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}, "budget": 5}`, code: 400, msg: "bad job spec"},
		{name: "trailing-data", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}} {}`, code: 400, msg: "data after the job spec"},
		{name: "trailing-garbage", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}} nonsense`, code: 400, msg: "bad job spec"},
		{name: "eqsat-option", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}, "options": {"eqsat": true}}`, code: 400, msg: `unknown field "eqsat"`},
		{name: "prune-option", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "xorq(x, y)", "inputs": 2}, "options": {"prune": true}}`, code: 400, msg: `unknown field "prune"`},
		{name: "num-cases", method: post, path: "/v1/jobs", body: `{"problem": {"expr": "x", "inputs": 1, "num_cases": 1000000000}}`, code: 400, msg: strconv.Itoa(server.MaxNumCases)},
		{name: "get-unknown-id", method: get, path: "/v1/jobs/zzz", code: 404, msg: "no such job"},
		{name: "cancel-unknown-id", method: del, path: "/v1/jobs/zzz", code: 404, msg: "no such job"},
		{name: "events-unknown-id", method: get, path: "/v1/jobs/zzz/events", code: 404, msg: "no such job"},
		{name: "unknown-status", method: get, path: "/v1/jobs?status=bogus", code: 400,
			msg: `unknown status "bogus" (want one of queued, running, completed, cancelled, failed)`},
		{name: "malformed-last-event-id", method: get, path: "/v1/jobs/{known}/events", lastEventID: "not-a-seq", code: 400, msg: "Last-Event-ID"},
		{name: "tracez-malformed-n", method: get, path: "/tracez?n=abc", code: 400, msg: "tracez: malformed n"},
	}

	synthd := map[string]server.APIError{}
	for _, target := range []struct{ name, url string }{{"synthd", w.ts.URL}, {"coordinator", ts.URL}} {
		for _, tc := range rows {
			t.Run(target.name+"/"+tc.name, func(t *testing.T) {
				path := strings.ReplaceAll(tc.path, "{known}", known[target.name])
				req, err := http.NewRequest(tc.method, target.url+path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				if tc.lastEventID != "" {
					req.Header.Set("Last-Event-ID", tc.lastEventID)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("status %d with Content-Type %q, want application/json", resp.StatusCode, ct)
				}
				var apiErr server.APIError
				if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
					t.Fatalf("status %d, undecodable error body: %v", resp.StatusCode, err)
				}
				if resp.StatusCode != tc.code || !strings.Contains(apiErr.Error, tc.msg) {
					t.Errorf("got %d %q, want %d mentioning %q", resp.StatusCode, apiErr.Error, tc.code, tc.msg)
				}
				if target.name == "synthd" {
					synthd[tc.name] = apiErr
				} else if apiErr != synthd[tc.name] {
					t.Errorf("coordinator says %q, synthd %q", apiErr.Error, synthd[tc.name].Error)
				}
			})
		}
	}
	if n := w.srv.Snapshot().Jobs.Total; n != 2 {
		t.Errorf("synthd holds %d jobs, want only the 2 known ones", n)
	}
}
