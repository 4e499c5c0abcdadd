package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
)

// easySpec is a job the search solves in well under a second; distinct
// seeds give distinct cache keys.
func easySpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{Expr: "xorq(x, y)", Inputs: 2, NumCases: 40, CaseSeed: 11},
		Options: server.OptionsSpec{Budget: 2_000_000, Seed: seed, Workers: 2},
	}
}

// hardSpec is a job that will not be solved in the lifetime of a test:
// a five-operation multiplicative hash with an effectively unlimited
// budget. Used as the target for cancellation and timeout tests.
func hardSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{
			Expr:   "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))",
			Inputs: 1, NumCases: 50, CaseSeed: 3,
		},
		Options: server.OptionsSpec{Budget: 1 << 40, Seed: seed},
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	c := client.New(ts.URL)
	c.HTTPClient = ts.Client()
	return srv, ts, c
}

// TestEndToEnd is the subsystem's acceptance test: many concurrent
// jobs through the HTTP client, one cancelled mid-run, the rest
// solved, a repeat submission served from the result cache, and no
// goroutine leaks after drain. Run it under -race.
func TestEndToEnd(t *testing.T) {
	ctx := context.Background()
	goroutinesBefore := runtime.NumGoroutine()

	srv, ts, c := newTestServer(t, server.Config{
		Workers: 4, WorkerBudget: 8, QueueDepth: 32, CacheSize: 64,
		DrainTimeout: 10 * time.Second,
	})

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// One hard job (the cancellation target) and 8 easy jobs, all in
	// flight concurrently.
	hard, err := c.Submit(ctx, hardSpec(99))
	if err != nil {
		t.Fatalf("submit hard: %v", err)
	}
	ids := make([]string, 8)
	for i := range ids {
		v, err := c.Submit(ctx, easySpec(uint64(i)+1))
		if err != nil {
			t.Fatalf("submit easy %d: %v", i, err)
		}
		// A fresh job must not be answered from the cache or joined to
		// another flight. It may already be terminal: the response is
		// built after the job is queued, and an easy job can be solved
		// by a worker within that window.
		if v.Cached || v.Deduped {
			t.Fatalf("easy job %d served without a search at submit: %+v", i, v)
		}
		ids[i] = v.ID
	}

	// Cancel the hard job once it has run some iterations. Status
	// "running" alone is not enough: a job cancelled before its first
	// search step rightly reports zero iterations, which the partial
	// counter check below rejects. The restart tree reports each
	// doubling pass with the iterations run so far.
	pctx, pcancel := context.WithTimeout(ctx, 10*time.Second)
	progressed := false
	err = c.Events(pctx, hard.ID, 0, func(e obs.Event) error {
		if it, _ := e.Attrs["iterations"].(float64); e.Name == "tree_pass" && it > 0 {
			progressed = true
			return client.StopStreaming
		}
		return nil
	})
	pcancel()
	if err != nil || !progressed {
		t.Fatalf("hard job made no progress before cancel (stream err %v)", err)
	}
	if _, err := c.Cancel(ctx, hard.ID); err != nil {
		t.Fatalf("cancel hard: %v", err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	hv, err := c.Wait(wctx, hard.ID, 10*time.Millisecond)
	wcancel()
	if err != nil {
		t.Fatalf("wait for cancelled job: %v", err)
	}
	if hv.Status != server.StatusCancelled {
		t.Fatalf("cancelled job status = %s, want cancelled: %+v", hv.Status, hv)
	}
	if hv.Result == nil || hv.Result.Iterations <= 0 || hv.Result.Solved {
		t.Errorf("cancelled job should report partial unsolved counters: %+v", hv.Result)
	}

	// The easy jobs all solve.
	for i, id := range ids {
		wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
		v, err := c.Wait(wctx, id, 0)
		wcancel()
		if err != nil {
			t.Fatalf("wait easy %d: %v", i, err)
		}
		if v.Status != server.StatusCompleted || v.Result == nil || !v.Result.Solved {
			t.Fatalf("easy job %d: %+v", i, v)
		}
		if v.Result.Program == "" || v.Result.Seed != uint64(i)+1 {
			t.Errorf("easy job %d result: %+v", i, v.Result)
		}
		if v.Cached {
			t.Errorf("easy job %d served from cache on first submission", i)
		}
	}

	// Resubmitting an identical spec is served from the cache: born
	// completed, flagged cached, same program.
	first, err := c.Job(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := c.Submit(ctx, easySpec(1))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if repeat.Status != server.StatusCompleted || !repeat.Cached {
		t.Fatalf("repeat submission not served from cache: %+v", repeat)
	}
	if repeat.Result == nil || repeat.Result.Program != first.Result.Program ||
		repeat.Result.Iterations != first.Result.Iterations {
		t.Errorf("cached result differs from original:\n%+v\n%+v", repeat.Result, first.Result)
	}

	// Stats reflect all of the above.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Submitted != 10 {
		t.Errorf("stats.submitted = %d, want 10", st.Submitted)
	}
	if st.Cache.Hits < 1 {
		t.Errorf("stats.cache.hits = %d, want >= 1", st.Cache.Hits)
	}
	if st.Jobs.Completed < 9 || st.Jobs.Cancelled < 1 || st.Jobs.Total != 10 {
		t.Errorf("stats.jobs = %+v", st.Jobs)
	}
	if st.Workers.Total != 4 {
		t.Errorf("stats.workers.total = %d, want 4", st.Workers.Total)
	}
	if st.Kernels != plan.KernelSet() || st.Kernels != "avx512" && st.Kernels != "scalar" {
		t.Errorf("stats.kernels = %q, want plan.KernelSet() = %q", st.Kernels, plan.KernelSet())
	}

	// Status filter.
	cancelled, err := c.Jobs(ctx, server.StatusCancelled)
	if err != nil {
		t.Fatal(err)
	}
	if len(cancelled) != 1 || cancelled[0].ID != hard.ID {
		t.Errorf("jobs?status=cancelled = %+v", cancelled)
	}

	// Clean drain, then check for leaked goroutines.
	if err := srv.Close(); err != nil {
		t.Errorf("drain: %v", err)
	}
	ts.Close()
	settle := time.Now().Add(5 * time.Second)
	for time.Now().Before(settle) {
		if runtime.NumGoroutine() <= goroutinesBefore+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after shutdown", goroutinesBefore, runtime.NumGoroutine())
}

// TestJobTimeout submits a hard job bounded by timeout_ms and expects
// it to finish cancelled on its own.
func TestJobTimeout(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 2})
	defer ts.Close()
	defer srv.Close()

	spec := hardSpec(7)
	spec.TimeoutMS = 150
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	v, err = c.Wait(wctx, v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != server.StatusCancelled {
		t.Fatalf("timed-out job status = %s, want cancelled: %+v", v.Status, v)
	}
}

// submit503 posts spec and expects a 503 that tells the client to
// retry in a second.
func submit503(t *testing.T, url string, spec server.JobSpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("submit = %d with Retry-After %q, want 503 with Retry-After 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestQueueFullAndDrain fills a depth-1 queue, expects a 503, and then
// shuts the server down with an already-expired context: the running
// job must be cancelled promptly rather than holding the drain.
func TestQueueFullAndDrain(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 1, WorkerBudget: 1, QueueDepth: 1})
	defer ts.Close()

	first, err := c.Submit(ctx, hardSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job occupies the worker so the queue slot is
	// free for exactly one more.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Job(ctx, first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == server.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job did not start")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued, err := c.Submit(ctx, hardSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	submit503(t, ts.URL, hardSpec(3))

	// Drain with an expired deadline: running jobs are cancelled.
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := srv.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown with expired ctx = %v, want DeadlineExceeded", err)
	}
	for _, id := range []string{first.ID, queued.ID} {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != server.StatusCancelled {
			t.Errorf("job %s after forced drain: status %s, want cancelled", id, v.Status)
		}
	}

	// Submissions after shutdown are rejected with 503.
	submit503(t, ts.URL, easySpec(1))
}

// TestGeometricCutoffOverflow submits the exponential and inner-outer
// strategies with a growth factor whose second cutoff, 1e19, is past
// MaxInt64. The cutoff saturates, so the job completes instead of
// panicking the process on a negative cutoff.
func TestGeometricCutoffOverflow(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer ts.Close()
	defer srv.Close()

	for _, strategy := range []string{"exp:1:1e19", "innerouter:1:1e19"} {
		v, err := c.Submit(ctx, server.JobSpec{
			Problem: server.ProblemSpec{Expr: "andq(x, subq(x, 1))", Inputs: 1},
			Options: server.OptionsSpec{Strategy: strategy, Budget: 100_000},
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		v, err = c.Wait(wctx, v.ID, 0)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if v.Status != server.StatusCompleted || v.Result == nil || v.Result.Searches > 2 {
			t.Errorf("%s: %+v, want completed within 2 searches", strategy, v)
		}
	}
}

// TestCanonicalCacheHit submits two structurally different but
// semantically equal jobs — same example set in a different order with
// a duplicate, equivalent strategy spellings — and expects the second
// to be served from the cache as a canonical hit, visible in /statsz
// and /metrics. An exact replay of the first spec then hits without
// bumping the canonical counter.
func TestCanonicalCacheHit(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	defer ts.Close()
	defer srv.Close()

	examples := []server.Example{
		{Inputs: []uint64{1, 3}, Output: 2},
		{Inputs: []uint64{0xf, 5}, Output: 0xa},
		{Inputs: []uint64{0, 0}, Output: 0},
		{Inputs: []uint64{7, 7}, Output: 0},
		{Inputs: []uint64{0xff, 0xf0}, Output: 0x0f},
		{Inputs: []uint64{1 << 40, 1}, Output: 1<<40 | 1},
	}
	spec := func(order []int, strategy string) server.JobSpec {
		ex := make([]server.Example, len(order))
		for i, j := range order {
			ex[i] = examples[j]
		}
		return server.JobSpec{
			Problem: server.ProblemSpec{Examples: ex},
			Options: server.OptionsSpec{Budget: 4_000_000, Seed: 2, Strategy: strategy},
		}
	}

	first, err := c.Submit(ctx, spec([]int{0, 1, 2, 3, 4, 5}, "adaptive"))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	fv, err := c.Wait(wctx, first.ID, 0)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCompleted || fv.Result == nil || !fv.Result.Solved || fv.Cached {
		t.Fatalf("first job: %+v", fv)
	}
	if fv.Result.Canonical == "" || fv.Result.CanonicalHash == "" {
		t.Errorf("first result missing canonical form/hash: %+v", fv.Result)
	}

	// Reordered + duplicated examples, equivalent strategy spelling:
	// structurally distinct, canonically equal.
	hit, err := c.Submit(ctx, spec([]int{3, 0, 5, 2, 4, 1, 0}, "adaptive:1000:0:8"))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != server.StatusCompleted || !hit.Cached {
		t.Fatalf("canonical resubmission not served from cache: %+v", hit)
	}
	if hit.Result == nil || hit.Result.Program != fv.Result.Program {
		t.Errorf("canonical hit program differs:\n%+v\n%+v", hit.Result, fv.Result)
	}

	// An exact replay also hits, but is not a canonical hit.
	replay, err := c.Submit(ctx, spec([]int{0, 1, 2, 3, 4, 5}, "adaptive"))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Status != server.StatusCompleted || !replay.Cached {
		t.Fatalf("exact replay not served from cache: %+v", replay)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 2 {
		t.Errorf("stats.cache.hits = %d, want 2", st.Cache.Hits)
	}
	if st.Cache.CanonicalHits != 1 {
		t.Errorf("stats.cache.canonical_hits = %d, want 1", st.Cache.CanonicalHits)
	}

	// The counter is also exported on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "stochsyn_cache_canonical_hits_total 1") {
		t.Errorf("/metrics missing stochsyn_cache_canonical_hits_total 1:\n%s", body)
	}
}

// TestEqSatCacheHit submits two expr jobs whose reference expressions
// are rewrite-equivalent but canonically distinct — "addq(addq(x, 1),
// 2)" and "addq(x, 3)" — with different case seeds, so their sampled
// example sets (and hence both the structural and canonical cache
// keys) differ. The second submission must be served born-completed
// through the second-level rewrite-equivalence index, counted by
// stochsyn_eqsat_cache_hits_total, after its program re-verified
// against the new example set.
func TestEqSatCacheHit(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	defer ts.Close()
	defer srv.Close()

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
	if fv.Status != server.StatusCompleted || fv.Result == nil || !fv.Result.Solved || fv.Cached {
		t.Fatalf("first job: %+v", fv)
	}

	// A rewrite-equivalent respelling over a different sampled suite:
	// level-1 misses (different examples), level-2 hits.
	hit, err := c.Submit(ctx, spec("addq(x, 3)", 12))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != server.StatusCompleted || !hit.Cached {
		t.Fatalf("rewrite-equivalent resubmission not served from cache: %+v", hit)
	}
	if hit.Result == nil || !hit.Result.Solved || hit.Result.Program != fv.Result.Program {
		t.Errorf("eqsat hit result differs from original:\n%+v\n%+v", hit.Result, fv.Result)
	}

	// A rewrite-INequivalent expr over yet another suite must miss and
	// run its own search (pinning that the index can't serve wrong
	// programs: xorq(x, 3) is in a different e-class).
	miss, err := c.Submit(ctx, spec("xorq(x, 3)", 13))
	if err != nil {
		t.Fatal(err)
	}
	// Not served from the cache at submit. Whether the job is still
	// running when the submit response is rendered is a race a fast
	// search can win, so the status is not the check.
	if miss.Cached {
		t.Fatalf("inequivalent expr served from the cache at submit: %+v", miss)
	}
	wctx, cancel = context.WithTimeout(ctx, 60*time.Second)
	mv, err := c.Wait(wctx, miss.ID, 0)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if mv.Status != server.StatusCompleted || mv.Result == nil || !mv.Result.Solved || mv.Cached {
		t.Fatalf("inequivalent job: %+v", mv)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.EqSatHits != 1 {
		t.Errorf("stats.cache.eqsat_hits = %d, want 1", st.Cache.EqSatHits)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Errorf("stats.cache = hits %d misses %d, want 1/2", st.Cache.Hits, st.Cache.Misses)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "stochsyn_eqsat_cache_hits_total 1") {
		t.Errorf("/metrics missing stochsyn_eqsat_cache_hits_total 1:\n%s", body)
	}
}

// TestJobExportsFacts runs a default job end to end: the search must
// solve the problem, and the result view must carry the per-node
// abstract facts of the solution, derived from the example inputs.
func TestJobExportsFacts(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 4, CacheSize: 8})
	defer ts.Close()
	defer srv.Close()

	spec := server.JobSpec{
		Problem: server.ProblemSpec{Expr: "andq(x, subq(x, 1))", Inputs: 1, NumCases: 60, CaseSeed: 7},
		Options: server.OptionsSpec{Budget: 8_000_000, Seed: 3},
	}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	fv, err := c.Wait(wctx, v.ID, 0)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if fv.Status != server.StatusCompleted || fv.Result == nil || !fv.Result.Solved {
		t.Fatalf("job: %+v", fv)
	}
	if len(fv.Result.Facts) == 0 {
		t.Errorf("job result carries no abstract facts: %+v", fv.Result)
	}
	for _, f := range fv.Result.Facts {
		if !strings.Contains(f, "node ") {
			t.Errorf("fact %q not in per-node form", f)
		}
	}
}

// TestSygusJob exercises the third problem source end to end.
func TestSygusJob(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer ts.Close()
	defer srv.Close()

	const sl = `
(set-logic BV)
(synth-fun f ((x (_ BitVec 64)) (y (_ BitVec 64))) (_ BitVec 64))
(constraint (= (f #x0000000000000001 #x0000000000000003) #x0000000000000002))
(constraint (= (f #x000000000000000f #x0000000000000005) #x000000000000000a))
(constraint (= (f #x0000000000000000 #x0000000000000000) #x0000000000000000))
(constraint (= (f #xffffffffffffffff #x0000000000000000) #xffffffffffffffff))
(constraint (= (f #x00000000000000ff #x00000000000000f0) #x000000000000000f))
(check-synth)
`
	v, err := c.Submit(ctx, server.JobSpec{
		Problem: server.ProblemSpec{Sygus: sl},
		Options: server.OptionsSpec{Budget: 4_000_000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	v, err = c.Wait(wctx, v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != server.StatusCompleted || v.Result == nil || !v.Result.Solved {
		t.Fatalf("sygus job: %+v", v)
	}
}
