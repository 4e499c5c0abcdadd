package server_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
)

// slowSpec is an unsolvable job with a bounded budget: it runs for
// one-to-two seconds and then completes (solved=false) with exactly
// Budget iterations — long enough for identical submissions to pile
// up behind it, deterministic enough to compare their results.
func slowSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Problem: server.ProblemSpec{
			Expr:   "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))",
			Inputs: 1, NumCases: 50, CaseSeed: 3,
		},
		Options: server.OptionsSpec{Budget: 1_500_000, Seed: seed},
	}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, c *client.Client, id string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		if v.Status == server.StatusRunning {
			return
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

// TestSingleflightDedup is the ISSUE's singleflight acceptance test:
// N concurrent identical submissions run exactly one search (asserted
// via search_start trace events), every observer receives the same
// result, one follower cancelled mid-flight stays cancelled, and the
// cache/dedup accounting adds up (hits+misses == lookups).
func TestSingleflightDedup(t *testing.T) {
	ctx := context.Background()
	o := obs.New()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 4, WorkerBudget: 4, CacheSize: 16, Obs: o,
	})
	defer ts.Close()
	defer srv.Close()

	leader, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, leader.ID)

	// Three identical submissions arrive while the leader runs; none
	// may burn a second search.
	var mu sync.Mutex
	var followers []string
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Submit(ctx, slowSpec(5))
			if err != nil {
				t.Errorf("follower submit: %v", err)
				return
			}
			if v.Status.Terminal() {
				t.Errorf("follower terminal at submit (leader still running): %+v", v)
			}
			mu.Lock()
			followers = append(followers, v.ID)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cancel one follower mid-flight: it must finish cancelled and
	// stay cancelled when the flight resolves.
	if _, err := c.Cancel(ctx, followers[2]); err != nil {
		t.Fatal(err)
	}

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	lv, err := c.Wait(wctx, leader.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lv.Status != server.StatusCompleted || lv.Result == nil || lv.Deduped {
		t.Fatalf("leader: %+v", lv)
	}
	if lv.Result.Iterations != 1_500_000 || lv.Result.Solved {
		t.Errorf("leader should exhaust its budget unsolved: %+v", lv.Result)
	}

	for _, id := range followers[:2] {
		fv, err := c.Wait(wctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fv.Status != server.StatusCompleted || !fv.Deduped {
			t.Fatalf("follower %s not deduped: %+v", id, fv)
		}
		if fv.Result == nil || fv.Result.Iterations != lv.Result.Iterations ||
			fv.Result.Program != lv.Result.Program || fv.Result.Seed != lv.Result.Seed {
			t.Errorf("follower %s result differs from leader:\n%+v\n%+v", id, fv.Result, lv.Result)
		}
		if fv.StartedAt == nil || fv.FinishedAt == nil {
			t.Errorf("follower %s missing timestamps: %+v", id, fv)
		}
	}
	cv, err := c.Job(ctx, followers[2])
	if err != nil {
		t.Fatal(err)
	}
	if cv.Status != server.StatusCancelled {
		t.Errorf("cancelled follower resurrected by flight resolution: %+v", cv)
	}

	// A fifth identical submission after completion is a plain cache
	// hit, born completed with both timestamps set.
	hit, err := c.Submit(ctx, slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != server.StatusCompleted || !hit.Cached || hit.Deduped {
		t.Fatalf("post-flight resubmission not a cache hit: %+v", hit)
	}
	if hit.StartedAt == nil || hit.FinishedAt == nil {
		t.Errorf("cache-born job missing started_at/finished_at: %+v", hit)
	}

	// Exactly one search ran across five identical submissions.
	starts := 0
	for _, ev := range o.Tracer.Events() {
		if ev.Name == "search_start" {
			starts++
		}
	}
	if starts != 1 {
		t.Errorf("search_start events = %d, want exactly 1", starts)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dedup.Joins != 3 {
		t.Errorf("dedup joins = %d, want 3", st.Dedup.Joins)
	}
	if st.Dedup.InFlight != 0 {
		t.Errorf("dedup in_flight = %d, want 0 after resolution", st.Dedup.InFlight)
	}
	// The lookup accounting: 5 submissions, each counted exactly once
	// — 4 misses (leader + 3 followers) and 1 hit. Before the fix the
	// in-worker recheck double-counted and hits+misses drifted past
	// the number of lookups.
	if st.Cache.Hits != 1 || st.Cache.Misses != 4 {
		t.Errorf("cache hits/misses = %d/%d, want 1/4", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Hits+st.Cache.Misses != st.Submitted {
		t.Errorf("hits+misses = %d, want == submitted lookups %d",
			st.Cache.Hits+st.Cache.Misses, st.Submitted)
	}
	if got := st.Cache.HitRate; got != 0.2 {
		t.Errorf("hit rate = %g, want 0.2", got)
	}
}

// TestSingleflightPromotion covers the leader-dies path: when the
// leader is cancelled (here by its own timeout), its partial result
// must not satisfy the followers — the first live follower is
// promoted, re-dispatched, and runs its own search.
func TestSingleflightPromotion(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 2})
	defer ts.Close()
	defer srv.Close()

	spec := hardSpec(42)
	spec.TimeoutMS = 200

	leader, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, leader.ID)
	follower, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower.Status.Terminal() {
		t.Fatalf("follower terminal at submit: %+v", follower)
	}

	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	lv, err := c.Wait(wctx, leader.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lv.Status != server.StatusCancelled {
		t.Fatalf("leader should time out cancelled: %+v", lv)
	}
	fv, err := c.Wait(wctx, follower.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The promoted follower ran (and timed out) on its own: own
	// counters, not adopted ones.
	if fv.Status != server.StatusCancelled || fv.Deduped {
		t.Fatalf("promoted follower: %+v", fv)
	}
	if fv.Result == nil || fv.Result.Iterations <= 0 {
		t.Errorf("promoted follower should have its own partial counters: %+v", fv.Result)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dedup.Joins != 1 || st.Dedup.Promotions != 1 {
		t.Errorf("dedup = %+v, want 1 join and 1 promotion", st.Dedup)
	}
}

// TestRepeatJoinsLeaderBeforeEqSat pins the lookup order after a
// level-1 miss: an exact repeat of a running job joins it even when
// the rewrite-equivalence level holds a verified solution for the same
// expression, so the repeat gets its original's result and not a
// variant's.
func TestRepeatJoinsLeaderBeforeEqSat(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 2, WorkerBudget: 2, CacheSize: 16})
	defer ts.Close()
	defer srv.Close()

	spec := slowSpec(5)
	leader, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, leader.ID)

	// A level-2 entry for the leader's expression, holding the
	// reference expression itself as a rewrite-equivalent job's
	// solution would be.
	_, opts, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	eqKey, err := server.EqSatCacheKey(spec.Problem.Expr, spec.Problem.Inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SeedEqSat(eqKey, stochsyn.Result{Solved: true, Program: spec.Problem.Expr, Iterations: 1, Seed: 5})

	// The entry verifies: the same expression over other cases, which
	// nothing is running, is served from it.
	other := spec
	other.Problem.CaseSeed = 4
	hit, err := c.Submit(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Result == nil || hit.Result.Program != spec.Problem.Expr {
		t.Fatalf("level-2 entry not served to a rewrite-equivalent job: %+v", hit)
	}

	repeat, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Status.Terminal() {
		t.Fatalf("repeat of a running job served at submit instead of joining it: %+v", repeat.Result)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	lv, err := c.Wait(wctx, leader.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := c.Wait(wctx, repeat.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lv.Status != server.StatusCompleted || lv.Result == nil || lv.Cached {
		t.Fatalf("leader: %+v", lv)
	}
	if rv.Status != server.StatusCompleted || !rv.Deduped || rv.Cached || rv.Result == nil {
		t.Fatalf("repeat did not join the leader: %+v", rv)
	}
	if rv.Result.Program != lv.Result.Program || rv.Result.Solved != lv.Result.Solved ||
		rv.Result.Iterations != lv.Result.Iterations {
		t.Errorf("repeat's result differs from the leader's:\n%+v\n%+v", rv.Result, lv.Result)
	}
}

// TestListStatusValidation checks that a valid ?status= filter
// filters. An unknown one is a 400 naming the allowed values, not a
// silent empty list: a row of the conformance table (fleet_test.go).
func TestListStatusValidation(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{Workers: 1, WorkerBudget: 1})
	defer ts.Close()
	defer srv.Close()

	v, err := c.Submit(ctx, easySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, 0); err != nil {
		t.Fatal(err)
	}

	done, err := c.Jobs(ctx, server.StatusCompleted)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Errorf("jobs?status=completed = %d entries, want 1", len(done))
	}
}
