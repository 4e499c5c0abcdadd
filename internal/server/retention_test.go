package server_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"stochsyn/internal/server"
	"stochsyn/internal/sygus"
)

// retentionExprs are sygus random expressions, the problems synthd's
// fresh expression traffic is made of.
var retentionExprs = func() []*sygus.Problem {
	var out []*sygus.Problem
	for _, p := range sygus.Standard(sygus.Options{Seed: 5, RandomProblems: 400}) {
		if strings.HasPrefix(p.Desc, "generated: ") {
			out = append(out, p)
		}
	}
	return out
}()

// retentionSpec is the k-th expression job: 10 cases, budget 100K,
// its own case and search seeds, so every job is a cache miss.
func retentionSpec(k int) server.JobSpec {
	p := retentionExprs[k%len(retentionExprs)]
	return server.JobSpec{
		Problem: server.ProblemSpec{
			Expr:   strings.TrimPrefix(p.Desc, "generated: "),
			Inputs: p.Suite.NumInputs, NumCases: 10, CaseSeed: uint64(k) + 1,
		},
		Options: server.OptionsSpec{Budget: 100_000, Seed: uint64(k) + 1},
	}
}

// liveHeap returns the live heap after full collections. The later
// collections empty the sync.Pools the first one only demotes, and the
// sleeps let cleanups queued by a collection run (the plan recipe
// cache drops a collected suite's shapes in one).
func liveHeap() uint64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobRetention measures what a finished job keeps on the
// heap. Expression jobs run through an in-process server; after 100
// warm-up jobs, the live heap may grow by at most 10 KB per further
// finished job. A finished job's event stream is sealed into
// compressed SSE frames of a few KB; kept as trace events, it cost
// about 34 KB.
func TestFinishedJobRetention(t *testing.T) {
	const (
		warmup    = 100
		measured  = 200
		maxPerJob = 10 << 10
	)
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 2, QueueDepth: measured, CacheSize: 1024,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()

	k := 0
	run := func(n int) {
		ids := make([]string, n)
		for i := range ids {
			v, err := c.Submit(ctx, retentionSpec(k))
			if err != nil {
				t.Fatal(err)
			}
			k++
			ids[i] = v.ID
		}
		for _, id := range ids {
			if _, err := c.Wait(ctx, id, 2*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		waitSealed(t, srv)
	}
	run(warmup)
	before := liveHeap()
	run(measured)
	after := liveHeap()
	perJob := (int64(after) - int64(before)) / measured
	t.Logf("marginal retained heap: %.1f KB per finished job", float64(perJob)/1024)
	if perJob > maxPerJob {
		t.Errorf("each finished job keeps %.1f KB of heap, want at most %d KB", float64(perJob)/1024, maxPerJob>>10)
	}
}
