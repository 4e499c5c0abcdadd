package fleet_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
)

// getBody fetches url and returns its body, failing the test on any
// error or non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestFleetEventsStream streams a job's telemetry through the
// coordinator: the relay mirrors the owning worker's feed, so the
// client sees the full lifecycle under one trace id, with worker
// attribution and the coordinator's job id, ending on exactly one
// job_finished.
func TestFleetEventsStream(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	v, err := c.SubmitTraced(ctx, easySpec(5), parent)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, "c") {
		t.Fatalf("not a coordinator id: %q", v.ID)
	}
	var events []obs.Event
	finished := 0
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := c.Events(sctx, v.ID, 0, func(ev obs.Event) error {
		events = append(events, ev)
		if ev.Name == "job_finished" {
			finished++
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if finished != 1 {
		t.Fatalf("saw %d job_finished events, want exactly 1", finished)
	}
	if last := events[len(events)-1]; last.Name != "job_finished" {
		t.Fatalf("stream did not end on the terminal event: %q", last.Name)
	}
	saw := map[string]bool{}
	for _, ev := range events {
		saw[ev.Name] = true
		if ev.TraceID != parent.TraceID {
			t.Fatalf("event %q has trace %q, want the propagated %q", ev.Name, ev.TraceID, parent.TraceID)
		}
		if ev.Attrs["job"] != v.ID {
			t.Fatalf("event %q not stamped with the coordinator id: %+v", ev.Name, ev.Attrs)
		}
	}
	// The stream interleaves coordinator-side spans with relayed
	// worker-side lifecycle events.
	for _, want := range []string{"fleet_forward", "job_submitted", "job_started", "search_start", "search_stop", "job_finished"} {
		if !saw[want] {
			t.Errorf("stream missing a %q event (saw %v)", want, saw)
		}
	}
	for _, ev := range events {
		if ev.Name == "job_submitted" && ev.Attrs["worker"] == nil {
			t.Errorf("relayed event lacks worker attribution: %+v", ev.Attrs)
		}
	}
}

// TestFleetEventsFailover is the headline streaming guarantee: a
// client streaming through the coordinator keeps its one connection
// across a mid-run worker death. The relay notices the torn worker
// stream, re-dispatches, re-attaches to the survivor, and the client
// sees events from both workers under one trace id with exactly one
// terminal event.
func TestFleetEventsFailover(t *testing.T) {
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

	type tally struct {
		byWorker map[string]int
		finished int
		traceIDs map[string]bool
	}
	got := tally{byWorker: map[string]int{}, traceIDs: map[string]bool{}}
	seenDead := make(chan struct{})
	var deadOnce bool
	done := make(chan error, 1)
	sctx, scancel := context.WithTimeout(ctx, 60*time.Second)
	defer scancel()
	go func() {
		done <- c.Events(sctx, v.ID, 0, func(ev obs.Event) error {
			if w, ok := ev.Attrs["worker"].(string); ok {
				got.byWorker[w]++
				if w == deadName && !deadOnce {
					deadOnce = true
					close(seenDead)
				}
			}
			if ev.TraceID != "" {
				got.traceIDs[ev.TraceID] = true
			}
			if ev.Name == "job_finished" {
				got.finished++
			}
			return nil
		})
	}()

	// Only kill the worker once its events are flowing on the stream.
	select {
	case <-seenDead:
	case <-time.After(30 * time.Second):
		t.Fatal("no events from the owning worker arrived")
	}
	dead.stop()

	// The relay (or a poll) re-dispatches; wait until the job runs on
	// the survivor, then cancel it so the stream can terminate.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rv, err := c.Job(ctx, v.ID)
		if err == nil && rv.Worker != deadName && rv.Status == server.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not re-dispatched: last view %+v err %v", rv, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after cancel")
	}

	// The single client connection saw both sides of the failover.
	survivorName := "w0"
	if deadName == "w0" {
		survivorName = "w1"
	}
	if got.byWorker[deadName] == 0 {
		t.Errorf("no events relayed from the original worker %s: %v", deadName, got.byWorker)
	}
	if got.byWorker[survivorName] == 0 {
		t.Errorf("no events relayed from the survivor %s after redispatch: %v", survivorName, got.byWorker)
	}
	if got.finished != 1 {
		t.Errorf("saw %d job_finished events across the failover, want exactly 1", got.finished)
	}
	if len(got.traceIDs) != 1 {
		t.Errorf("trace id changed across redispatch: %v", got.traceIDs)
	}
	if st := co.Snapshot(); st.Redispatches != 1 {
		t.Errorf("redispatches = %d, want 1", st.Redispatches)
	}
}

// TestFleetStatszRollup checks /statsz aggregates worker-side stats
// fleet-wide: after jobs complete on the workers, the rollup counts
// them and attributes per-worker snapshots.
func TestFleetStatszRollup(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	for _, seed := range []uint64{21, 22, 23} {
		v, err := c.Submit(ctx, easySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		if _, err := c.Wait(wctx, v.ID, 0); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}

	st := co.SnapshotFleet(ctx)
	if st.Fleet.WorkersReachable != 2 {
		t.Fatalf("workers reachable = %d, want 2", st.Fleet.WorkersReachable)
	}
	if st.Fleet.Submitted != 3 || st.Fleet.Jobs.Completed != 3 {
		t.Errorf("fleet rollup = %+v, want 3 submitted/completed", st.Fleet)
	}
	if st.Fleet.PoolTotal != 4 {
		t.Errorf("fleet pool total = %d, want 4 (2 workers x 2)", st.Fleet.PoolTotal)
	}
	for _, ws := range st.Workers {
		if ws.Stats == nil {
			t.Errorf("worker %s missing scraped stats", ws.Name)
		}
	}

	// A dead worker degrades the rollup, never fails it.
	w1.stop()
	st = co.SnapshotFleet(ctx)
	if st.Fleet.WorkersReachable != 1 {
		t.Errorf("workers reachable after death = %d, want 1", st.Fleet.WorkersReachable)
	}
}

// TestFleetMetricsFederation checks the coordinator /metrics merges
// worker expositions under worker labels alongside its own series.
func TestFleetMetricsFederation(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	defer co.Close()

	v, err := c.Submit(ctx, easySpec(31))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, v.ID, 0); err != nil {
		t.Fatal(err)
	}

	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		// Coordinator-local series stay unlabeled.
		"stochsyn_fleet_forwards_total{worker=\"w0\"}",
		// Every worker's series appear, tagged by shard.
		"stochsyn_jobs_submitted_total{worker=\"w0\"}",
		"stochsyn_jobs_submitted_total{worker=\"w1\"}",
		// Labeled worker series merge the shard tag into existing labels.
		"state=\"completed\",worker=",
		// Histogram families survive the merge with their TYPE line.
		"# TYPE stochsyn_job_run_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("federated /metrics missing %q", want)
		}
	}
	// The coordinator's own routes are instrumented: its submit shows
	// up in a request series of its own, with no worker label.
	own := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "stochsyn_http_requests_total{") &&
			strings.Contains(line, `route="/v1/jobs"`) && !strings.Contains(line, "worker=") {
			own = true
		}
	}
	if !own {
		t.Error(`federated /metrics has no unlabeled stochsyn_http_requests_total{route="/v1/jobs"} series of the coordinator's own`)
	}
	// One completed job somewhere in the fleet: exactly one of the two
	// labeled submitted counters reads 1.
	if !strings.Contains(body, "stochsyn_jobs_submitted_total{worker=\"w0\"} 1") &&
		!strings.Contains(body, "stochsyn_jobs_submitted_total{worker=\"w1\"} 1") {
		t.Error("federated /metrics does not show the forwarded job on either worker")
	}

	// A dead worker turns into a comment, not a scrape failure.
	w1.stop()
	body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "# federation: worker w1 unreachable") {
		t.Error("federated /metrics does not flag the dead worker")
	}
	if !strings.Contains(body, "stochsyn_jobs_submitted_total{worker=\"w0\"}") {
		t.Error("surviving worker's series vanished from the federation")
	}
}

// TestFleetEventsReplayAfterRelay reads a submission's stream through
// the coordinator, then again after its relay has ended (Close waits
// for it), when the coordinator replays the submission's sealed log:
// the two reads are byte for byte the same.
func TestFleetEventsReplayAfterRelay(t *testing.T) {
	ctx := context.Background()
	w0 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	w1 := newWorker(t, server.Config{Workers: 2, WorkerBudget: 4})
	defer w0.stop()
	defer w1.stop()
	co, ts, c := newFleet(t, w0, w1)
	defer ts.Close()
	var closeOnce sync.Once
	closeCo := func() { closeOnce.Do(func() { co.Close() }) }
	defer closeCo()

	v, err := c.Submit(ctx, easySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs/" + v.ID + "/events"
	first := getBody(t, url)
	if n := strings.Count(first, "event: job_finished\n"); n != 1 || !strings.Contains(first, "event: fleet_forward\n") {
		t.Fatalf("first read carries %d job_finished events (want 1) and must carry fleet_forward:\n%s", n, first)
	}
	closeCo()
	if again := getBody(t, url); again != first {
		t.Fatalf("stream read after the relay ended differs from the first read\nagain:\n%s\nfirst:\n%s", again, first)
	}
}
