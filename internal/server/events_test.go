package server_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
)

// TestJobEventsLifecycle streams a job's telemetry end to end: the
// feed opens while the job runs, carries the lifecycle and search
// events in sequence order under one trace id, and terminates itself
// with exactly one job_finished.
func TestJobEventsLifecycle(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 4, QueueDepth: 16, CacheSize: 16,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()

	v, err := c.Submit(ctx, easySpec(41))
	if err != nil {
		t.Fatal(err)
	}
	var (
		events   []obs.Event
		lastSeq  uint64
		finished int
	)
	err = c.Events(ctx, v.ID, 0, func(ev obs.Event) error {
		if ev.Seq <= lastSeq {
			t.Errorf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		events = append(events, ev)
		if ev.Name == "job_finished" {
			finished++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("events stream: %v", err)
	}
	if finished != 1 {
		t.Fatalf("saw %d job_finished events, want exactly 1", finished)
	}
	if events[len(events)-1].Name != "job_finished" {
		t.Fatalf("stream did not end on the terminal event: %v", events[len(events)-1].Name)
	}
	saw := map[string]bool{}
	traceID := events[0].TraceID
	if traceID == "" {
		t.Fatal("events carry no trace id")
	}
	for _, ev := range events {
		saw[ev.Name] = true
		if ev.TraceID != traceID {
			t.Fatalf("trace id changed mid-job: %q then %q", traceID, ev.TraceID)
		}
		if ev.Attrs["job"] != v.ID {
			t.Fatalf("event %q not stamped with the job id: %+v", ev.Name, ev.Attrs)
		}
	}
	for _, want := range []string{"job_submitted", "job_started", "search_start", "search_cost", "search_stop", "job_finished"} {
		if !saw[want] {
			t.Errorf("stream missing a %q event (saw %v)", want, saw)
		}
	}

	// A finished job's stream replays from the ring and still
	// terminates; resuming mid-way replays the rest without duplicates.
	mid := events[len(events)/2].Seq
	var resumed []obs.Event
	if err := c.Events(ctx, v.ID, mid, func(ev obs.Event) error {
		resumed = append(resumed, ev)
		return nil
	}); err != nil {
		t.Fatalf("resume stream: %v", err)
	}
	if len(resumed) == 0 || resumed[0].Seq != mid+1 {
		t.Fatalf("resume after %d started at %v, want %d", mid, resumed, mid+1)
	}
	if got, want := len(resumed), len(events)-len(events)/2-1; got != want {
		t.Fatalf("resume replayed %d events, want %d", got, want)
	}
	if resumed[len(resumed)-1].Name != "job_finished" {
		t.Fatal("resumed stream did not end on the terminal event")
	}
}

// TestJobEventsTraceparent submits with an explicit parent span and
// checks the job's telemetry is parented under it — the propagation
// path the fleet coordinator uses.
func TestJobEventsTraceparent(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 4, QueueDepth: 16, CacheSize: 16,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()

	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
	v, err := c.SubmitTraced(ctx, easySpec(42), parent)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = c.Events(ctx, v.ID, 0, func(ev obs.Event) error {
		n++
		if ev.TraceID != parent.TraceID {
			t.Fatalf("event %q has trace %q, want the propagated %q", ev.Name, ev.TraceID, parent.TraceID)
		}
		if ev.ParentID != parent.SpanID {
			t.Fatalf("event %q parented under %q, want the submit span %q", ev.Name, ev.ParentID, parent.SpanID)
		}
		return nil
	})
	if err != nil || n == 0 {
		t.Fatalf("stream: %v after %d events", err, n)
	}
}

// TestJobEventsDisconnectNoLeak hangs up mid-stream on a job that
// never finishes and checks the handler goroutine and subscription
// are released (run under -race: the assertion is the goroutine
// count returning to baseline, which a leaked handler would hold up).
func TestJobEventsDisconnectNoLeak(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 4, QueueDepth: 16, CacheSize: 16,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()

	v, err := c.Submit(ctx, hardSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, v.ID)
	before := runtime.NumGoroutine()

	streamCtx, cancel := context.WithCancel(ctx)
	got := make(chan struct{})
	done := make(chan error, 1)
	var once bool
	go func() {
		done <- c.Events(streamCtx, v.ID, 0, func(obs.Event) error {
			if !once {
				once = true
				close(got)
			}
			return nil
		})
	}()
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no event arrived on the stream")
	}
	cancel() // client hangs up mid-stream
	select {
	case err := <-done:
		if err == nil || ctx.Err() != nil {
			t.Fatalf("stream end: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Events did not return after cancel")
	}

	// The handler notices the dead client on its next event (search
	// cost samples keep flowing) and exits, releasing the subscription.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines: %d after disconnect, want <= %d (leaked handler?)", now, before)
	}

	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobEventsCachedJob checks a born-completed (cache-hit) job still
// delivers a terminating stream: its ring holds the terminal event.
func TestJobEventsCachedJob(t *testing.T) {
	ctx := context.Background()
	srv, ts, c := newTestServer(t, server.Config{
		Workers: 2, WorkerBudget: 4, QueueDepth: 16, CacheSize: 16,
		DrainTimeout: 10 * time.Second,
	})
	defer ts.Close()
	defer srv.Close()

	v, err := c.Submit(ctx, easySpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v2, err := c.Submit(ctx, easySpec(43))
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", v2)
	}
	var names []string
	if err := c.Events(ctx, v2.ID, 0, func(ev obs.Event) error {
		names = append(names, ev.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "job_finished" {
		t.Fatalf("cached job stream = %v, want exactly [job_finished]", names)
	}
}
