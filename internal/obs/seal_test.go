package obs

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// replayOnce serves t's event stream for one request resuming after
// the given Seq and returns the body. The request's context is already
// cancelled, so ServeEventStream writes its replay and returns instead
// of following the live feed.
func replayOnce(t *testing.T, tr *Tracer, after uint64) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	ServeEventStream(rec, req, tr, after, "fin")
	if rec.Code != http.StatusOK {
		t.Fatalf("replay after %d: status %d", after, rec.Code)
	}
	return rec.Body.String()
}

// emitJobLike emits n events with the attribute shapes a job stream
// carries (numbers, strings needing escapes, nested values, one event
// that cannot be marshaled), then the terminal event.
func emitJobLike(tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			tr.Emit("search_cost", map[string]any{"search": i, "iteration": int64(i) << 13, "cost": 1.0 / float64(i+1), "best": uint64(math.MaxUint64)})
		case 1:
			tr.Emit("restart_fire", map[string]any{"note": "a<b & \"c\"\nd é", "grant": []int{i, 2 * i}})
		case 2:
			tr.Emit("tree_pass", nil)
		case 3:
			tr.Emit("bad", map[string]any{"inf": math.Inf(1)}) // json cannot encode it: no frame
		}
	}
	tr.Emit("fin", map[string]any{"status": "completed"})
}

// TestSealReplayByteIdentical checks that a sealed log replays exactly
// the bytes the ring replayed, from the start, from a middle sequence
// number and from the terminal one, for a ring that never wrapped and
// for one that did.
func TestSealReplayByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
	}{{"unwrapped", 256}, {"wrapped", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(tc.capacity)
			emitJobLike(tr, 41)
			terminal := tr.Events()[tr.Len()-1].Seq
			resumes := []uint64{0, terminal - 7, terminal}
			want := make([]string, len(resumes))
			for i, after := range resumes {
				want[i] = replayOnce(t, tr, after)
			}
			if strings.Count(want[0], "event: fin\n") != 1 || want[2] != "" {
				t.Fatalf("ring replays: want one terminal frame from the start and nothing after it:\n%q\n%q", want[0], want[2])
			}
			if strings.Contains(want[0], "event: bad\n") {
				t.Fatal("an event json cannot encode got a frame")
			}

			tr.Seal()
			if tr.Len() != 0 || tr.Events() != nil {
				t.Fatalf("sealed tracer still holds %d events", tr.Len())
			}
			if n := tr.SealedBytes(); n == 0 || n >= len(want[0]) {
				t.Fatalf("sealed log is %d bytes for %d bytes of frames", n, len(want[0]))
			}
			for i, after := range resumes {
				if got := replayOnce(t, tr, after); got != want[i] {
					t.Errorf("Last-Event-ID %d: sealed replay differs from the ring's\nsealed:\n%q\nring:\n%q", after, got, want[i])
				}
			}
		})
	}
}

// TestSealIdempotent checks a second Seal changes nothing, and that a
// tracer sealed with nothing in it replays nothing.
func TestSealIdempotent(t *testing.T) {
	tr := NewTracer(64)
	emitJobLike(tr, 9)
	tr.Seal()
	first, n := replayOnce(t, tr, 0), tr.SealedBytes()
	tr.Seal()
	if tr.SealedBytes() != n || replayOnce(t, tr, 0) != first {
		t.Fatal("a second Seal changed the sealed log")
	}

	var nilTracer *Tracer
	nilTracer.Seal()
	if nilTracer.SealedBytes() != 0 {
		t.Fatal("nil tracer reports a sealed log")
	}
	empty := NewTracer(8)
	empty.Seal()
	if got := replayOnce(t, empty, 0); got != "" {
		t.Fatalf("empty sealed tracer replayed %q", got)
	}
}

// TestSealLateEvents checks events emitted after Seal: they reach live
// subscribers and the parent, are not replayed, and count as ring
// overwrites.
func TestSealLateEvents(t *testing.T) {
	root := NewTracer(64)
	job := root.Fork(64, SpanContext{}, "", map[string]any{"job": "j1"})
	job.Emit("a", nil)
	job.Emit("fin", nil)
	job.Seal()
	sealed := replayOnce(t, job, 0)

	sub := job.Subscribe(4)
	defer job.Unsubscribe(sub)
	overwrites := root.RingOverwrites()
	job.Emit("late", nil)
	if ev := <-sub.Events(); ev.Name != "late" || ev.Seq != 3 {
		t.Fatalf("subscriber got %q seq %d, want late seq 3", ev.Name, ev.Seq)
	}
	if evs := root.Events(); evs[len(evs)-1].Name != "late" {
		t.Fatalf("parent's last event = %q, want late", evs[len(evs)-1].Name)
	}
	if got := root.RingOverwrites() - overwrites; got != 1 {
		t.Fatalf("late event counted %d ring overwrites, want 1", got)
	}
	if got := replayOnce(t, job, 0); got != sealed {
		t.Fatalf("late event changed the replay:\n%q\nwant\n%q", got, sealed)
	}
	if job.Len() != 0 {
		t.Fatal("sealed tracer kept a late event")
	}
}

// TestSealRacesServeEventStream seals a tracer while clients replay it
// (run it under -race): every client gets the same bytes, whichever
// side of the Seal its snapshot fell on.
func TestSealRacesServeEventStream(t *testing.T) {
	tr := NewTracer(128)
	emitJobLike(tr, 30)
	want := replayOnce(t, tr, 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeEventStream(w, r, tr, 0, "fin")
	}))
	defer srv.Close()

	const clients = 8
	bodies := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Client().Get(srv.URL)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			bodies[i], errs[i] = string(b), err
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.Seal()
	}()
	wg.Wait()
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if bodies[i] != want {
			t.Errorf("client %d read %d bytes, want the %d-byte replay", i, len(bodies[i]), len(want))
		}
	}
}

// TestAppendFrameFormat pins the frame encoder to the SSE layout the
// stream has always had: id, event and data lines, then a blank line.
func TestAppendFrameFormat(t *testing.T) {
	ev := Event{Seq: 42, Name: "job_finished", Attrs: map[string]any{"id": "j1"}}
	frame, err := appendFrame([]byte("prefix|"), ev)
	if err != nil {
		t.Fatal(err)
	}
	const data = `{"seq":42,"ts":"0001-01-01T00:00:00Z","event":"job_finished","attrs":{"id":"j1"}}`
	if want := "prefix|id: 42\nevent: job_finished\ndata: " + data + "\n\n"; string(frame) != want {
		t.Fatalf("frame = %q, want %q", frame, want)
	}
	seq, name := frameHeader(frame[len("prefix|"):])
	if seq != 42 || !bytes.Equal(name, []byte("job_finished")) {
		t.Fatalf("frameHeader = %d %q", seq, name)
	}
	if _, err := appendFrame(nil, Event{Attrs: map[string]any{"x": math.NaN()}}); err == nil {
		t.Fatal("an unencodable event got a frame")
	}
}

// BenchmarkSeal times sealing a job-sized log: 64 events shaped like a
// finished expression job's stream (sampled costs, restart fires, tree
// passes, lifecycle), encoded into SSE frames and compressed.
func BenchmarkSeal(b *testing.B) {
	base := map[string]any{"job": "j000123"}
	root := NewTracer(1)
	fill := func() *Tracer {
		tr := root.Fork(2048, SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}, "", base)
		for i := 0; i < 63; i++ {
			switch i % 5 {
			case 0, 1, 2:
				tr.Emit("search_cost", map[string]any{"search": i % 7, "iteration": int64(i) << 13, "cost": 17.0 - float64(i%11),
					"best": 3.0, "eval_nodes_reevaluated": int64(i) * 5077, "eval_nodes_total": int64(i) * 19211})
			case 3:
				tr.Emit("restart_fire", map[string]any{"strategy": "adaptive", "search": i, "cutoff": int64(1) << (i % 12)})
			case 4:
				tr.Emit("tree_pass", map[string]any{"strategy": "adaptive", "pass": i / 5, "live": 4})
			}
		}
		tr.Emit("job_finished", map[string]any{"id": "j000123", "status": "completed", "solved": true, "iterations": int64(81234)})
		return tr
	}
	var frames, sealed int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := fill()
		frames = 0
		for _, ev := range tr.Events() {
			frame, _ := appendFrame(nil, ev)
			frames += len(frame)
		}
		b.StartTimer()
		tr.Seal()
		sealed = tr.SealedBytes()
	}
	b.ReportMetric(float64(frames), "frame-bytes")
	b.ReportMetric(float64(sealed), "sealed-bytes")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/event")
}
