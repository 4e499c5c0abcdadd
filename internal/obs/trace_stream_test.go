package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSubscribeFanout(t *testing.T) {
	tr := NewTracer(16)
	sub := tr.Subscribe(8)
	defer tr.Unsubscribe(sub)
	for i := 0; i < 3; i++ {
		tr.Emit("e", map[string]any{"i": i})
	}
	for i := 0; i < 3; i++ {
		select {
		case ev := <-sub.Events():
			if ev.Seq != uint64(i+1) || ev.Attrs["i"].(int) != i {
				t.Fatalf("event %d wrong: %+v", i, ev)
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber saw no event")
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", sub.Dropped())
	}
}

func TestTracerSubscribeSlowConsumerDrops(t *testing.T) {
	tr := NewTracer(64)
	sub := tr.Subscribe(2) // nobody reads: only 2 events fit
	defer tr.Unsubscribe(sub)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			tr.Emit("e", nil) // must never block
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Emit blocked on a full subscriber")
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscriber dropped %d, want 8", got)
	}
	if got := tr.SubscriberDrops(); got != 8 {
		t.Fatalf("tracer subscriber drops %d, want 8", got)
	}
}

func TestTracerUnsubscribeClosesAndIsIdempotent(t *testing.T) {
	tr := NewTracer(8)
	sub := tr.Subscribe(1)
	tr.Unsubscribe(sub)
	tr.Unsubscribe(sub) // second call must not panic (double close)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel not closed after Unsubscribe")
	}
	tr.Emit("e", nil) // emitting after unsubscribe must not panic
	if tr.Subscribers() != 0 {
		t.Fatalf("subscribers = %d, want 0", tr.Subscribers())
	}
}

func TestTracerRingOverwriteCounting(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit("e", nil)
	}
	if got := tr.RingOverwrites(); got != 6 {
		t.Fatalf("ring overwrites = %d, want 6", got)
	}
}

// errWriter fails every write, exercising the sink-drop accounting.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestTracerSinkFailureCounted(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSink(errWriter{})
	tr.Emit("e", nil)
	tr.Emit("e", nil)
	if got := tr.SinkErrors(); got != 2 {
		t.Fatalf("sink errors = %d, want 2", got)
	}
}

// blockingWriter parks every writer until released. Used to prove a
// stalled sink does not stall Emit.
type blockingWriter struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

func TestTracerSlowSinkDoesNotBlockEmit(t *testing.T) {
	w := &blockingWriter{release: make(chan struct{}), entered: make(chan struct{})}
	tr := NewTracer(64)
	tr.SetSink(w)

	// First emitter wins sinkMu and parks inside the sink write.
	go tr.Emit("stuck", nil)
	select {
	case <-w.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("sink writer never entered")
	}
	// While the sink is stuck, further emits must complete promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tr.Emit("free", nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Emit blocked behind a stalled sink")
	}
	close(w.release)
	// The stuck holder drains the backlog after release; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for tr.Len() != 21 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tr.Len() != 21 {
		t.Fatalf("ring holds %d events, want 21", tr.Len())
	}
}

func TestTracerForkForwardsToParent(t *testing.T) {
	parent := NewTracer(32)
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	child := parent.Fork(8, sc, "feedbeeffeedbeef", map[string]any{"job": "j000001"})

	child.Emit("search_start", map[string]any{"budget": 100})
	childEvents := child.Events()
	if len(childEvents) != 1 {
		t.Fatalf("child holds %d events, want 1", len(childEvents))
	}
	ev := childEvents[0]
	if ev.TraceID != sc.TraceID || ev.SpanID != sc.SpanID || ev.ParentID != "feedbeeffeedbeef" {
		t.Fatalf("span stamping wrong: %+v", ev)
	}
	if ev.Attrs["job"] != "j000001" || ev.Attrs["budget"] != 100 {
		t.Fatalf("base attr merge wrong: %+v", ev.Attrs)
	}

	parentEvents := parent.Events()
	if len(parentEvents) != 1 {
		t.Fatalf("parent holds %d events, want 1", len(parentEvents))
	}
	pe := parentEvents[0]
	if pe.Name != "search_start" || pe.TraceID != sc.TraceID || pe.Attrs["job"] != "j000001" {
		t.Fatalf("forwarded event wrong: %+v", pe)
	}
	// Sequence spaces are independent: both rings assigned seq 1.
	if ev.Seq != 1 || pe.Seq != 1 {
		t.Fatalf("seqs: child %d parent %d, want 1 and 1", ev.Seq, pe.Seq)
	}
	// Drop counters are shared across the fork tree.
	tiny := parent.Fork(1, SpanContext{}, "", nil)
	tiny.Emit("a", nil)
	tiny.Emit("b", nil) // overwrites a
	if parent.RingOverwrites() != 1 || child.RingOverwrites() != 1 {
		t.Fatalf("shared ring-overwrite counter not shared: parent %d child %d",
			parent.RingOverwrites(), child.RingOverwrites())
	}
}

func TestTracerIngestPreservesIdentity(t *testing.T) {
	tr := NewTracer(8)
	ts := time.Now().Add(-time.Minute)
	tr.Ingest(Event{Seq: 999, TS: ts, Name: "remote", TraceID: "t", SpanID: "s", Attrs: map[string]any{"k": "v"}})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.Seq != 1 {
		t.Fatalf("Ingest kept foreign seq %d, want re-stamped 1", ev.Seq)
	}
	if !ev.TS.Equal(ts) || ev.Name != "remote" || ev.TraceID != "t" || ev.SpanID != "s" || ev.Attrs["k"] != "v" {
		t.Fatalf("Ingest mutated event: %+v", ev)
	}
}

func TestSpanEndEmitsDuration(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.StartSpan("fleet_forward", "", "")
	if !sp.Context().Valid() {
		t.Fatalf("span context invalid: %+v", sp.Context())
	}
	child := tr.StartSpan("fleet_failover", sp.Context().TraceID, sp.Context().SpanID)
	child.End(nil)
	sp.End(map[string]any{"worker": "w1"})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].ParentID != sp.Context().SpanID || evs[0].TraceID != sp.Context().TraceID {
		t.Fatalf("child span not parented: %+v", evs[0])
	}
	if _, ok := evs[1].Attrs["duration_seconds"].(float64); !ok {
		t.Fatalf("no duration on span end: %+v", evs[1].Attrs)
	}
	if evs[1].Attrs["worker"] != "w1" {
		t.Fatalf("span end attrs lost: %+v", evs[1].Attrs)
	}
	// Nil-safety: spans on a nil tracer still mint context.
	var nilT *Tracer
	nsp := nilT.StartSpan("x", "", "")
	if !nsp.Context().Valid() {
		t.Fatal("nil-tracer span has no context")
	}
	nsp.End(nil) // must not panic
}

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	hdr := FormatTraceParent(sc)
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("header shape wrong: %q", hdr)
	}
	got, ok := ParseTraceParent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	for _, bad := range []string{
		"", "00-xyz-abc-01", "00-" + sc.TraceID + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sc.SpanID + "-01",
		"00-" + sc.TraceID + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + sc.TraceID[:31] + "-" + sc.SpanID + "-01",
		"zz-" + sc.TraceID + "-" + sc.SpanID + "-01",
	} {
		if _, ok := ParseTraceParent(bad); ok && !strings.HasPrefix(bad, "zz") {
			t.Fatalf("parsed malformed header %q", bad)
		}
	}
	// Unknown version/flags are tolerated (ids are what matter).
	if _, ok := ParseTraceParent("01-" + sc.TraceID + "-" + sc.SpanID + "-00"); !ok {
		t.Fatal("rejected unknown version")
	}
}

// TestTracerHandlerEventFilterAndBadN checks the rest of the /tracez
// query: ?event= filters by name, ?n= applies after the filter, and a
// malformed or negative n is an error.
func TestTracerHandlerEventFilterAndBadN(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 3; i++ {
		tr.Emit("restart_fire", map[string]any{"i": i})
		tr.Emit("search_cost", map[string]any{"i": i})
	}
	events, err := tr.Query(url.Values{"event": {"restart_fire"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Name != "restart_fire" {
			t.Fatalf("filter leaked %q", ev.Name)
		}
	}
	if len(events) != 3 {
		t.Fatalf("filtered to %d events, want 3", len(events))
	}
	// Filter composes with ?n=.
	events, err = tr.Query(url.Values{"event": {"search_cost"}, "n": {"1"}})
	if err != nil || len(events) != 1 || events[0].Name != "search_cost" || events[0].Attrs["i"] != 2 {
		t.Fatalf("filter+n gave %+v (%v), want the last search_cost", events, err)
	}
	if tr.Len() != 6 {
		t.Fatalf("Query changed the ring: %d events, want 6", tr.Len())
	}
	for _, n := range []string{"abc", "-1", "1.5"} {
		if events, err := tr.Query(url.Values{"n": {n}}); err == nil || !strings.Contains(err.Error(), "malformed n") {
			t.Fatalf("?n=%s gave %+v (%v), want a malformed-n error", n, events, err)
		}
	}
}

func TestServeEventStreamReplayAndLive(t *testing.T) {
	tr := NewTracer(32)
	tr.Emit("a", nil)
	tr.Emit("b", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeEventStream(w, r, tr, 0, "fin")
	}))
	defer srv.Close()

	go func() {
		// Live events land after the client connects; a short settle
		// keeps the replay/live boundary honest but is not load-bearing.
		time.Sleep(50 * time.Millisecond)
		tr.Emit("c", nil)
		tr.Emit("fin", nil)
	}()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	names, ids := readSSE(t, resp)
	want := []string{"a", "b", "c", "fin"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("stream = %v, want %v", names, want)
	}
	if fmt.Sprint(ids) != fmt.Sprint([]uint64{1, 2, 3, 4}) {
		t.Fatalf("ids = %v", ids)
	}
}

func TestServeEventStreamResumeNoDuplicates(t *testing.T) {
	tr := NewTracer(32)
	for _, n := range []string{"a", "b", "c", "fin"} {
		tr.Emit(n, nil)
	}
	// Resume after Seq 2, as for a client whose Last-Event-ID is 2.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeEventStream(w, r, tr, 2, "fin")
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	names, ids := readSSE(t, resp)
	if fmt.Sprint(names) != fmt.Sprint([]string{"c", "fin"}) || fmt.Sprint(ids) != fmt.Sprint([]uint64{3, 4}) {
		t.Fatalf("resume replayed %v / %v, want [c fin] / [3 4]", names, ids)
	}
}

func TestServeEventStreamDisconnectReleasesSubscription(t *testing.T) {
	tr := NewTracer(32)
	tr.Emit("a", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeEventStream(w, r, tr, 0, "never_emitted")
	}))
	defer srv.Close()

	ctxReq, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	resp, err := http.DefaultClient.Do(ctxReq)
	if err != nil {
		t.Fatal(err)
	}
	// Read the replayed event, then hang up mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(2 * time.Second)
	for tr.Subscribers() != 0 && time.Now().Before(deadline) {
		tr.Emit("tick", nil) // wake the handler so it notices the dead client
		time.Sleep(5 * time.Millisecond)
	}
	if got := tr.Subscribers(); got != 0 {
		t.Fatalf("subscription leaked after disconnect: %d live", got)
	}
}

// readSSE consumes an SSE body to EOF and returns the event names and
// ids in order.
func readSSE(t *testing.T, resp *http.Response) (names []string, ids []uint64) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			var id uint64
			fmt.Sscanf(line, "id: %d", &id)
			ids = append(ids, id)
		case strings.HasPrefix(line, "event: "):
			names = append(names, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("data line is not an Event: %v", err)
			}
		}
	}
	return names, ids
}
