package obs

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"
)

// TestTracerRingWraparound fills a small ring past capacity and
// checks that the oldest events fall off while order and sequence
// numbers stay intact.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		tr.Emit("e", map[string]any{"i": i})
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, ev := range events {
		wantSeq := uint64(7 + i) // events 7..10 survive
		if ev.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d (events: %+v)", i, ev.Seq, wantSeq, events)
		}
		if got := ev.Attrs["i"].(int); got != 7+i {
			t.Fatalf("event %d attr i = %v, want %d", i, got, 7+i)
		}
	}
	// Non-destructive: a second drain sees the same window.
	if again := tr.Events(); len(again) != 4 || again[0].Seq != 7 {
		t.Fatal("Events is not a stable snapshot")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit("a", nil)
	tr.Emit("b", nil)
	events := tr.Events()
	if len(events) != 2 || events[0].Name != "a" || events[1].Name != "b" {
		t.Fatalf("partial fill wrong: %+v", events)
	}
}

func TestTracerSinkJSONL(t *testing.T) {
	var sink strings.Builder
	tr := NewTracer(2)
	tr.SetSink(&sink)
	tr.Emit("restart_fire", map[string]any{"strategy": "luby", "cutoff": 1000})
	tr.Emit("job_finished", map[string]any{"id": "j000001"})
	lines := strings.Split(strings.TrimRight(sink.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink holds %d lines, want 2:\n%s", len(lines), sink.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("sink line is not JSON: %v", err)
	}
	if ev.Name != "restart_fire" || ev.Seq != 1 || ev.TS.IsZero() {
		t.Fatalf("decoded event wrong: %+v", ev)
	}
	if ev.Attrs["cutoff"].(float64) != 1000 {
		t.Fatalf("attrs wrong: %+v", ev.Attrs)
	}
	if tr.SinkErrors() != 0 {
		t.Fatalf("sink errors = %d", tr.SinkErrors())
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit("e", nil)
				_ = tr.Events()
			}
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != 64 {
		t.Fatalf("ring holds %d, want 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestTracerHandler checks the /tracez query the front end serves:
// ?n=K keeps the K most recent events, oldest first.
func TestTracerHandler(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 6; i++ {
		tr.Emit(fmt.Sprintf("e%d", i), nil)
	}
	events, err := tr.Query(url.Values{"n": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Name != "e3" || events[2].Name != "e5" {
		t.Fatalf("?n=3 gave %+v; want e3, e4, e5", events)
	}
	if events, err := tr.Query(url.Values{"n": {"10"}}); err != nil || len(events) != 6 {
		t.Fatalf("?n=10 gave %d events (%v); want all 6", len(events), err)
	}
	if events, err := tr.Query(nil); err != nil || len(events) != 6 {
		t.Fatalf("no query gave %d events (%v); want all 6", len(events), err)
	}
}
