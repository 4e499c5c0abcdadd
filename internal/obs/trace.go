package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. Events serialize as JSONL:
// one JSON object per line, with a monotone per-tracer sequence
// number so consumers can detect ring-buffer loss (a gap in seq means
// the buffer wrapped between drains).
//
// The optional trace/span fields turn a flat event log into a tree: a
// job's lifecycle shares one TraceID, each operation within it gets a
// SpanID, and ParentID links it under its parent operation (the
// coordinator's submit span parents the forward/failover/redispatch
// spans, which parent the worker-side search events — the TraceID
// rides the traceparent header across processes).
type Event struct {
	Seq      uint64         `json:"seq"`
	TS       time.Time      `json:"ts"`
	Name     string         `json:"event"`
	TraceID  string         `json:"trace_id,omitempty"`
	SpanID   string         `json:"span_id,omitempty"`
	ParentID string         `json:"parent_id,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// dropCounters tallies the three ways an event can be lost. A root
// tracer and all tracers forked from it share one instance, so the
// stochsyn_trace_dropped_total series reports process-wide loss no
// matter which tracer in the tree dropped.
type dropCounters struct {
	ring       atomic.Uint64 // ring-buffer overwrites before any drain
	sink       atomic.Uint64 // sink write failures or pending-buffer overflow
	subscriber atomic.Uint64 // events a slow subscriber's channel could not take
}

// maxSinkPending bounds the per-tracer buffer of events waiting for
// the sink writer. A sink stuck longer than this many events loses
// the overflow (counted as sink drops) instead of growing memory.
const maxSinkPending = 1024

// Tracer records events into a fixed-capacity ring buffer, fans them
// out to bounded-buffer subscribers (Subscribe), optionally tees them
// to a sink (e.g. a -trace file) as JSONL, and forwards them to a
// parent tracer when created by Fork. All methods are safe for
// concurrent use and nil-safe: a nil *Tracer drops everything, so
// instrumentation sites need no guards.
//
// Emission takes a mutex; events are rare relative to search
// iterations (restart fires, plateau transitions, job lifecycle,
// sampled cost points), so this never shows up in profiles — the hot
// loop batches through SearchHooks instead of emitting per iteration.
// Nothing inside the critical section blocks: subscriber sends are
// non-blocking (slow consumers lose events, counted per subscriber),
// and sink writes happen outside the lock via a bounded pending
// buffer drained by whichever emitter wins sinkMu.
//
// A tracer whose stream has ended (a finished job's fork) can be
// sealed (Seal): its ring becomes a compressed log of the SSE frames
// ServeEventStream would replay, and the Event structs are released.
type Tracer struct {
	mu       sync.Mutex
	buf      []Event // grows by append until capacity, then a ring
	capacity int
	next     int  // ring write position
	wrapped  bool // buf has wrapped at least once
	seq      uint64
	subs     map[*Subscription]struct{}
	pending  []Event // events waiting for the sink writer
	sink     io.Writer
	enc      *json.Encoder

	// sealed is set by Seal, which replaces the ring (buf is nil from
	// then on) with log, the ring's SSE frames compressed (sse.go).
	sealed bool
	log    []byte

	// Fork lineage: events emitted on this tracer are stamped with
	// span (when they carry no span of their own) and base attrs, then
	// forwarded to parent so global scrapes still see everything.
	parent     *Tracer
	span       SpanContext
	parentSpan string
	base       map[string]any

	// drops is shared across the fork tree (never nil).
	drops *dropCounters

	// sinkMu serializes actual sink writes; emitters TryLock it so a
	// slow sink stalls at most one (already-unlocked) emitter.
	sinkMu sync.Mutex
}

// NewTracer returns a tracer with the given ring capacity (minimum 1).
// The ring is allocated lazily, element by element, so short-lived
// tracers (per-job forks) cost only what they emit.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{capacity: capacity, drops: &dropCounters{}}
}

// Fork returns a child tracer with its own ring, sequence space, and
// subscriber set. Events emitted on the child are stamped with span
// (unless they already carry a span), parented under parentSpan when
// they have no parent of their own, merged with the base attrs, and
// forwarded to t — so a per-job fork feeds a job-scoped SSE stream
// while the global /tracez ring still sees every event. Drop counters
// are shared with t. Fork of a nil tracer returns nil.
func (t *Tracer) Fork(capacity int, span SpanContext, parentSpan string, base map[string]any) *Tracer {
	if t == nil {
		return nil
	}
	child := NewTracer(capacity)
	child.parent = t
	child.span = span
	child.parentSpan = parentSpan
	child.base = base
	child.drops = t.drops
	return child
}

// SetSink tees every subsequent event to w as JSONL (nil disables).
// Writes are best-effort: failures are counted, not propagated, and
// happen outside the emit critical section so a slow sink never
// stalls concurrent emitters.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = w
	if w != nil {
		t.enc = json.NewEncoder(w)
	} else {
		t.enc = nil
	}
}

// Emit records an event with the given name and attributes. The attrs
// map is retained; callers must not mutate it afterwards.
func (t *Tracer) Emit(name string, attrs map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, TraceID: t.span.TraceID, SpanID: t.span.SpanID, ParentID: t.parentSpan, Attrs: attrs}, true)
}

// EmitSpan records an event carrying an explicit span identity —
// used by Span.End and anywhere an operation needs its own node in
// the trace tree rather than the tracer's ambient span.
func (t *Tracer) EmitSpan(name string, sc SpanContext, parentID string, attrs map[string]any) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, TraceID: sc.TraceID, SpanID: sc.SpanID, ParentID: parentID, Attrs: attrs}, true)
}

// Ingest records an event produced by another tracer (a fork
// forwarding to its parent, or the fleet coordinator relaying a
// worker's SSE stream). The event keeps its timestamp, name, span
// identity, and attrs, but is assigned a fresh Seq from t's sequence
// space — Seq is per-ring, so foreign sequence numbers would corrupt
// resume-by-Last-Event-ID semantics.
func (t *Tracer) Ingest(ev Event) {
	if t == nil {
		return
	}
	t.emit(ev, false)
}

// emit is the shared emission path. stamp marks a locally produced
// event: it gets a fresh timestamp and the tracer's base attrs.
func (t *Tracer) emit(ev Event, stamp bool) {
	if stamp {
		ev.TS = time.Now()
		if len(t.base) > 0 {
			if ev.Attrs == nil {
				ev.Attrs = t.base
			} else {
				merged := make(map[string]any, len(ev.Attrs)+len(t.base))
				for k, v := range t.base {
					merged[k] = v
				}
				for k, v := range ev.Attrs {
					merged[k] = v
				}
				ev.Attrs = merged
			}
		}
	}
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	switch {
	case t.sealed:
		t.drops.ring.Add(1) // a sealed log keeps nothing more
	case len(t.buf) < t.capacity:
		t.buf = append(t.buf, ev)
	default:
		t.buf[t.next] = ev
		t.wrapped = true
		t.drops.ring.Add(1)
	}
	t.next = (t.next + 1) % t.capacity
	for sub := range t.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			t.drops.subscriber.Add(1)
		}
	}
	hasSink := t.enc != nil
	if hasSink {
		if len(t.pending) >= maxSinkPending {
			t.drops.sink.Add(1)
		} else {
			t.pending = append(t.pending, ev)
		}
	}
	t.mu.Unlock()

	if hasSink {
		t.flushSink()
	}
	if t.parent != nil {
		t.parent.Ingest(ev)
	}
}

// flushSink drains the pending buffer to the sink. Only one goroutine
// writes at a time (sinkMu); emitters that find it held return
// immediately — the holder re-checks pending after each batch, so
// their events are picked up without anyone blocking on the writer.
func (t *Tracer) flushSink() {
	for {
		if !t.sinkMu.TryLock() {
			return // the current holder will drain our events
		}
		t.mu.Lock()
		batch := t.pending
		t.pending = nil
		enc := t.enc
		t.mu.Unlock()
		if len(batch) == 0 || enc == nil {
			t.sinkMu.Unlock()
			return
		}
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				t.drops.sink.Add(1)
			}
		}
		t.sinkMu.Unlock()
		// Events appended while we held sinkMu bounced off TryLock;
		// re-check so they are not stranded until the next emit.
		t.mu.Lock()
		more := len(t.pending) > 0
		t.mu.Unlock()
		if !more {
			return
		}
	}
}

// Subscription is one live consumer of a tracer's event stream,
// created by Subscribe. Events arrive on Events(); when the consumer
// falls behind its channel buffer, events are dropped (never blocking
// the emitter) and counted on Dropped.
type Subscription struct {
	ch      chan Event
	dropped atomic.Uint64
}

// Events is the subscription's receive channel. It is closed by
// Unsubscribe; consumers should treat channel close as end-of-stream.
func (s *Subscription) Events() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped reports how many events this subscriber lost to a full
// channel buffer.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Subscribe registers a live consumer with the given channel buffer
// (minimum 1). The subscriber sees every event emitted after the call
// that its buffer can absorb; a full buffer drops (counted), never
// blocks Emit. Pair with Unsubscribe — an abandoned subscription
// keeps dropping but costs one failed channel send per event.
func (t *Tracer) Subscribe(buf int) *Subscription {
	if t == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{ch: make(chan Event, buf)}
	t.mu.Lock()
	if t.subs == nil {
		t.subs = make(map[*Subscription]struct{})
	}
	t.subs[sub] = struct{}{}
	t.mu.Unlock()
	return sub
}

// Unsubscribe removes sub and closes its channel. Idempotent; safe
// while emitters are running (the close happens under the emit lock,
// so no send can race it).
func (t *Tracer) Unsubscribe(sub *Subscription) {
	if t == nil || sub == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.subs[sub]; ok {
		delete(t.subs, sub)
		close(sub.ch)
	}
	t.mu.Unlock()
}

// Subscribers reports the number of live subscriptions.
func (t *Tracer) Subscribers() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.subs)
}

// Events returns a snapshot of the buffered events, oldest first. The
// ring is not cleared: /tracez drains are non-destructive, so
// repeated scrapes overlap (dedupe on Seq). A sealed tracer has no
// ring and returns nothing; its events live on only as the sealed log
// ServeEventStream replays.
func (t *Tracer) Events() []Event {
	events, _ := t.snapshot()
	return events
}

// Query returns the buffered events (oldest first) that a /tracez
// query selects: ?event=NAME keeps only the events with that name, and
// ?n=K the K most recent of those. A malformed or negative K is an
// error; the front end answers it with a 400.
func (t *Tracer) Query(q url.Values) ([]Event, error) {
	n := -1
	if s := q.Get("n"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil || n < 0 {
			return nil, errors.New("tracez: malformed n: want a non-negative integer")
		}
	}
	events := t.Events()
	if name := q.Get("event"); name != "" {
		kept := events[:0]
		for _, ev := range events {
			if ev.Name == name {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if n >= 0 && n < len(events) {
		events = events[len(events)-n:]
	}
	return events, nil
}

// snapshot returns, under one lock, either a copy of the ring (oldest
// first) or, once the tracer is sealed, its sealed log.
func (t *Tracer) snapshot() (events []Event, log []byte) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return nil, t.log
	}
	older, newer := t.ring()
	events = make([]Event, 0, len(t.buf))
	return append(append(events, older...), newer...), nil
}

// ring returns the buffered events, oldest first, as two runs of buf.
// Requires t.mu.
func (t *Tracer) ring() (older, newer []Event) {
	if t.wrapped {
		return t.buf[t.next:], t.buf[:t.next]
	}
	return t.buf, nil
}

// Seal ends the tracer's event log: the ring's events, oldest first,
// are encoded into the exact SSE frames ServeEventStream writes,
// compressed with flate (BestSpeed), and kept as those bytes alone;
// the Event structs and their attribute maps are released. A finished
// job's fork keeps a few KB this way instead of tens of KB of structs
// for as long as the job is listed. ServeEventStream replays the
// sealed log byte for byte as it replayed the ring.
//
// Events emitted after Seal still reach subscribers, the sink and the
// parent tracer, but are not kept: each counts as a ring overwrite.
// Seal runs under the tracer's lock, reuses pooled compressors, and
// is idempotent and nil-safe.
func (t *Tracer) Seal() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	t.log = sealFrames(t.ring())
	t.sealed = true
	t.buf, t.next, t.wrapped = nil, 0, false
}

// SealedBytes reports the size of the tracer's sealed log (0 before
// Seal).
func (t *Tracer) SealedBytes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.log)
}

// Len returns the number of buffered events (0 once sealed).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// SinkErrors reports how many events failed to reach the sink (write
// errors plus pending-buffer overflow), totaled across the fork tree.
func (t *Tracer) SinkErrors() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.sink.Load()
}

// RingOverwrites reports how many events were overwritten in a ring
// before any consumer could have drained them, totaled across the
// fork tree.
func (t *Tracer) RingOverwrites() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.ring.Load()
}

// SubscriberDrops reports how many events were lost to full
// subscriber buffers, totaled across the fork tree.
func (t *Tracer) SubscriberDrops() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.subscriber.Load()
}
