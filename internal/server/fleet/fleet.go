// Package fleet implements synthd's coordinator mode: an HTTP front
// end that speaks the same /v1 job API as a single synthd
// (internal/server) but owns no scheduler of its own. Submissions are
// sharded over a static set of worker synthd instances by rendezvous
// hashing of the canonical cache key (see hrw.go), forwarded through
// the standard Go client, and tracked so polls, cancels, and worker
// failures route to the right place.
//
// Robustness model:
//
//   - Health: a background prober pings every worker's /healthz on an
//     interval; forwarding prefers healthy workers but will try
//     unhealthy ones as a last resort (stale probe state must not
//     reject work a live worker could take).
//   - Failover: a worker that cannot be reached at submit time is
//     marked unhealthy and the next shard in the key's rendezvous
//     order is tried, with backoff between attempts. A worker that
//     dies while running a job is detected at poll time and the job
//     is re-dispatched to the next shard under the same coordinator
//     id. The positional-grant tree executor is schedule-
//     deterministic, so the re-run returns the bit-identical result
//     the dead worker would have produced.
//   - Backpressure: a 503 from a worker (queue full) is not retried
//     against that worker; if every candidate is full or down, the
//     coordinator answers 503 with a Retry-After hint instead of
//     hanging or queueing unboundedly.
//   - Dedup: identical in-flight submissions shard to the same worker
//     by construction, where the server's singleflight joins them to
//     one search; the coordinator adds no second dedup layer.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
)

// Config sizes the coordinator. Workers is required; the zero value
// of everything else selects defaults.
type Config struct {
	// Workers lists the base URLs of the worker synthd instances,
	// e.g. ["http://10.0.0.1:8731", "http://10.0.0.2:8731"]. The set
	// is static for the coordinator's lifetime; position i is named
	// "w<i>" in ids, metrics, and traces.
	Workers []string
	// HealthInterval is the period of the background health prober
	// (default 1s).
	HealthInterval time.Duration
	// RetryBackoff is the pause before each failover attempt after
	// the first (default 50ms, growing linearly per attempt).
	RetryBackoff time.Duration
	// HTTPClient is the transport used for all worker calls; nil uses
	// http.DefaultClient.
	HTTPClient *http.Client
	// Obs, when non-nil, is the observability sink the coordinator
	// publishes into; nil creates a private one. The Handler serves
	// /metrics, /tracez, and /debug/pprof either way.
	Obs *obs.Obs
}

// Coordinator fronts a fleet of worker synthds. Create with New,
// serve Handler, stop with Close.
type Coordinator struct {
	cfg     Config
	obs     *obs.Obs
	workers []*workerRef

	mu     sync.Mutex
	subs   map[string]*submission
	order  []*submission
	nextID int

	metrics coordMetrics
	stop    chan struct{}
	wg      sync.WaitGroup
	// relayCtx bounds the per-submission event-relay goroutines (see
	// relayLoop); Close cancels it.
	relayCtx    context.Context
	relayCancel context.CancelFunc
}

// workerRef is one worker shard. The health flag is written by the
// prober and by forwarding failures, read by shard selection.
type workerRef struct {
	name   string
	base   string
	client *client.Client

	mu      sync.Mutex
	healthy bool
}

func (w *workerRef) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// setHealthy updates the flag and reports whether it changed.
func (w *workerRef) setHealthy(v bool) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	changed := w.healthy != v
	w.healthy = v
	return changed
}

// submission is the coordinator-side record of one forwarded job. mu
// serializes polls and re-dispatches of the same submission (held
// across the worker round trip, so two pollers cannot double-dispatch
// a dead worker's job).
type submission struct {
	id      string
	spec    server.JobSpec
	key     string
	created time.Time
	// tracer is the submission's trace fork: forward, failover, and
	// redispatch spans land here (parented under the submit span), as
	// do the owning worker's events once the relay mirrors them in —
	// it backs the coordinator's GET /v1/jobs/{id}/events stream.
	tracer *obs.Tracer
	// submit is the submission's root span; the worker-side job and
	// every coordinator-side operation span parent under it, sharing
	// its trace id across the fleet (propagated via traceparent).
	submit obs.SpanContext
	// relay starts the worker event-stream mirror at most once, on the
	// first /events request for this submission.
	relay sync.Once

	mu       sync.Mutex
	worker   *workerRef
	remoteID string
	last     server.JobView // last seen view, already rewritten
	terminal bool
}

// SubTraceCap is the ring capacity of each submission's trace fork.
// It is larger than the worker-side server.JobTraceCap: a redispatched
// submission relays up to two runs' worth of events plus its own
// forward/redispatch spans.
const SubTraceCap = 4096

type coordMetrics struct {
	forwards     map[string]*obs.Counter // by worker name
	failovers    map[string]*obs.Counter // by worker name (the worker failed away from)
	redispatches *obs.Counter
	backpressure *obs.Counter
}

// New validates cfg, builds the worker set, and starts the health
// prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	for _, u := range cfg.Workers {
		if strings.TrimSpace(u) == "" {
			return nil, errors.New("fleet: empty worker URL in worker list")
		}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	co := &Coordinator{
		cfg:  cfg,
		obs:  cfg.Obs,
		subs: make(map[string]*submission),
		stop: make(chan struct{}),
	}
	co.relayCtx, co.relayCancel = context.WithCancel(context.Background())
	if co.obs == nil {
		co.obs = obs.New()
	}
	co.metrics = coordMetrics{
		forwards:     make(map[string]*obs.Counter),
		failovers:    make(map[string]*obs.Counter),
		redispatches: co.obs.Reg.Counter("stochsyn_fleet_redispatches_total"),
		backpressure: co.obs.Reg.Counter("stochsyn_fleet_backpressure_total"),
	}
	co.obs.Reg.SetHelp("stochsyn_fleet_redispatches_total", "Jobs re-dispatched to another shard after their worker became unreachable mid-run.")
	co.obs.Reg.SetHelp("stochsyn_fleet_backpressure_total", "Submissions answered 503 because every candidate worker was full or down.")
	for i, base := range cfg.Workers {
		w := &workerRef{
			name:   fmt.Sprintf("w%d", i),
			base:   base,
			client: client.New(base),
		}
		w.client.HTTPClient = cfg.HTTPClient
		w.healthy = true // optimistic until the first probe says otherwise
		co.workers = append(co.workers, w)
		co.metrics.forwards[w.name] = co.obs.Reg.Counter("stochsyn_fleet_forwards_total", "worker", w.name)
		co.metrics.failovers[w.name] = co.obs.Reg.Counter("stochsyn_fleet_failovers_total", "worker", w.name)
		co.obs.Reg.GaugeFunc("stochsyn_fleet_worker_healthy", func() float64 {
			if w.isHealthy() {
				return 1
			}
			return 0
		}, "worker", w.name)
	}
	co.obs.Reg.SetHelp("stochsyn_fleet_forwards_total", "Jobs forwarded to each worker shard.")
	co.obs.Reg.SetHelp("stochsyn_fleet_failovers_total", "Forwarding attempts that failed against each worker and moved to the next shard.")
	co.obs.Reg.SetHelp("stochsyn_fleet_worker_healthy", "1 if the last health probe of the worker succeeded, else 0.")

	co.wg.Add(1)
	go co.healthLoop()
	return co, nil
}

// Close stops the health prober and the event relays. In-flight jobs
// keep running on their workers; the coordinator holds no queue of
// its own.
func (co *Coordinator) Close() error {
	close(co.stop)
	co.relayCancel()
	co.wg.Wait()
	return nil
}

// healthLoop probes every worker's /healthz each interval.
func (co *Coordinator) healthLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.HealthInterval)
	defer t.Stop()
	for {
		co.probeAll()
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
	}
}

func (co *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, w := range co.workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), co.cfg.HealthInterval)
			defer cancel()
			err := w.client.Health(ctx)
			if w.setHealthy(err == nil) {
				co.obs.Trace().Emit("fleet_worker_health", map[string]any{
					"worker": w.name, "healthy": err == nil,
				})
			}
		}()
	}
	wg.Wait()
}

// forward submits the submission's spec to the best available shard
// for its key, walking the rendezvous order with backoff. exclude,
// when non-nil, is skipped (the worker a re-dispatch is fleeing). The
// whole walk is one fleet_forward span on sub.tracer, parented under
// parentID (the submit span, or a redispatch span); per-candidate
// failures become fleet_failover / fleet_backpressure events under
// it, and the accepting worker receives the span's context as a
// traceparent header, so the worker-side job joins the same trace. It
// returns the worker that accepted the job and its initial view.
func (co *Coordinator) forward(ctx context.Context, sub *submission, parentID string, exclude *workerRef) (*workerRef, *server.JobView, error) {
	span := sub.tracer.StartSpan("fleet_forward", sub.submit.TraceID, parentID)
	ranked := shardOrder(co.workers, sub.key)
	// Healthy shards first in rank order, then the unhealthy ones as
	// a last resort: a stale probe must not turn capacity away.
	candidates := make([]*workerRef, 0, len(ranked))
	for _, w := range ranked {
		if w != exclude && w.isHealthy() {
			candidates = append(candidates, w)
		}
	}
	for _, w := range ranked {
		if w != exclude && !w.isHealthy() {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		span.End(map[string]any{"error": "no workers available"})
		return nil, nil, &fleetError{code: http.StatusServiceUnavailable, retryAfter: 1, msg: "no workers available"}
	}

	sawBusy := false
	for i, w := range candidates {
		if i > 0 {
			select {
			case <-ctx.Done():
				span.End(map[string]any{"error": ctx.Err().Error()})
				return nil, nil, ctx.Err()
			case <-time.After(co.cfg.RetryBackoff * time.Duration(i)):
			}
		}
		v, err := w.client.SubmitTraced(ctx, sub.spec, span.Context())
		if err == nil {
			co.metrics.forwards[w.name].Inc()
			span.End(map[string]any{
				"worker": w.name, "remote_id": v.ID, "key": sub.key, "attempts": i + 1,
			})
			return w, v, nil
		}
		var ae *client.APIError
		if errors.As(err, &ae) {
			if ae.StatusCode == http.StatusServiceUnavailable {
				// Worker is up but full: backpressure, not failure.
				sawBusy = true
				sub.tracer.EmitSpan("fleet_backpressure",
					obs.SpanContext{TraceID: sub.submit.TraceID, SpanID: obs.NewSpanID()},
					span.Context().SpanID, map[string]any{"worker": w.name})
				continue
			}
			// Any other API error (400 bad spec, ...) is not going to
			// improve on another shard; surface it as-is.
			span.End(map[string]any{"error": ae.Message})
			return nil, nil, err
		}
		// Transport-level failure: the worker is unreachable.
		w.setHealthy(false)
		co.metrics.failovers[w.name].Inc()
		sub.tracer.EmitSpan("fleet_failover",
			obs.SpanContext{TraceID: sub.submit.TraceID, SpanID: obs.NewSpanID()},
			span.Context().SpanID, map[string]any{"worker": w.name, "error": err.Error()})
	}
	co.metrics.backpressure.Inc()
	msg := "no worker reachable"
	if sawBusy {
		msg = "all workers are at capacity"
	}
	span.End(map[string]any{"error": msg})
	return nil, nil, &fleetError{code: http.StatusServiceUnavailable, retryAfter: 1, msg: msg}
}

// view rewrites a worker-local JobView into the coordinator's wire
// form: the coordinator id replaces the worker-local one, and the
// shard is named. Callers hold sub.mu.
func (sub *submission) view(v server.JobView) server.JobView {
	v.ID = sub.id
	if sub.worker != nil {
		v.Worker = sub.worker.name
	}
	return v
}

// record stores the latest view. Callers hold sub.mu.
func (sub *submission) record(v server.JobView) server.JobView {
	v = sub.view(v)
	sub.last = v
	sub.terminal = v.Status.Terminal()
	return v
}

// Handler returns the coordinator's HTTP API — the same surface a
// single synthd serves, so clients (synth -remote, the Go client) are
// oblivious to the topology:
//
//	POST   /v1/jobs             validate, shard by canonical key, forward
//	GET    /v1/jobs             merged list of forwarded jobs
//	GET    /v1/jobs/{id}        poll (re-dispatching off dead workers)
//	GET    /v1/jobs/{id}/events live telemetry stream (SSE), relayed from
//	                            the owning worker and surviving redispatch
//	DELETE /v1/jobs/{id}        cancel on the owning worker
//	GET    /healthz             coordinator liveness + healthy worker count
//	GET    /statsz              fleet snapshot (per-worker health/forwards,
//	                            rolled-up worker stats)
//	GET    /metrics             federated Prometheus exposition: the
//	                            coordinator's own series plus every
//	                            reachable worker's, labeled worker="wN"
//	GET    /tracez              recent trace events as JSONL
//	GET    /debug/pprof/        runtime profiles
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", co.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", co.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", co.handleCancel)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /statsz", co.handleStatsz)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.Handle("GET /tracez", co.obs.Tracer.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := server.DecodeSpec(w, r)
	if err != nil {
		writeError(w, server.ErrorStatus(err), err.Error())
		return
	}
	// Validate here and compute the shard key; a spec the workers
	// would reject never leaves the coordinator.
	problem, opts, err := spec.Build()
	if err != nil {
		writeError(w, server.ErrorStatus(err), err.Error())
		return
	}
	key, err := server.CanonicalCacheKey(problem, opts)
	if err != nil {
		writeError(w, server.ErrorStatus(err), err.Error())
		return
	}
	// Expr-based submissions shard by their rewrite-equivalence key
	// instead: rewrite-equivalent references then land on the same
	// worker, whose second-level cache index can serve one from the
	// other. Example-set submissions keep the canonical key (they have
	// no reference expression to saturate).
	if spec.Problem.Expr != "" {
		if ek, err := server.EqSatCacheKey(spec.Problem.Expr, spec.Problem.Inputs, opts); err == nil {
			key = ek
		}
	}

	// The submission record — id, trace fork, submit span — exists
	// before the first forward attempt, so the forward/failover walk is
	// already traced under the submit span. A submitter's Traceparent
	// header parents the whole fleet-side trace under its span; without
	// one the submission roots a fresh trace. On forward failure the
	// record is discarded (its id is burned, never registered).
	parent, _ := obs.ParseTraceParent(r.Header.Get("Traceparent"))
	co.mu.Lock()
	co.nextID++
	id := fmt.Sprintf("c%06d", co.nextID)
	co.mu.Unlock()
	sc := obs.SpanContext{TraceID: parent.TraceID, SpanID: obs.NewSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = obs.NewTraceID()
	}
	sub := &submission{
		id:      id,
		spec:    spec,
		key:     key,
		created: time.Now(),
		submit:  sc,
		tracer:  co.obs.Trace().Fork(SubTraceCap, sc, parent.SpanID, map[string]any{"job": id}),
	}

	worker, v, err := co.forward(r.Context(), sub, sc.SpanID, nil)
	if err != nil {
		writeFleetError(w, err)
		return
	}

	sub.worker = worker
	sub.remoteID = v.ID
	co.mu.Lock()
	co.subs[sub.id] = sub
	co.order = append(co.order, sub)
	co.mu.Unlock()

	sub.mu.Lock()
	out := sub.record(*v)
	sub.mu.Unlock()
	code := http.StatusAccepted
	if out.Status.Terminal() {
		code = http.StatusOK // served from the worker's cache
	}
	writeJSON(w, code, out)
}

// refresh polls the submission's worker for a fresh view,
// re-dispatching to another shard if the worker is gone. It returns
// the freshest view it can get; a stale last-known view with a nil
// error is returned only when the job already reached a terminal
// state (then the worker no longer matters).
func (co *Coordinator) refresh(ctx context.Context, sub *submission) (server.JobView, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.terminal {
		return sub.last, nil
	}
	v, err := sub.worker.client.Job(ctx, sub.remoteID)
	if err == nil {
		return sub.record(*v), nil
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.StatusCode != http.StatusNotFound {
		// The worker answered: the job is there, the request was bad
		// some other way. Pass it through.
		return server.JobView{}, err
	}
	// Transport failure (worker dead) or 404 (worker restarted and
	// forgot the job): the search is lost, but it is deterministic —
	// re-dispatch the original spec to the next shard and keep the
	// coordinator id. The redispatch span parents the new forward walk,
	// so the trace shows submit → redispatch → forward → new run.
	dead := sub.worker
	dead.setHealthy(false)
	span := sub.tracer.StartSpan("fleet_redispatch", sub.submit.TraceID, sub.submit.SpanID)
	worker, v, ferr := co.forward(ctx, sub, span.Context().SpanID, dead)
	if ferr != nil {
		span.End(map[string]any{"from": dead.name, "error": ferr.Error()})
		return server.JobView{}, ferr
	}
	sub.worker = worker
	sub.remoteID = v.ID
	co.metrics.redispatches.Inc()
	span.End(map[string]any{
		"from": dead.name, "to": worker.name, "remote_id": v.ID,
	})
	return sub.record(*v), nil
}

func (co *Coordinator) lookup(id string) *submission {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.subs[id]
}

func (co *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	sub := co.lookup(r.PathValue("id"))
	if sub == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	v, err := co.refresh(r.Context(), sub)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleEvents serves the coordinator-side live telemetry stream for a
// submission. The stream is backed by the submission's own tracer, fed
// by a relay goroutine that mirrors the owning worker's event stream —
// so a client streaming through the coordinator survives a mid-run
// worker death: the relay notices the torn stream, re-dispatches, and
// re-attaches to the replacement worker under the same trace id.
func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub := co.lookup(r.PathValue("id"))
	if sub == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	co.ensureRelay(sub)
	obs.ServeEventStream(w, r, sub.tracer, "job_finished")
}

// ensureRelay starts the submission's worker-stream relay exactly
// once, lazily: submissions nobody watches cost no extra connection.
func (co *Coordinator) ensureRelay(sub *submission) {
	sub.relay.Do(func() {
		co.wg.Add(1)
		go co.relayLoop(sub)
	})
}

// relayLoop mirrors the owning worker's event stream into the
// submission tracer until the terminal job_finished event arrives (or
// the coordinator shuts down). Worker events pass through Ingest, so
// they keep their timestamps, span identity, and attrs but are
// re-sequenced into the submission's own stream — /events consumers
// resume against coordinator sequence numbers, never worker-local
// ones.
//
// When the stream tears mid-run the loop re-dispatches via refresh and
// reconnects. On the same worker (transient blip) it resumes after the
// last relayed worker sequence number, so nothing duplicates; on a
// replacement worker it replays the re-run from zero — the re-run's
// lifecycle events are genuinely new events on this submission's
// stream, and the dead worker never emitted a terminal event, so
// watchers still see exactly one job_finished.
//
// A relay that ends on a terminal event, relayed or synthesized, seals
// the submission's tracer (obs.Tracer.Seal): the stream is complete,
// and later readers replay it from the compressed frames.
func (co *Coordinator) relayLoop(sub *submission) {
	defer co.wg.Done()
	ctx := co.relayCtx
	var (
		w          *workerRef
		remoteID   string
		lastRemote uint64
		finished   bool
	)
	defer func() {
		if finished {
			sub.tracer.Seal()
		}
	}()
	// pump mirrors one worker event into the submission stream. Like
	// the coordinator's JobView rewriting, the worker-local job id is
	// replaced by the coordinator id and the shard is named, so
	// watchers see one coherent stream across redispatches.
	pump := func(ev obs.Event) error {
		lastRemote = ev.Seq
		if ev.Attrs == nil {
			ev.Attrs = make(map[string]any, 2)
		}
		ev.Attrs["job"] = sub.id
		ev.Attrs["worker"] = w.name
		sub.tracer.Ingest(ev)
		if ev.Name == "job_finished" {
			finished = true
		}
		return nil
	}
	// owner re-reads the current placement and zeroes the resume point
	// when the job moved (a redispatched run is a fresh sequence
	// space); on the same worker the relay resumes after lastRemote, so
	// a transient blip duplicates nothing.
	owner := func(prevW *workerRef, prevID string) (*workerRef, string) {
		sub.mu.Lock()
		cw, id := sub.worker, sub.remoteID
		sub.mu.Unlock()
		if cw != prevW || id != prevID {
			lastRemote = 0
		}
		return cw, id
	}
	w, remoteID = owner(nil, "")
	for !finished {
		_ = w.client.Events(ctx, remoteID, lastRemote, pump)
		if finished || ctx.Err() != nil {
			return
		}
		// The stream ended without a terminal event: the worker died or
		// the connection tore. refresh re-dispatches if the worker is
		// really gone; on any error, back off and retry.
		v, rerr := co.refresh(ctx, sub)
		if rerr == nil && v.Status.Terminal() {
			// The job finished before its stream could: either the poll
			// raced ahead of the relay, or the worker died along with its
			// event ring. Drain whatever ring the current owner still
			// holds; if no terminal event surfaces, synthesize one so
			// watchers are released instead of left hanging.
			w, remoteID = owner(w, remoteID)
			_ = w.client.Events(ctx, remoteID, lastRemote, pump)
			if !finished && ctx.Err() == nil {
				sub.tracer.Emit("job_finished", map[string]any{
					"id": sub.id, "status": string(v.Status), "synthetic": true,
				})
				finished = true
			}
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(co.cfg.RetryBackoff):
		}
		w, remoteID = owner(w, remoteID)
	}
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	sub := co.lookup(r.PathValue("id"))
	if sub == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.terminal {
		writeJSON(w, http.StatusOK, sub.last)
		return
	}
	v, err := sub.worker.client.Cancel(r.Context(), sub.remoteID)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.StatusCode != http.StatusNotFound {
			writeError(w, ae.StatusCode, ae.Message)
			return
		}
		// The worker is gone, and with it the job: honor the cancel
		// locally instead of resurrecting the search elsewhere.
		sub.worker.setHealthy(false)
		now := time.Now()
		out := sub.record(server.JobView{
			Status: server.StatusCancelled, CreatedAt: sub.created, FinishedAt: &now,
		})
		writeJSON(w, http.StatusOK, out)
		return
	}
	writeJSON(w, http.StatusOK, sub.record(*v))
}

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	filter := server.Status(r.URL.Query().Get("status"))
	if filter != "" && !filter.Known() {
		known := server.KnownStatuses()
		names := make([]string, len(known))
		for i, st := range known {
			names[i] = string(st)
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"unknown status %q (want one of %s)", filter, strings.Join(names, ", ")))
		return
	}
	co.mu.Lock()
	subs := make([]*submission, len(co.order))
	copy(subs, co.order)
	co.mu.Unlock()
	views := make([]server.JobView, 0, len(subs))
	for _, sub := range subs {
		v, err := co.refresh(r.Context(), sub)
		if err != nil {
			// Unreachable job: report the last thing we knew rather
			// than failing the whole listing.
			sub.mu.Lock()
			v = sub.last
			sub.mu.Unlock()
		}
		if filter != "" && v.Status != filter {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, views)
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, wr := range co.workers {
		if wr.isHealthy() {
			healthy++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "workers": len(co.workers), "healthy_workers": healthy,
	})
}

// Stats is the coordinator's /statsz snapshot.
type Stats struct {
	Workers      []WorkerStats `json:"workers"`
	Submissions  int           `json:"submissions"`
	Redispatches int64         `json:"redispatches"`
	Backpressure int64         `json:"backpressure"`
	// Fleet rolls worker-side /statsz snapshots up into fleet-wide
	// totals (populated by SnapshotFleet; zero in a plain Snapshot).
	Fleet FleetTotals `json:"fleet"`
	// Trace reports the coordinator's own trace-event loss (the relay
	// forks included).
	Trace server.TraceStats `json:"trace"`
}

// WorkerStats is one shard's view in Stats.
type WorkerStats struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Forwards  int64  `json:"forwards"`
	Failovers int64  `json:"failovers"`
	// Stats is the worker's own /statsz snapshot, scraped live by
	// SnapshotFleet; nil when the worker was unreachable.
	Stats *server.Stats `json:"stats,omitempty"`
}

// FleetTotals is the fleet-wide rollup of worker-side stats.
type FleetTotals struct {
	// WorkersReachable counts workers whose /statsz scrape succeeded;
	// the totals below sum over exactly those.
	WorkersReachable int              `json:"workers_reachable"`
	Submitted        int64            `json:"submitted"`
	Rejected         int64            `json:"rejected"`
	Jobs             server.JobCounts `json:"jobs"`
	CacheHits        int64            `json:"cache_hits"`
	CacheMisses      int64            `json:"cache_misses"`
	CacheEntries     int              `json:"cache_entries"`
	DedupJoins       int64            `json:"dedup_joins"`
	PoolTotal        int              `json:"pool_total"`
	PoolBusy         int64            `json:"pool_busy"`
}

// Snapshot assembles the coordinator-local Stats (no worker round
// trips; Fleet stays zero).
func (co *Coordinator) Snapshot() Stats {
	tr := co.obs.Trace()
	st := Stats{
		Redispatches: int64(co.metrics.redispatches.Value()),
		Backpressure: int64(co.metrics.backpressure.Value()),
		Trace: server.TraceStats{
			RingOverwrites:  tr.RingOverwrites(),
			SinkErrors:      tr.SinkErrors(),
			SubscriberDrops: tr.SubscriberDrops(),
		},
	}
	for _, w := range co.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Name:      w.name,
			URL:       w.base,
			Healthy:   w.isHealthy(),
			Forwards:  int64(co.metrics.forwards[w.name].Value()),
			Failovers: int64(co.metrics.failovers[w.name].Value()),
		})
	}
	co.mu.Lock()
	st.Submissions = len(co.order)
	co.mu.Unlock()
	return st
}

// SnapshotFleet is Snapshot plus a concurrent scrape of every worker's
// /statsz, attached per worker and rolled up into Fleet. Unreachable
// workers are skipped (their last-known health flag already says so).
func (co *Coordinator) SnapshotFleet(ctx context.Context) Stats {
	st := co.Snapshot()
	scraped := make([]*server.Stats, len(co.workers))
	var wg sync.WaitGroup
	for i, w := range co.workers {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if ws, err := w.client.Stats(sctx); err == nil {
				scraped[i] = ws
			}
		}()
	}
	wg.Wait()
	for i := range st.Workers {
		ws := scraped[i]
		if ws == nil {
			continue
		}
		st.Workers[i].Stats = ws
		ft := &st.Fleet
		ft.WorkersReachable++
		ft.Submitted += ws.Submitted
		ft.Rejected += ws.Rejected
		ft.Jobs.Queued += ws.Jobs.Queued
		ft.Jobs.Running += ws.Jobs.Running
		ft.Jobs.Completed += ws.Jobs.Completed
		ft.Jobs.Cancelled += ws.Jobs.Cancelled
		ft.Jobs.Failed += ws.Jobs.Failed
		ft.Jobs.Total += ws.Jobs.Total
		ft.CacheHits += ws.Cache.Hits
		ft.CacheMisses += ws.Cache.Misses
		ft.CacheEntries += ws.Cache.Entries
		ft.DedupJoins += ws.Dedup.Joins
		ft.PoolTotal += ws.Workers.Total
		ft.PoolBusy += ws.Workers.Busy
	}
	return st
}

func (co *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, co.SnapshotFleet(r.Context()))
}

// fleetError is a coordinator-detected failure with an HTTP status
// and an optional Retry-After hint.
type fleetError struct {
	code       int
	retryAfter int
	msg        string
}

func (e *fleetError) Error() string { return e.msg }

func writeFleetError(w http.ResponseWriter, err error) {
	var fe *fleetError
	if errors.As(err, &fe) {
		if fe.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(fe.retryAfter))
		}
		writeError(w, fe.code, fe.msg)
		return
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.StatusCode == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, ae.StatusCode, ae.Message)
		return
	}
	writeError(w, http.StatusBadGateway, err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, server.APIError{Error: msg})
}
