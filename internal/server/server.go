package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog/plan"
)

// Config sizes the server. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of scheduler goroutines, i.e. the number
	// of jobs that run concurrently (default GOMAXPROCS).
	Workers int
	// WorkerBudget is the global budget of search goroutines across
	// all running jobs: a job asking for Options.Workers inner
	// workers (doubling-tree parallelism) is capped at
	// WorkerBudget/Workers, so full load never oversubscribes the
	// machine by more than the budget (default GOMAXPROCS).
	WorkerBudget int
	// QueueDepth bounds the number of jobs waiting to run; submits
	// beyond it are rejected with 503 (default 256).
	QueueDepth int
	// CacheSize is the LRU result cache capacity in entries; 0
	// selects the default (1024), negative disables caching.
	CacheSize int
	// DrainTimeout bounds Close's graceful drain (default 30s); see
	// Shutdown for the semantics.
	DrainTimeout time.Duration
	// Obs, when non-nil, is the observability sink (metrics registry +
	// event tracer) the server publishes into; nil creates a private
	// sink. Either way the Handler serves /metrics, /tracez, and
	// /debug/pprof, and every job run is instrumented.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the synthesis service: an HTTP handler (Handler) in front
// of a bounded job queue, a pool of scheduler workers, and an LRU
// result cache. Create one with New, serve Handler, and stop it with
// Shutdown or Close.
type Server struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	cache      *resultCache
	wg         sync.WaitGroup
	started    time.Time

	mu        sync.Mutex
	jobs      map[string]*job
	order     []*job
	flights   map[string]*flight // open singleflight entries by canonical key
	nextID    int
	accepting bool

	busyWorkers atomic.Int64
	busyNanos   atomic.Int64

	// obs is the observability sink (never nil after New); metrics
	// holds the pre-resolved handles the request and job paths use.
	// Counters that /statsz reports (submitted, rejected, cache
	// hits/misses) live in the registry rather than in duplicate
	// atomics; Snapshot reads them back.
	obs     *obs.Obs
	metrics serverMetrics
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheSize),
		started:    time.Now(),
		jobs:       make(map[string]*job),
		flights:    make(map[string]*flight),
		accepting:  true,
		obs:        cfg.Obs,
	}
	if s.obs == nil {
		s.obs = obs.New()
	}
	s.initObs()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Shutdown gracefully stops the server: it rejects new submissions,
// cancels jobs still waiting in the queue, and drains running jobs
// until they finish or ctx expires — at which point their contexts
// are cancelled and the drain completes promptly (cancellation is
// plumbed down to the search inner loops). It returns ctx.Err() when
// the deadline cut running jobs short, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.accepting {
		s.accepting = false
		close(s.queue)
	}
	pending := make([]*job, len(s.order))
	copy(pending, s.order)
	s.mu.Unlock()

	for _, j := range pending {
		j.mu.Lock()
		queued := j.status == StatusQueued
		j.mu.Unlock()
		if queued {
			j.requestCancel()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // cut running jobs loose; they observe it promptly
		<-done
		return ctx.Err()
	}
}

// Close is Shutdown bounded by Config.DrainTimeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// worker pulls jobs off the queue until the queue is closed and
// drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: claim, re-check the cache,
// synthesize under the job's context, finalize, and (for completed
// runs) populate the cache.
func (s *Server) runJob(j *job) {
	if !j.claim() {
		return // cancelled while queued
	}
	defer j.cancel() // release the context's resources
	s.busyWorkers.Add(1)
	begin := time.Now()
	wait := begin.Sub(j.created)
	s.metrics.queueWait.Observe(wait.Seconds())
	j.tracer.Emit("job_started", map[string]any{
		"id": j.id, "wait_seconds": wait.Seconds(),
	})
	defer func() {
		s.busyNanos.Add(int64(time.Since(begin)))
		s.busyWorkers.Add(-1)
	}()

	// A semantically identical job may have completed while this one
	// waited. This submission's lookup outcome was already counted (a
	// miss) at submit time, so this late hit goes to its own counter —
	// bumping cacheHits here would make hits+misses exceed lookups and
	// skew Stats.HitRate's denominator.
	if res, populated, ok := s.cache.get(j.key); ok {
		s.metrics.workerHits.Inc()
		j.tracer.Emit("cache_worker_hit", map[string]any{
			"key": j.key, "canonical": populated != j.structKey,
		})
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		j.finish(StatusCompleted, &res, "")
		return
	}
	// Claim-time level-2 recheck: a rewrite-equivalent expr job may
	// have completed while this one queued.
	if res, ok := s.lookupEqSat(j.eqKey, j.problem); ok {
		s.metrics.workerHits.Inc()
		s.metrics.eqsatHits.Inc()
		j.tracer.Emit("cache_worker_hit", map[string]any{
			"key": j.key, "eqsat": true,
		})
		s.cache.put(j.key, j.structKey, j.eqKey, res)
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		j.finish(StatusCompleted, &res, "")
		return
	}

	ctx := j.ctx
	if j.spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// Attach the observability sink to the run — the shared metrics
	// registry, but the job's own trace fork, so restart fires,
	// plateau transitions, and sampled costs stream per job on
	// /v1/jobs/{id}/events (and still reach the global ring via the
	// fork's forwarding). The sink is deliberately not part of the
	// cache key: it never changes results.
	opts := j.opts
	opts.Obs = &obs.Obs{Reg: s.obs.Reg, Tracer: j.tracer}
	res, err := stochsyn.SynthesizeContext(ctx, j.problem, opts)
	s.metrics.jobRun.Observe(time.Since(begin).Seconds())
	// The terminal job_finished event is emitted by finishWith, the
	// choke point every terminal transition passes through.
	switch {
	case err != nil:
		j.finish(StatusFailed, nil, err.Error())
	case res.Cancelled:
		j.finish(StatusCancelled, &res, "")
	default:
		s.cache.put(j.key, j.structKey, j.eqKey, res)
		s.metrics.analysisFindings.Add(float64(len(res.Lint)))
		j.finish(StatusCompleted, &res, "")
	}
}

// submit registers a new job for the spec, serving it from the cache
// when possible. It returns the job and whether it was accepted;
// rejections (queue full or server draining) are reported as an
// httpError. parent is the submitter's span context (from a
// traceparent header — the fleet coordinator's submit span); the zero
// value starts a fresh trace.
func (s *Server) submit(spec JobSpec, parent obs.SpanContext) (*job, error) {
	problem, opts, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// Cap per-job parallelism by the global worker budget. The cap
	// never changes results (the tree executor is bit-identical for
	// any worker count), so it does not participate in the cache key.
	if maxPerJob := s.cfg.WorkerBudget / s.cfg.Workers; opts.Workers > maxPerJob {
		opts.Workers = maxPerJob
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	structKey, err := CacheKey(problem, opts)
	if err != nil {
		return nil, err
	}
	// The cache is indexed by the semantic (canonical) key, so
	// structurally different but semantically equal submissions —
	// reordered or duplicated examples, differently spelled strategy
	// specs — hit the same entry.
	key, err := CanonicalCacheKey(problem, opts)
	if err != nil {
		return nil, err
	}
	// Expr-based submissions additionally get the second-level
	// rewrite-equivalence key; spec.Build already validated the expr,
	// so key construction cannot fail here.
	var eqKey string
	if spec.Problem.Expr != "" {
		if k, err := EqSatCacheKey(spec.Problem.Expr, spec.Problem.Inputs, opts); err == nil {
			eqKey = k
		}
	}
	s.metrics.submitted.Inc()

	if res, populated, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Inc()
		canonical := populated != structKey
		if canonical {
			s.metrics.canonicalHits.Inc()
			s.obs.Trace().Emit("cache_canonical_hit", map[string]any{"key": key})
		}
		s.obs.Trace().Emit("cache_hit", map[string]any{"key": key, "canonical": canonical})
		j := s.newJob(spec, problem, opts, key, structKey, eqKey, parent)
		s.finishFromCache(j, res)
		s.register(j)
		return j, nil
	}
	// Level-2: a rewrite-equivalent reference expression's cached
	// solution, re-verified against this submission's own example set
	// before it is served (the entry was populated against different
	// examples). A verified hit is promoted into this submission's
	// canonical slot so exact resubmissions hit level 1 directly. It is
	// consulted only when no identical job is in flight: a repeat of a
	// running job joins it below and gets its original's program, not
	// a rewrite-equivalent variant's.
	if !s.inFlight(key) {
		if res, ok := s.lookupEqSat(eqKey, problem); ok {
			s.metrics.cacheHits.Inc()
			s.metrics.eqsatHits.Inc()
			s.obs.Trace().Emit("cache_eqsat_hit", map[string]any{"key": key, "eqsat_key": eqKey})
			j := s.newJob(spec, problem, opts, key, structKey, eqKey, parent)
			s.finishFromCache(j, res)
			s.cache.put(key, structKey, eqKey, res)
			s.register(j)
			return j, nil
		}
	}
	s.metrics.cacheMisses.Inc()
	s.obs.Trace().Emit("cache_miss", map[string]any{"key": key})

	j := s.newJob(spec, problem, opts, key, structKey, eqKey, parent)
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	j.onTerminal = s.jobTerminal

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		j.cancel()
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	// An identical job may already be in flight: join it as a follower
	// instead of burning a second search (see singleflight.go).
	if s.joinOrLeadLocked(j) {
		s.registerLocked(j)
		leader := s.flights[key].leader
		s.mu.Unlock()
		s.metrics.dedupJoins.Inc()
		j.tracer.Emit("singleflight_join", map[string]any{
			"id": j.id, "leader": leader.id, "key": key,
		})
		return j, nil
	}
	select {
	case s.queue <- j:
		s.registerLocked(j)
		s.mu.Unlock()
		j.tracer.Emit("job_submitted", map[string]any{"id": j.id})
		return j, nil
	default:
		delete(s.flights, key)
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		j.cancel()
		return nil, &httpError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("job queue full (depth %d)", s.cfg.QueueDepth)}
	}
}

// JobTraceCap is the ring capacity of each job's trace fork: enough
// for a full-budget run's sampled cost trajectory plus its restart
// and plateau events, allocated lazily so cheap jobs stay cheap.
const JobTraceCap = 2048

func (s *Server) newJob(spec JobSpec, problem *stochsyn.Problem, opts stochsyn.Options, key, structKey, eqKey string, parent obs.SpanContext) *job {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	s.mu.Unlock()
	// The job's events live in its own span, parented under the
	// submitter's span (the fleet coordinator's forward) when a
	// traceparent was propagated; otherwise the job roots a new trace.
	sc := obs.SpanContext{TraceID: parent.TraceID, SpanID: obs.NewSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = obs.NewTraceID()
	}
	return &job{
		id:        id,
		spec:      spec,
		problem:   problem,
		opts:      opts,
		key:       key,
		structKey: structKey,
		eqKey:     eqKey,
		tracer:    s.obs.Trace().Fork(JobTraceCap, sc, parent.SpanID, map[string]any{"job": id}),
		status:    StatusQueued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
}

// finishFromCache marks a freshly created job as born-completed with a
// cached result. A cache-born job starts and finishes at birth: both
// stamps are set (to the same instant) so client-side duration math
// never sees a FinishedAt without a StartedAt.
func (s *Server) finishFromCache(j *job, res stochsyn.Result) {
	j.ctx, j.cancel = nil, func() {}
	j.cached = true
	j.status = StatusCompleted
	j.result = &res
	now := time.Now()
	j.started = now
	j.finished = now
	close(j.done)
	// Born-completed jobs never pass through finishWith, so the
	// terminal event for their SSE stream is emitted, and the log
	// sealed, here.
	j.emitFinished()
	j.sealLog()
}

// lookupEqSat performs the second-level cache lookup: the result most
// recently stored under the rewrite-equivalence key, served only if
// its program re-verifies against this submission's example set. An
// empty key, a miss, or a verification failure all report false.
func (s *Server) lookupEqSat(eqKey string, problem *stochsyn.Problem) (stochsyn.Result, bool) {
	res, ok := s.cache.getEq(eqKey)
	if !ok || !res.Solved {
		return stochsyn.Result{}, false
	}
	pr, err := stochsyn.ParseProgram(res.Program, problem.NumInputs())
	if err != nil || !pr.Matches(problem) {
		return stochsyn.Result{}, false
	}
	return res, true
}

func (s *Server) register(j *job) {
	s.mu.Lock()
	s.registerLocked(j)
	s.mu.Unlock()
}

func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j)
}

// lookup returns the job with the given id, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Stats is the /statsz snapshot. The counters are read back from the
// obs metrics registry (the single source of truth shared with
// /metrics); the original fields keep their JSON names so existing
// consumers are unaffected.
type Stats struct {
	UptimeMS int64 `json:"uptime_ms"`
	// UptimeSeconds mirrors the stochsyn_uptime_seconds gauge.
	UptimeSeconds float64   `json:"uptime_seconds"`
	QueueDepth    int       `json:"queue_depth"`
	QueueCapacity int       `json:"queue_capacity"`
	Submitted     int64     `json:"submitted"`
	Rejected      int64     `json:"rejected"`
	Jobs          JobCounts `json:"jobs"`
	// JobsByState is the Jobs breakdown keyed by state name, matching
	// the stochsyn_jobs{state=...} gauge series.
	JobsByState map[string]int `json:"jobs_by_state"`
	Cache       CacheStats     `json:"cache"`
	Dedup       DedupStats     `json:"dedup"`
	Workers     PoolStats      `json:"workers"`
	Trace       TraceStats     `json:"trace"`
	JobLogs     JobLogStats    `json:"job_logs"`
	// Kernels names the plan kernels this process's searches run
	// (plan.KernelSet: "avx512" or "scalar"), so a throughput figure can
	// be matched to the path that produced it.
	Kernels string `json:"kernels"`
}

// JobLogStats reports what finished jobs keep of their event streams:
// a terminal job's trace fork is sealed into compressed SSE frames
// (obs.Tracer.Seal), which GET /v1/jobs/{id}/events replays.
type JobLogStats struct {
	// Sealed is the number of jobs whose log is sealed.
	Sealed int `json:"sealed"`
	// Bytes is the total size of the sealed logs the server holds (the
	// stochsyn_job_log_bytes gauge); Bytes/Sealed is what one finished
	// job's stream costs.
	Bytes int64 `json:"bytes"`
}

// TraceStats reports trace-event loss, totaled across the global
// tracer and every per-job fork (the stochsyn_trace_dropped_total
// series, split by reason).
type TraceStats struct {
	// RingOverwrites counts events overwritten in a ring buffer; a
	// consumer that drained in time would have seen them.
	RingOverwrites uint64 `json:"ring_overwrites"`
	// SinkErrors counts events that failed to reach the -trace sink
	// (write errors or pending-buffer overflow behind a stalled sink).
	SinkErrors uint64 `json:"sink_errors"`
	// SubscriberDrops counts events a live subscriber (an SSE stream)
	// was too slow to take.
	SubscriberDrops uint64 `json:"subscriber_drops"`
}

// JobCounts breaks the registered jobs down by status.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
	Total     int `json:"total"`
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// CanonicalHits is the subset of Hits where the cached entry was
	// populated by a structurally different but semantically equal
	// submission (the cache is keyed by CanonicalCacheKey).
	CanonicalHits int64 `json:"canonical_hits"`
	// WorkerHits counts late hits at claim time: a job that missed at
	// submit but found its result cached when a worker picked it up.
	// These are deliberately excluded from Hits so that Hits+Misses
	// equals the number of submit-time lookups and HitRate's
	// denominator stays honest.
	WorkerHits int `json:"worker_hits"`
	// EqSatHits counts hits served through the second-level rewrite-
	// equivalence index: the submitted reference expression was
	// rewrite-equivalent to a cached one (EqSatCacheKey collision) and
	// the cached program re-verified against the submitted examples.
	// Submit-path eqsat hits are a subset of Hits; claim-path ones a
	// subset of WorkerHits.
	EqSatHits int64   `json:"eqsat_hits"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// DedupStats reports singleflight effectiveness: identical
// submissions that joined an in-flight search instead of running
// their own.
type DedupStats struct {
	// Joins is the number of submissions that became followers of an
	// already-in-flight identical job.
	Joins int64 `json:"joins"`
	// Promotions counts flights whose leader ended cancelled/failed
	// and a follower was re-dispatched in its place.
	Promotions int64 `json:"promotions"`
	// InFlight is the number of currently open flights.
	InFlight int `json:"in_flight"`
}

// PoolStats reports scheduler utilization.
type PoolStats struct {
	Total        int   `json:"total"`
	Busy         int64 `json:"busy"`
	WorkerBudget int   `json:"worker_budget"`
	// Utilization is the time-averaged busy fraction of the pool
	// since the server started, in [0, 1].
	Utilization float64 `json:"utilization"`
}

// jobCounts walks the job table and tallies states. Used by Snapshot
// and by the stochsyn_jobs{state=...} scrape-time gauges.
func (s *Server) jobCounts() JobCounts {
	var c JobCounts
	s.mu.Lock()
	for _, j := range s.order {
		j.mu.Lock()
		status := j.status
		j.mu.Unlock()
		switch status {
		case StatusQueued:
			c.Queued++
		case StatusRunning:
			c.Running++
		case StatusCompleted:
			c.Completed++
		case StatusCancelled:
			c.Cancelled++
		case StatusFailed:
			c.Failed++
		}
	}
	c.Total = len(s.order)
	s.mu.Unlock()
	return c
}

// jobLogs walks the job table and totals the sealed event logs. Used
// by Snapshot and by the stochsyn_job_log_bytes scrape-time gauge.
func (s *Server) jobLogs() JobLogStats {
	var st JobLogStats
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		if n := j.tracer.SealedBytes(); n > 0 {
			st.Sealed++
			st.Bytes += int64(n)
		}
	}
	return st
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	up := time.Since(s.started)
	st := Stats{
		UptimeMS:      up.Milliseconds(),
		UptimeSeconds: up.Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Submitted:     int64(s.metrics.submitted.Value()),
		Rejected:      int64(s.metrics.rejected.Value()),
		Kernels:       plan.KernelSet(),
	}
	st.Jobs = s.jobCounts()
	st.JobsByState = map[string]int{
		string(StatusQueued):    st.Jobs.Queued,
		string(StatusRunning):   st.Jobs.Running,
		string(StatusCompleted): st.Jobs.Completed,
		string(StatusCancelled): st.Jobs.Cancelled,
		string(StatusFailed):    st.Jobs.Failed,
	}

	st.Cache = CacheStats{
		Hits:          int64(s.metrics.cacheHits.Value()),
		Misses:        int64(s.metrics.cacheMisses.Value()),
		CanonicalHits: int64(s.metrics.canonicalHits.Value()),
		WorkerHits:    int(s.metrics.workerHits.Value()),
		EqSatHits:     int64(s.metrics.eqsatHits.Value()),
		Entries:       s.cache.len(),
		Capacity:      s.cfg.CacheSize,
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(lookups)
	}
	s.mu.Lock()
	inFlight := len(s.flights)
	s.mu.Unlock()
	st.Dedup = DedupStats{
		Joins:      int64(s.metrics.dedupJoins.Value()),
		Promotions: int64(s.metrics.dedupPromotions.Value()),
		InFlight:   inFlight,
	}
	st.Workers = PoolStats{
		Total:        s.cfg.Workers,
		Busy:         s.busyWorkers.Load(),
		WorkerBudget: s.cfg.WorkerBudget,
	}
	if up := time.Since(s.started); up > 0 {
		st.Workers.Utilization = float64(s.busyNanos.Load()) / (float64(up) * float64(s.cfg.Workers))
	}
	st.Trace = TraceStats{
		RingOverwrites:  s.obs.Trace().RingOverwrites(),
		SinkErrors:      s.obs.Trace().SinkErrors(),
		SubscriberDrops: s.obs.Trace().SubscriberDrops(),
	}
	st.JobLogs = s.jobLogs()
	return st
}

// httpError carries a status code chosen by the layer that detected
// the problem.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// statusNames renders the known lifecycle states for error messages.
func statusNames() string {
	names := make([]string, 0, 5)
	for _, st := range KnownStatuses() {
		names = append(names, string(st))
	}
	return strings.Join(names, ", ")
}

// ErrorStatus maps an error to its HTTP status: spec and validation
// errors are the client's fault (400), scheduling rejections carry
// their own code, everything else is a 500. Exported for the fleet
// coordinator, which validates specs with the same machinery before
// forwarding them.
func ErrorStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, ErrBadSpec),
		errors.Is(err, stochsyn.ErrInvalidOptions),
		errors.Is(err, stochsyn.ErrInvalidProblem):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs             submit a job (JobSpec body) → JobView
//	GET    /v1/jobs             list jobs (optional ?status= filter) → []JobView
//	GET    /v1/jobs/{id}        poll one job → JobView
//	GET    /v1/jobs/{id}/events live job telemetry as SSE (resumable via Last-Event-ID)
//	DELETE /v1/jobs/{id}        cancel a job → JobView
//	GET    /healthz             liveness probe
//	GET    /statsz              Stats snapshot
//	GET    /metrics             Prometheus text exposition
//	GET    /tracez              recent trace events as JSONL (?n= caps, ?event= filters)
//	GET    /debug/pprof/        runtime profiles (net/http/pprof)
//
// The /v1, /healthz, and /statsz routes are wrapped with per-route
// latency histograms and request counters (stochsyn_http_*); the
// telemetry routes themselves are left unwrapped so scraping does not
// feed back into the scraped series — that includes the SSE route,
// whose open-ended connection lifetime would poison the latency
// histogram.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleCancel))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /statsz", s.instrument("/statsz", s.handleStatsz))
	s.observability(mux)
	return mux
}

// MaxSpecBytes caps the body of a job submission (POST /v1/jobs) on
// synthd and on the fleet coordinator. The largest spec a client in
// this repository sends, a 1000-case 3-input example set from
// cmd/perfbench's traced pbe-wide run, is about 91 KiB (93,112 bytes),
// so 4 MiB leaves room for specs some 45 times larger.
const MaxSpecBytes = 4 << 20

// DecodeSpec decodes the JobSpec of a submission: one JSON object with
// no unknown fields and nothing but white space after it, read from at
// most MaxSpecBytes of the body. The returned error carries its HTTP
// status for ErrorStatus: 413, naming the limit, for a body over the
// cap, and 400 for a malformed one.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return spec, nil
		} else if err == nil {
			err = errors.New("data after the job spec")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return spec, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job spec body exceeds the %d-byte limit", tooBig.Limit)}
	}
	return spec, &httpError{http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err)}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(w, r)
	if err != nil {
		writeError(w, ErrorStatus(err), err.Error())
		return
	}
	// A traceparent-style header links the job's spans under the
	// submitter's trace (the fleet coordinator propagates its submit
	// span this way); absent or malformed, the job roots a new trace.
	parent, _ := obs.ParseTraceParent(r.Header.Get("Traceparent"))
	j, err := s.submit(spec, parent)
	if err != nil {
		writeError(w, ErrorStatus(err), err.Error())
		return
	}
	v := j.snapshot()
	code := http.StatusAccepted
	if v.Status.Terminal() {
		code = http.StatusOK // served from cache
	}
	writeJSON(w, code, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := Status(r.URL.Query().Get("status"))
	if filter != "" && !filter.Known() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"unknown status %q (want one of %s)", filter, statusNames()))
		return
	}
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := j.snapshot()
		if filter != "" && v.Status != filter {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleEvents streams one job's telemetry as Server-Sent Events:
// a replay of the job's trace ring (resumable — Last-Event-ID skips
// already-seen sequence numbers) followed by the live feed, ending
// with the terminal job_finished event. Slow consumers lose events
// rather than ever stalling the search (the tracer counts drops).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	obs.ServeEventStream(w, r, j.tracer, "job_finished")
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// APIError is the JSON body of every non-2xx response.
type APIError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, APIError{Error: msg})
}
