package server

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
)

// Status is a job's lifecycle state. Transitions:
//
//	queued → running → {completed, cancelled, failed}
//	queued → cancelled                    (cancelled before a worker picked it up)
//	         completed                    (cache hit: born completed)
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed" // ran to a verdict: solved or budget exhausted
	StatusCancelled Status = "cancelled" // DELETE /v1/jobs/{id}, job timeout, or server drain
	StatusFailed    Status = "failed"    // internal error while running
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusCompleted || s == StatusCancelled || s == StatusFailed
}

// statuses lists every lifecycle state, in transition order.
var statuses = []Status{StatusQueued, StatusRunning, StatusCompleted, StatusCancelled, StatusFailed}

// Known reports whether s is one of the lifecycle states.
func (s Status) Known() bool { return slices.Contains(statuses, s) }

// job is the server-side state of one submission. The mutable fields
// are guarded by mu; the identity fields (id, spec, problem, opts,
// key, ctx/cancel) are set once at submission and read-only after.
type job struct {
	id      string
	spec    JobSpec
	problem *stochsyn.Problem
	opts    stochsyn.Options // normalized, with Workers already capped
	// key is the semantic cache key (CanonicalCacheKey): the cache is
	// indexed by it, so structurally different but semantically equal
	// submissions share entries. structKey is the structural key
	// (CacheKey) of this exact submission; comparing it against the
	// structKey recorded in a cache entry tells an exact replay apart
	// from a canonical (semantics-only) hit.
	key       string
	structKey string
	// eqKey is the second-level rewrite-equivalence key
	// (EqSatCacheKey), set only for expr-based submissions; "" disables
	// the level-2 lookup and indexing for this job.
	eqKey  string
	ctx    context.Context
	cancel context.CancelFunc
	// tracer is the job-scoped trace fork (see obs.Tracer.Fork): every
	// lifecycle and search event for this job flows through it — into
	// the job's own ring (the GET /v1/jobs/{id}/events SSE stream) and
	// onward to the server's global tracer. Its span context carries
	// the job's trace id, propagated from the submitter's traceparent
	// header when one was sent. The fork is sealed (obs.Tracer.Seal)
	// just after the job is terminal (sealLog), so a finished job keeps
	// its stream as a few KB of compressed frames instead of the events
	// themselves.
	tracer *obs.Tracer
	// onTerminal, when set, is invoked exactly once, after the job
	// enters a terminal state (outside j.mu). The server uses it to
	// resolve the job's singleflight flight; it must not call back
	// into finish/adopt on this job.
	onTerminal func(*job)

	mu       sync.Mutex
	status   Status
	cached   bool
	deduped  bool
	errMsg   string
	result   *stochsyn.Result
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on entering a terminal state
}

// claim moves a queued job to running; it returns false if the job is
// no longer claimable (cancelled while queued).
func (j *job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state; it is a no-op if the job
// already is terminal. It reports whether this call performed the
// transition, and fires onTerminal (outside the lock) when it did.
func (j *job) finish(status Status, res *stochsyn.Result, errMsg string) bool {
	return j.finishWith(status, res, errMsg, false)
}

// adopt is finish for a singleflight follower taking over its
// leader's outcome: same transition, but the job is marked deduped so
// the wire view shows the result was shared, not searched for.
func (j *job) adopt(status Status, res *stochsyn.Result, errMsg string) bool {
	return j.finishWith(status, res, errMsg, true)
}

func (j *job) finishWith(status Status, res *stochsyn.Result, errMsg string, deduped bool) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.result = res
	j.errMsg = errMsg
	j.deduped = deduped
	j.finished = time.Now()
	// A follower adopting a result never ran; stamp started so its
	// view, like a cache-born job's, has a zero-length run rather
	// than a FinishedAt with no StartedAt.
	if deduped && j.started.IsZero() {
		j.started = j.finished
	}
	close(j.done)
	j.mu.Unlock()
	// The terminal trace event is emitted here — the single choke
	// point every terminal transition passes through — so SSE streams
	// always see exactly one job_finished, whatever path ended the job
	// (run, cache hit at claim time, cancel while queued, adoption).
	// Nothing follows job_finished on the job's fork, so its log can be
	// sealed: compressed SSE frames replace the events.
	j.emitFinished()
	j.sealLog()
	if j.onTerminal != nil {
		j.onTerminal(j)
	}
	return true
}

// emitFinished emits the job's terminal job_finished event on its
// tracer. On the failed path the result is absent; reporting
// solved/iterations there would fabricate telemetry for a run that
// never produced either.
func (j *job) emitFinished() {
	if j.tracer == nil {
		return
	}
	j.mu.Lock()
	attrs := map[string]any{"id": j.id, "status": string(j.status)}
	if j.cached {
		attrs["cached"] = true
	}
	if j.deduped {
		attrs["deduped"] = true
	}
	if j.errMsg != "" {
		attrs["error"] = j.errMsg
	} else if j.result != nil {
		attrs["solved"] = j.result.Solved
		attrs["iterations"] = j.result.Iterations
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		attrs["seconds"] = j.finished.Sub(j.started).Seconds()
	}
	j.mu.Unlock()
	j.tracer.Emit("job_finished", attrs)
}

// sealDelay is how long after a job finishes its event log is sealed.
// Sealing re-encodes and compresses the log, ~0.35 ms of CPU for a
// typical job. Done at once on the finishing goroutine, it would delay
// the job's own delivery whenever searches keep the CPUs busy: the SSE
// handler that writes job_finished and the client's next request wait
// until that goroutine gives up its CPU (synthd-mix's traced
// server.deliver_ms_p50 rose by the seal time). The timer moves the
// seal past the delivery.
const sealDelay = 20 * time.Millisecond

// sealLog seals the job's event log (obs.Tracer.Seal) sealDelay from
// now. Until then the stream replays from the ring, the same bytes.
func (j *job) sealLog() {
	time.AfterFunc(sealDelay, j.tracer.Seal)
}

// requestCancel cancels the job's context and, if the job has not
// started yet, finalizes it immediately (the scheduler will skip it).
func (j *job) requestCancel() {
	j.cancel()
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.finish(StatusCancelled, nil, "")
	}
}

// snapshot returns the job's wire view.
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Status:    j.status,
		Cached:    j.cached,
		Deduped:   j.deduped,
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		v.StartedAt = &j.started
	}
	if !j.finished.IsZero() {
		v.FinishedAt = &j.finished
	}
	if j.result != nil {
		v.Result = &ResultView{
			Solved:     j.result.Solved,
			Program:    j.result.Program,
			Iterations: j.result.Iterations,
			Searches:   j.result.Searches,
			Seed:       j.result.Seed,
			DurationMS: float64(j.result.Duration) / float64(time.Millisecond),
			Lint:       j.result.Lint,
			Facts:      j.result.Facts,
			Canonical:  j.result.Canonical,
		}
		if j.result.CanonicalHash != 0 {
			v.Result.CanonicalHash = fmt.Sprintf("%016x", j.result.CanonicalHash)
		}
	}
	return v
}

// JobView is the wire form of a job, returned by every /v1/jobs
// endpoint.
type JobView struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Cached marks a job whose result was served from the result
	// cache without running a search.
	Cached bool `json:"cached,omitempty"`
	// Deduped marks a singleflight follower: an identical submission
	// was already in flight, so this job adopted its outcome instead
	// of running a second search.
	Deduped bool `json:"deduped,omitempty"`
	// Worker names the worker shard a fleet coordinator dispatched
	// the job to (see internal/server/fleet). Single-node servers
	// leave it empty.
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
	// Result is set once the job completes (and for cancelled jobs
	// that got far enough to have partial counters).
	Result     *ResultView `json:"result,omitempty"`
	CreatedAt  time.Time   `json:"created_at"`
	StartedAt  *time.Time  `json:"started_at,omitempty"`
	FinishedAt *time.Time  `json:"finished_at,omitempty"`
}

// ResultView is the wire form of a stochsyn.Result. Together with the
// submitted spec it makes the run reproducible: re-running the same
// problem and options with Seed yields bit-identical counters and
// program.
type ResultView struct {
	Solved     bool    `json:"solved"`
	Program    string  `json:"program,omitempty"`
	Iterations int64   `json:"iterations"`
	Searches   int     `json:"searches"`
	Seed       uint64  `json:"seed"`
	DurationMS float64 `json:"duration_ms"`
	// Lint holds static-analysis findings for the solved program:
	// foldable constants, algebraic identities, dead inputs (see
	// internal/prog/analysis).
	Lint []string `json:"lint,omitempty"`
	// Facts holds the abstract-interpretation facts (known bits and
	// value intervals, per node) derived for the solved program from
	// the job's example inputs (see internal/prog/analysis/absint).
	Facts []string `json:"facts,omitempty"`
	// Canonical is the canonicalized equivalent of Program (folded,
	// simplified, deduplicated, renumbered).
	Canonical string `json:"canonical,omitempty"`
	// CanonicalHash is the 64-bit semantic hash of the canonical form,
	// as 16 hex digits (a string, so JSON consumers never round it
	// through a float64).
	CanonicalHash string `json:"canonical_hash,omitempty"`
}
