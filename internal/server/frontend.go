package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
)

// Backend is what the front end serves the job API over: the local
// scheduler (*Server) or the fleet coordinator's forwarder
// (fleet.Coordinator). The backend keeps the job table; the front end
// owns the wire. A method given an id the backend does not know
// returns ErrNoSuchJob.
type Backend interface {
	// Submit registers a job for a decoded spec. parent is the
	// submitter's span context (the Traceparent header); the zero
	// value roots a new trace.
	Submit(ctx context.Context, spec JobSpec, parent obs.SpanContext) (JobView, error)
	// Job returns a job's current view.
	Job(ctx context.Context, id string) (JobView, error)
	// Cancel requests a job's cancellation and returns its view.
	Cancel(ctx context.Context, id string) (JobView, error)
	// Jobs returns every job's view, in submission order.
	Jobs(ctx context.Context) []JobView
	// Events returns the tracer behind a job's event stream.
	Events(id string) (*obs.Tracer, error)
	// Health and Stats return the /healthz and /statsz bodies.
	Health() any
	Stats(ctx context.Context) any
	// Metrics serves /metrics.
	Metrics() http.Handler
}

// Frontend returns the job API over be, the one implementation that
// synthd and the fleet coordinator both serve:
//
//	POST   /v1/jobs             submit a job (JobSpec body) → JobView
//	GET    /v1/jobs             list jobs (optional ?status= filter) → []JobView
//	GET    /v1/jobs/{id}        poll one job → JobView
//	GET    /v1/jobs/{id}/events live job telemetry as SSE (resumable via Last-Event-ID)
//	DELETE /v1/jobs/{id}        cancel a job → JobView
//	GET    /healthz             liveness probe
//	GET    /statsz              stats snapshot
//	GET    /metrics             Prometheus text exposition
//	GET    /tracez              recent trace events as JSONL (?n= caps, ?event= filters)
//	GET    /debug/pprof/        runtime profiles (net/http/pprof)
//
// Every error of the job API is an APIError body (see writeError). The
// /v1, /healthz, and /statsz routes are wrapped with per-route latency
// histograms and request counters (stochsyn_http_*) on o's registry;
// the telemetry routes themselves are left unwrapped so scraping does
// not feed back into the scraped series — that includes the SSE
// route, whose open-ended connection lifetime would poison the latency
// histogram.
func Frontend(be Backend, o *obs.Obs) http.Handler {
	o.Reg.SetHelp("stochsyn_http_requests_total", "HTTP requests by route pattern and status code.")
	o.Reg.SetHelp("stochsyn_http_request_seconds", "HTTP request latency by route pattern.")
	f := &frontend{be: be, reg: o.Reg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.instrument("/v1/jobs", f.submit))
	mux.HandleFunc("GET /v1/jobs", f.instrument("/v1/jobs", f.list))
	mux.HandleFunc("GET /v1/jobs/{id}", f.instrument("/v1/jobs/{id}", view(be.Job)))
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.instrument("/v1/jobs/{id}", view(be.Cancel)))
	mux.HandleFunc("GET /healthz", f.instrument("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, be.Health())
	}))
	mux.HandleFunc("GET /statsz", f.instrument("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, be.Stats(r.Context()))
	}))
	mux.Handle("GET /metrics", be.Metrics())
	mux.HandleFunc("GET /tracez", tracez(o.Tracer))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// frontend is one Frontend's state: the backend it serves and the
// registry its request metrics go to.
type frontend struct {
	be  Backend
	reg *obs.Registry
}

// MaxSpecBytes caps the body of a job submission (POST /v1/jobs). The
// largest spec a client in this repository sends, a 1000-case 3-input
// example set from cmd/perfbench's traced pbe-wide run, is about 91 KiB
// (93,112 bytes), so 4 MiB leaves room for specs some 45 times larger.
const MaxSpecBytes = 4 << 20

// decodeSpec decodes the JobSpec of a submission: one JSON object with
// no unknown fields and nothing but white space after it, read from at
// most MaxSpecBytes of the body. A body over the cap is a 413 naming
// the limit, a malformed one a 400.
func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
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
		return spec, &Error{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("job spec body exceeds the %d-byte limit", tooBig.Limit)}
	}
	return spec, &Error{http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err)}
}

func (f *frontend) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	// A traceparent-style header links the job's spans under the
	// submitter's trace (the fleet coordinator propagates its forward
	// span this way); absent or malformed, the job roots a new trace.
	parent, _ := obs.ParseTraceParent(r.Header.Get("Traceparent"))
	v, err := f.be.Submit(r.Context(), spec, parent)
	if err != nil {
		writeError(w, err)
		return
	}
	code := http.StatusAccepted
	if v.Status.Terminal() {
		code = http.StatusOK // served from a cache
	}
	writeJSON(w, code, v)
}

func (f *frontend) list(w http.ResponseWriter, r *http.Request) {
	filter := Status(r.URL.Query().Get("status"))
	if filter != "" && !filter.Known() {
		names := make([]string, len(statuses))
		for i, st := range statuses {
			names[i] = string(st)
		}
		writeError(w, &Error{http.StatusBadRequest, fmt.Sprintf(
			"unknown status %q (want one of %s)", filter, strings.Join(names, ", "))})
		return
	}
	views := f.be.Jobs(r.Context())
	if filter != "" {
		kept := views[:0]
		for _, v := range views {
			if v.Status == filter {
				kept = append(kept, v)
			}
		}
		views = kept
	}
	writeJSON(w, http.StatusOK, views)
}

// view serves the JobView that get (Backend.Job or Backend.Cancel)
// returns for the path's id.
func view(get func(context.Context, string) (JobView, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := get(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// events streams one job's telemetry as Server-Sent Events: a replay
// of the job's trace (after the Last-Event-ID sequence number, when
// the client resumes) followed by the live feed, ending with the
// terminal job_finished event. Slow consumers lose events rather than
// ever stalling the search (the tracer counts drops).
func (f *frontend) events(w http.ResponseWriter, r *http.Request) {
	t, err := f.be.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeError(w, &Error{http.StatusBadRequest, "events: malformed Last-Event-ID: want a sequence number"})
			return
		}
	}
	obs.ServeEventStream(w, r, t, after, "job_finished")
}

// tracez serves the events of t that the query selects (Tracer.Query)
// as JSONL; a malformed ?n= is a 400.
func tracez(t *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		events, err := t.Query(r.URL.Query())
		if err != nil {
			writeError(w, &Error{http.StatusBadRequest, err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range events {
			if enc.Encode(ev) != nil {
				return
			}
		}
	}
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route latency and request
// counting. The route label is the (static) mux pattern, never the
// raw URL, so series cardinality stays bounded.
func (f *frontend) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := f.reg.Histogram("stochsyn_http_request_seconds", nil, "route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		hist.Observe(time.Since(begin).Seconds())
		f.reg.Counter("stochsyn_http_requests_total",
			"route", route, "code", strconv.Itoa(sw.code)).Inc()
	}
}

// Error is a failure that carries its HTTP status: the front end
// answers it with Code and Msg.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// ErrNoSuchJob is a Backend's answer for an id it does not know.
var ErrNoSuchJob = &Error{http.StatusNotFound, "no such job"}

// APIError is the JSON body of every non-2xx response of the job API.
type APIError struct {
	Error string `json:"error"`
}

// writeError answers err as an APIError. The status is the one an
// *Error carries; spec and validation errors are the client's fault
// (400), and anything else is a 500. A 503 (a full queue, a draining
// server, a fleet without a free worker) tells the client to retry in
// a second.
func writeError(w http.ResponseWriter, err error) {
	var e *Error
	code := http.StatusInternalServerError
	switch {
	case errors.As(err, &e):
		code = e.Code
	case errors.Is(err, ErrBadSpec),
		errors.Is(err, stochsyn.ErrInvalidOptions),
		errors.Is(err, stochsyn.ErrInvalidProblem):
		code = http.StatusBadRequest
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, APIError{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
