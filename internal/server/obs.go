package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"stochsyn/internal/obs"
)

// This file holds the server's observability wiring: the metric
// bundle resolved against the obs registry at startup, the HTTP
// latency middleware, and the /metrics, /tracez, and /debug/pprof
// routes. The server always owns an obs sink — Config.Obs lets the
// embedding process (cmd/synthd) share it, e.g. to add a -trace file
// sink or extra series.

// serverMetrics bundles the handles the request and job paths touch,
// so those paths never hit the registry's name lookup.
type serverMetrics struct {
	submitted   *obs.Counter
	rejected    *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// canonicalHits counts the subset of cacheHits where the hit was
	// semantic: the cached entry was populated by a structurally
	// different (but canonically equal) submission.
	canonicalHits *obs.Counter
	// workerHits counts late cache hits at claim time — jobs that
	// missed at submit and hit when a worker picked them up. Kept out
	// of cacheHits so hits+misses equals submit-time lookups.
	workerHits *obs.Counter
	// eqsatHits counts hits served through the second-level rewrite-
	// equivalence index (EqSatCacheKey): the submitted reference
	// expression was rewrite-equivalent to a cached one and the cached
	// program re-verified against the new example set. A subset of
	// cacheHits (submit path) or workerHits (claim path).
	eqsatHits *obs.Counter
	// dedupJoins/dedupPromotions are the singleflight counters: joins
	// of an in-flight identical job, and follower re-dispatches after
	// a leader ended without a usable result.
	dedupJoins      *obs.Counter
	dedupPromotions *obs.Counter
	// analysisFindings accumulates the static-analysis findings
	// (lint/fold/liveness) reported on completed jobs' solutions.
	analysisFindings *obs.Counter
	queueWait        *obs.Histogram
	jobRun           *obs.Histogram
}

// initObs registers the server's series on the sink and resolves the
// hot handles. Called once from New, after the Server struct exists
// (the gauge closures read live server state at scrape time).
func (s *Server) initObs() {
	r := s.obs.Reg
	s.metrics = serverMetrics{
		submitted:        r.Counter("stochsyn_jobs_submitted_total"),
		rejected:         r.Counter("stochsyn_jobs_rejected_total"),
		cacheHits:        r.Counter("stochsyn_cache_hits_total"),
		cacheMisses:      r.Counter("stochsyn_cache_misses_total"),
		canonicalHits:    r.Counter("stochsyn_cache_canonical_hits_total"),
		workerHits:       r.Counter("stochsyn_cache_worker_hits_total"),
		eqsatHits:        r.Counter("stochsyn_eqsat_cache_hits_total"),
		dedupJoins:       r.Counter("stochsyn_singleflight_joins_total"),
		dedupPromotions:  r.Counter("stochsyn_singleflight_promotions_total"),
		analysisFindings: r.Counter("stochsyn_analysis_findings_total"),
		queueWait:        r.Histogram("stochsyn_job_queue_wait_seconds", nil),
		jobRun:           r.Histogram("stochsyn_job_run_seconds", nil),
	}
	r.SetHelp("stochsyn_jobs_submitted_total", "Jobs submitted (accepted or not).")
	r.SetHelp("stochsyn_jobs_rejected_total", "Jobs rejected: queue full or server draining.")
	r.SetHelp("stochsyn_cache_hits_total", "Result-cache hits at submit time; each submission's lookup is counted exactly once, as a hit or a miss.")
	r.SetHelp("stochsyn_cache_misses_total", "Result-cache misses at submit time.")
	r.SetHelp("stochsyn_cache_worker_hits_total", "Late cache hits at claim time (job missed at submit, hit when a worker picked it up); not part of the hit/miss lookup accounting.")
	r.SetHelp("stochsyn_singleflight_joins_total", "Submissions that joined an identical in-flight job instead of searching.")
	r.SetHelp("stochsyn_singleflight_promotions_total", "Singleflight followers re-dispatched after their leader ended cancelled or failed.")
	r.SetHelp("stochsyn_cache_canonical_hits_total", "Cache hits where the entry came from a structurally different, semantically equal submission.")
	r.SetHelp("stochsyn_eqsat_cache_hits_total", "Cache hits served through the rewrite-equivalence (e-class) index after re-verification against the submitted examples.")
	r.SetHelp("stochsyn_analysis_findings_total", "Static-analysis findings (fold/lint/liveness) on completed jobs' solutions.")
	r.SetHelp("stochsyn_job_queue_wait_seconds", "Time jobs spent queued before a worker claimed them.")
	r.SetHelp("stochsyn_job_run_seconds", "Wall-clock synthesis time of executed jobs.")

	r.GaugeFunc("stochsyn_singleflight_inflight", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.flights))
	})
	r.SetHelp("stochsyn_singleflight_inflight", "Currently open singleflight flights (distinct canonical keys in flight).")
	// Trace-event loss, split by reason. The source of truth is the
	// tracer's own atomic counters (shared across every per-job fork),
	// read at scrape time.
	tr := s.obs.Tracer
	r.CounterFunc("stochsyn_trace_dropped_total", func() float64 { return float64(tr.RingOverwrites()) }, "reason", "ring")
	r.CounterFunc("stochsyn_trace_dropped_total", func() float64 { return float64(tr.SinkErrors()) }, "reason", "sink")
	r.CounterFunc("stochsyn_trace_dropped_total", func() float64 { return float64(tr.SubscriberDrops()) }, "reason", "subscriber")
	r.SetHelp("stochsyn_trace_dropped_total", "Trace events lost, by reason: ring (overwritten before a drain), sink (write failure or backlog overflow), subscriber (SSE consumer too slow).")
	r.GaugeFunc("stochsyn_job_log_bytes", func() float64 { return float64(s.jobLogs().Bytes) })
	r.SetHelp("stochsyn_job_log_bytes", "Bytes of sealed event logs (compressed SSE frames) held for finished jobs.")
	r.GaugeFunc("stochsyn_queue_depth", func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("stochsyn_queue_capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	r.GaugeFunc("stochsyn_busy_workers", func() float64 { return float64(s.busyWorkers.Load()) })
	r.GaugeFunc("stochsyn_uptime_seconds", func() float64 { return time.Since(s.started).Seconds() })
	r.SetHelp("stochsyn_queue_depth", "Jobs currently waiting in the queue.")
	r.SetHelp("stochsyn_busy_workers", "Scheduler workers currently running a job.")
	r.SetHelp("stochsyn_uptime_seconds", "Seconds since the server started.")

	// One gauge per lifecycle state; the scrape walks the job table
	// once per state, which stays cheap at the server's job-count
	// scale and keeps the series set fixed.
	for _, st := range []Status{StatusQueued, StatusRunning, StatusCompleted, StatusCancelled, StatusFailed} {
		st := st
		r.GaugeFunc("stochsyn_jobs", func() float64 {
			return float64(s.jobCounts().by(st))
		}, "state", string(st))
	}
	r.SetHelp("stochsyn_jobs", "Registered jobs by lifecycle state.")
	r.SetHelp("stochsyn_http_requests_total", "HTTP requests by route pattern and status code.")
	r.SetHelp("stochsyn_http_request_seconds", "HTTP request latency by route pattern.")
}

// by returns the count for one state.
func (c JobCounts) by(st Status) int {
	switch st {
	case StatusQueued:
		return c.Queued
	case StatusRunning:
		return c.Running
	case StatusCompleted:
		return c.Completed
	case StatusCancelled:
		return c.Cancelled
	case StatusFailed:
		return c.Failed
	}
	return 0
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
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.obs.Reg.Histogram("stochsyn_http_request_seconds", nil, "route", route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		hist.Observe(time.Since(begin).Seconds())
		s.obs.Reg.Counter("stochsyn_http_requests_total",
			"route", route, "code", strconv.Itoa(sw.code)).Inc()
	}
}

// observability registers the telemetry endpoints on mux:
//
//	GET /metrics       Prometheus text exposition of the registry
//	GET /tracez        recent trace events as JSONL (?n= caps the count)
//	GET /debug/pprof/  the standard net/http/pprof handlers
func (s *Server) observability(mux *http.ServeMux) {
	mux.Handle("GET /metrics", s.obs.Reg.Handler())
	mux.Handle("GET /tracez", s.obs.Tracer.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
