// Command synthd serves synthesis as a service: a JSON-over-HTTP API
// to submit stochastic-synthesis jobs, poll and cancel them, backed
// by a bounded job queue, a worker-pool scheduler, and an LRU result
// cache (see internal/server).
//
//	synthd -addr :8731 -workers 8
//
// With -fleet, synthd runs as a coordinator instead: it owns no
// scheduler of its own but shards submissions over the listed worker
// synthd instances by canonical cache key (rendezvous hashing), with
// health-checked failover, re-dispatch off dead workers, and
// backpressure propagation (see internal/server/fleet):
//
//	synthd -addr :8730 -fleet http://10.0.0.1:8731,http://10.0.0.2:8731
//
// Both topologies serve one HTTP front end, server.Frontend, whose doc
// lists the endpoints: the /v1 job API (submit, list, poll, event
// stream, cancel), /healthz, /statsz, /metrics, /tracez and
// /debug/pprof. synth -remote and the Go client work against either
// topology unchanged.
//
// -trace FILE additionally tees every trace event to FILE as JSONL as
// it happens (the /tracez ring only keeps the most recent events).
//
// On SIGINT/SIGTERM the daemon stops accepting jobs and drains
// running ones, cancelling whatever is still unfinished at the drain
// deadline. Use -addr 127.0.0.1:0 to bind an ephemeral port; the
// chosen address is printed on stdout as "synthd: listening on ...".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/server"
	"stochsyn/internal/server/fleet"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8731", "listen address (host:port; port 0 picks one)")
		workers = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		budget  = flag.Int("worker-budget", 0, "global budget of per-job search goroutines (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 256, "bounded job queue depth")
		cacheSz = flag.Int("cache", 1024, "result cache entries (negative disables)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
		traceTo = flag.String("trace", "", "tee trace events to this file as JSONL")
		fleetWk = flag.String("fleet", "", "comma-separated worker synthd URLs; run as a fleet coordinator instead of a worker")
		verbose = flag.Bool("v", false, "log requests")
	)
	flag.Parse()

	// The server owns its obs sink by default; building it here lets
	// the -trace flag attach a file sink before any event fires.
	o := obs.New()
	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(1)
		}
		defer f.Close()
		o.Tracer.SetSink(f)
	}

	// Coordinator mode: no local scheduler, just sharded forwarding.
	var srv *server.Server
	var co *fleet.Coordinator
	var apiHandler http.Handler
	if *fleetWk != "" {
		var urls []string
		for _, u := range strings.Split(*fleetWk, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		co, err = fleet.New(fleet.Config{Workers: urls, Obs: o})
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(1)
		}
		apiHandler = co.Handler()
	} else {
		srv = server.New(server.Config{
			Workers:      *workers,
			WorkerBudget: *budget,
			QueueDepth:   *queue,
			CacheSize:    *cacheSz,
			DrainTimeout: *drain,
			Obs:          o,
		})
		apiHandler = srv.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synthd:", err)
		os.Exit(1)
	}
	if co != nil {
		fmt.Printf("synthd: coordinating %d workers\n", len(co.Snapshot().Workers))
	}
	fmt.Printf("synthd: listening on %s\n", ln.Addr())

	handler := apiHandler
	if *verbose {
		handler = logRequests(handler)
	}
	hs := &http.Server{Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		fmt.Printf("synthd: %v: draining (deadline %v)\n", sig, *drain)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(1)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop taking requests, then drain the job scheduler (worker
	// mode) or stop the health prober (coordinator mode; its jobs
	// live on the workers and need no drain here).
	_ = hs.Shutdown(ctx)
	if co != nil {
		_ = co.Close()
		fmt.Println("synthd: coordinator stopped")
		return
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("synthd: drain deadline hit, cancelled remaining jobs (%v)\n", err)
		return
	}
	fmt.Println("synthd: drained cleanly")
}

// logRequests is a minimal request logger.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		fmt.Printf("synthd: %s %s (%v)\n", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
