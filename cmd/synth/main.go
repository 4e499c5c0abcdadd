// Command synth synthesizes a single program from input/output
// examples using the stochastic search and restart strategies of the
// library.
//
// The problem comes from one of three sources:
//
//	-expr "andq(x, subq(x, 1))" -inputs 1   a reference expression
//	-spec file.txt                           an examples file
//	-problem hd03                            a built-in benchmark entry
//
// An examples file holds one case per line: the input values followed
// by the expected output, whitespace-separated, each decimal or 0x
// hex. Lines starting with # are comments.
//
// Example:
//
//	synth -expr "orq(andq(x, y), andq(notq(x), z))" -inputs 3 -strategy adaptive
//
// With -remote the problem is submitted to a running synthd daemon
// instead of being solved in-process:
//
//	synth -remote http://127.0.0.1:8731 -sl problem.sl
//
// Ctrl-C cancels cleanly in both modes (remotely, the job is
// cancelled on the server before exiting).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/mutate"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/restart"
	"stochsyn/internal/search"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
	"stochsyn/internal/sygus"
	"stochsyn/internal/sygusif"
	"stochsyn/internal/testcase"
	"stochsyn/internal/textplot"
)

func main() {
	var (
		expr     = flag.String("expr", "", "reference expression to synthesize an equivalent of")
		inputs   = flag.Int("inputs", 1, "number of inputs (with -expr)")
		cases    = flag.Int("cases", 100, "number of generated test cases (with -expr)")
		specFile = flag.String("spec", "", "examples file (inputs... output per line)")
		slFile   = flag.String("sl", "", "SyGuS-IF .sl file (PBE bitvector subset)")
		problem  = flag.String("problem", "", "built-in benchmark problem name (e.g. hd03)")
		minimize = flag.Bool("minimize", false, "after solving, keep searching for a smaller program with the remaining budget")
		lint     = flag.Bool("lint", false, "after solving, report static-analysis findings and the canonical form of the solution (to stderr)")
		costName = flag.String("cost", "hamming", "cost function: hamming, inctests, logdiff")
		beta     = flag.Float64("beta", 1, "acceptance temperature (normalized to 100 tests)")
		strategy = flag.String("strategy", "adaptive", "restart strategy spec (naive, luby, adaptive, pluby, fixed:N, exp:T0:Z, innerouter:T0:Z)")
		budget   = flag.Int64("budget", 10_000_000, "total iteration budget")
		dialect  = flag.String("dialect", "full", "instruction dialect: full, base, model")
		seed     = flag.Uint64("seed", 1, "random seed")
		remote   = flag.String("remote", "", "synthd base URL; submit the job to a server instead of solving locally")
		follow   = flag.Bool("follow", false, "with -remote: stream the job's live telemetry and render a cost sparkline to stderr while it runs")
		stats    = flag.Bool("stats", false, "print end-of-run telemetry (move acceptance rates, restarts, plateaus, cost sparkline) to stderr")
		traceTo  = flag.String("trace", "", "write trace events to this file as JSONL")
		verbose  = flag.Bool("v", false, "print progress and the solution's details")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *remote != "" {
		if *minimize {
			fmt.Fprintln(os.Stderr, "synth: -minimize is not supported with -remote")
			os.Exit(1)
		}
		if *stats || *traceTo != "" {
			fmt.Fprintln(os.Stderr, "synth: -stats and -trace are not supported with -remote (use the server's /metrics and /tracez)")
			os.Exit(1)
		}
		runRemote(ctx, *remote, *expr, *inputs, *cases, *specFile, *slFile, *problem,
			*costName, *beta, *strategy, *budget, *dialect, *seed, *verbose, *lint, *follow)
		return
	}
	if *follow {
		fmt.Fprintln(os.Stderr, "synth: -follow requires -remote (local runs report with -stats)")
		os.Exit(1)
	}

	suite, desc, err := loadProblem(*expr, *inputs, *cases, *specFile, *slFile, *problem, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
	kind, err := cost.ParseKind(*costName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
	set, redundancy, err := pickDialect(*dialect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
	strat, err := restart.New(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}

	if *verbose {
		fmt.Printf("problem: %s (%d inputs, %d cases)\n", desc, suite.NumInputs, suite.Len())
		fmt.Printf("strategy=%s cost=%s beta=%g dialect=%s budget=%d seed=%d\n",
			strat.Name(), kind, *beta, *dialect, *budget, *seed)
	}

	// Observability never changes the search: hooks batch off the hot
	// path and the instrumented run is bit-identical to a bare one, so
	// -stats/-trace are safe to attach to any reproduction run.
	var o *obs.Obs
	sopts := search.Options{
		Set: set, Cost: kind, Beta: *beta, Redundancy: redundancy, Seed: *seed, Ctx: ctx,
	}
	if *stats || *traceTo != "" {
		o = obs.New()
		if *traceTo != "" {
			f, err := os.Create(*traceTo)
			if err != nil {
				fmt.Fprintln(os.Stderr, "synth:", err)
				os.Exit(1)
			}
			defer f.Close()
			o.Tracer.SetSink(f)
		}
		sopts.Obs = search.NewObsHooks(o.Reg, o.Tracer)
		strat = restart.Instrument(strat, restart.NewObsHooks(o.Reg, o.Tracer, strat.Name()))
	}

	factory := search.NewFactory(suite, sopts)
	start := time.Now()
	res := strat.RunContext(ctx, factory, *budget)
	elapsed := time.Since(start)

	if *stats {
		printRunStats(os.Stderr, o, res, elapsed)
	}
	if res.Cancelled {
		fmt.Printf("cancelled after %d iterations (%d searches, %v)\n",
			res.Iterations, res.Searches, elapsed.Round(time.Millisecond))
		os.Exit(130)
	}
	if !res.Solved {
		fmt.Printf("FAILED after %d iterations (%d searches, %v)\n",
			res.Iterations, res.Searches, elapsed.Round(time.Millisecond))
		os.Exit(2)
	}
	sol := res.Winner.(*search.Run).Solution()
	if *verbose {
		rate := float64(res.Iterations) / elapsed.Seconds()
		fmt.Printf("solved in %d iterations (%d searches, %v, %.0f iters/sec)\n",
			res.Iterations, res.Searches, elapsed.Round(time.Millisecond), rate)
		fmt.Printf("program size: %d nodes\n", sol.BodyLen())
	}
	if *minimize {
		if remaining := *budget - res.Iterations; remaining > 0 {
			opt := search.New(suite, search.Options{
				Set: set, Cost: kind, Beta: *beta, Redundancy: redundancy,
				Seed: *seed ^ 0xabcdef, Init: sol, MinimizeSize: true,
			})
			opt.Step(remaining)
			if best := opt.Best(); best != nil && best.BodyLen() < sol.BodyLen() {
				if *verbose {
					fmt.Printf("minimized: %d -> %d nodes\n", sol.BodyLen(), best.BodyLen())
				}
				sol = best
			}
		}
	}
	fmt.Println(sol)
	if *lint {
		report := analysis.Run(sol)
		printLint(os.Stderr, report.Strings())
		printFacts(os.Stderr, absint.Describe(sol, absint.Analyze(sol, absint.InputFacts(suite), nil)))
		canon := analysis.Canonicalize(sol)
		fmt.Fprintf(os.Stderr, "canonical (%016x): %s\n", analysis.Hash(canon), canon)
	}
}

// printLint renders static-analysis findings, one per line, or a
// single "clean" line when there are none.
func printLint(w io.Writer, findings []string) {
	if len(findings) == 0 {
		fmt.Fprintln(w, "lint: clean")
		return
	}
	for _, f := range findings {
		fmt.Fprintln(w, "lint:", f)
	}
}

// printFacts renders the abstract-interpretation facts derived for the
// solution from the example inputs, one node per line; nothing is
// printed when no node has a nontrivial fact.
func printFacts(w io.Writer, facts []string) {
	for _, f := range facts {
		fmt.Fprintln(w, "fact:", f)
	}
}

// printRunStats renders the -stats report from the run's obs sink:
// totals and throughput, per-move acceptance rates (registry
// counters), plateau count, and the sampled cost trajectory as a
// sparkline (flush-granularity samples across all searches, in
// emission order).
func printRunStats(w io.Writer, o *obs.Obs, res restart.Result, elapsed time.Duration) {
	fmt.Fprintln(w, "-- run telemetry --")
	rate := float64(res.Iterations) / elapsed.Seconds()
	fmt.Fprintf(w, "iterations: %d in %v (%.0f iters/sec)\n",
		res.Iterations, elapsed.Round(time.Millisecond), rate)
	restarts := res.Searches
	note := ""
	if res.Exec != nil {
		restarts = res.Exec.SearchesLive
		note = fmt.Sprintf(" (%d speculative iterations on %d workers)",
			res.Exec.Speculated, res.Exec.Workers)
	}
	fmt.Fprintf(w, "restarts:   %d searches%s\n", restarts, note)
	fmt.Fprintf(w, "plateaus:   %.0f\n", o.Reg.Counter("stochsyn_search_plateaus_total").Value())
	fmt.Fprintf(w, "kernels:    %s\n", plan.KernelSet())

	// Incremental-evaluation reuse: how much column and case work the
	// engine skipped relative to full re-evaluation of every proposal.
	if nt := o.Reg.Counter("stochsyn_eval_nodes_total").Value(); nt > 0 {
		nr := o.Reg.Counter("stochsyn_eval_nodes_reevaluated_total").Value()
		ct := o.Reg.Counter("stochsyn_eval_cases_total").Value()
		ce := o.Reg.Counter("stochsyn_eval_cases_evaluated_total").Value()
		fmt.Fprintf(w, "eval reuse: %.1f%% of node columns reused, %.1f%% of cases skipped by early abort\n",
			100*(1-nr/nt), 100*(1-ce/ct))
	}

	// Plan compiler: how the compiled evaluation path got its plans.
	// Skipped entirely when the run never compiled one (reference
	// evaluation arms, or a search that solved before its first reset).
	if pc := o.Reg.Counter("stochsyn_plan_compiles_total").Value(); pc > 0 {
		ch := o.Reg.Counter("stochsyn_plan_cache_hits_total").Value()
		pp := o.Reg.Counter("stochsyn_plan_patches_total").Value()
		pf := o.Reg.Counter("stochsyn_plan_fused_nodes_total").Value()
		fmt.Fprintf(w, "plan:       %.0f compiles (%.1f%% recipe-cache hits), %.0f patched tape entries, %.0f constant-fused nodes\n",
			pc, 100*ch/(pc+ch), pp, pf)
	}

	rows := [][]string{{"move", "proposed", "accepted", "rate"}}
	for m := 0; m < mutate.NumMoves; m++ {
		name := mutate.Move(m).String()
		p := o.Reg.Counter("stochsyn_moves_proposed_total", "move", name).Value()
		a := o.Reg.Counter("stochsyn_moves_accepted_total", "move", name).Value()
		acc := "-"
		if p > 0 {
			acc = fmt.Sprintf("%.1f%%", 100*a/p)
		}
		rows = append(rows, []string{name,
			fmt.Sprintf("%.0f", p), fmt.Sprintf("%.0f", a), acc})
	}
	textplot.Table(w, rows)

	var costs []float64
	for _, ev := range o.Tracer.Events() {
		if ev.Name == "search_cost" {
			if c, ok := ev.Attrs["cost"].(float64); ok {
				costs = append(costs, c)
			}
		}
	}
	if len(costs) > 0 {
		fmt.Fprintf(w, "cost trajectory (%d samples): %s\n",
			len(costs), textplot.Spark(costs, 60))
	}
}

// loadProblem resolves the problem source flags into a suite.
func loadProblem(expr string, inputs, cases int, specFile, slFile, problem string, seed uint64) (*testcase.Suite, string, error) {
	sources := 0
	for _, s := range []string{expr, specFile, slFile, problem} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", fmt.Errorf("exactly one of -expr, -spec, -sl, -problem is required")
	}
	switch {
	case slFile != "":
		data, err := os.ReadFile(slFile)
		if err != nil {
			return nil, "", err
		}
		p, err := sygusif.Parse(string(data))
		if err != nil {
			return nil, "", err
		}
		return p.Suite, fmt.Sprintf("%s: synth-fun %s/%d", slFile, p.Name, len(p.Args)), nil
	case expr != "":
		ref, err := prog.Parse(expr, inputs)
		if err != nil {
			return nil, "", err
		}
		rng := rand.New(rand.NewPCG(seed, 0xbe5466cf34e90c6c))
		suite := testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, inputs, cases, rng)
		return suite, expr, nil
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, "", err
		}
		suite, err := parseSpec(string(data))
		if err != nil {
			return nil, "", err
		}
		return suite, specFile, nil
	default:
		for _, p := range sygus.Standard(sygus.Options{Seed: seed}) {
			if p.Name == problem {
				return p.Suite, p.Name + ": " + p.Desc, nil
			}
		}
		return nil, "", fmt.Errorf("unknown built-in problem %q (try hd01..hd20, bv01..bv15)", problem)
	}
}

// parseSpec parses the examples file format.
func parseSpec(src string) (*testcase.Suite, error) {
	suite := &testcase.Suite{NumInputs: -1}
	for lineno, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: need at least one input and an output", lineno+1)
		}
		vals := make([]uint64, len(fields))
		for i, f := range fields {
			v, err := parseWord(f)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineno+1, err)
			}
			vals[i] = v
		}
		n := len(vals) - 1
		if suite.NumInputs == -1 {
			suite.NumInputs = n
		} else if suite.NumInputs != n {
			return nil, fmt.Errorf("line %d: %d inputs, earlier lines had %d", lineno+1, n, suite.NumInputs)
		}
		suite.Cases = append(suite.Cases, testcase.Case{Inputs: vals[:n], Output: vals[n]})
	}
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	return suite, nil
}

func parseWord(s string) (uint64, error) {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if neg {
		v = -v
	}
	return v, err
}

// runRemote submits the problem to a synthd server and waits for the
// verdict. Expression problems are sent as expr specs (the server
// samples the cases, deterministically in -seed); .sl files are sent
// as raw SyGuS text; spec files and built-in problems are resolved
// locally and sent as explicit examples. On Ctrl-C the job is
// cancelled on the server before exiting.
func runRemote(ctx context.Context, baseURL, expr string, inputs, cases int, specFile, slFile, problem, costName string, beta float64, strategy string, budget int64, dialect string, seed uint64, verbose, lint, follow bool) {
	pspec, desc, err := remoteProblemSpec(expr, inputs, cases, specFile, slFile, problem, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
	spec := server.JobSpec{
		Problem: pspec,
		Options: server.OptionsSpec{
			Cost:     costName,
			Beta:     beta,
			Strategy: strategy,
			Budget:   budget,
			Dialect:  dialect,
			Seed:     seed,
		},
	}

	c := client.New(baseURL)
	v, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synth:", err)
		os.Exit(1)
	}
	if verbose {
		fmt.Printf("problem: %s\nsubmitted as job %s to %s (status %s)\n", desc, v.ID, baseURL, v.Status)
	}
	if !v.Status.Terminal() {
		if follow {
			// Best-effort: the live stream drives the progress display,
			// but the verdict below always comes from the final poll, so
			// a torn stream degrades the rendering, never the result.
			if ferr := followJob(ctx, c, v.ID); ferr != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "synth: follow stream:", ferr)
			}
			fmt.Fprintln(os.Stderr)
		}
		v, err = c.Wait(ctx, v.ID, 0)
		if ctx.Err() != nil {
			// Interrupted: cancel the job server-side with a fresh
			// context (ours is already dead), then report.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, cerr := c.Cancel(cctx, v.ID); cerr != nil {
				fmt.Fprintln(os.Stderr, "synth: interrupted; cancel failed:", cerr)
			} else {
				fmt.Fprintf(os.Stderr, "synth: interrupted; job %s cancelled on server\n", v.ID)
			}
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "synth:", err)
			os.Exit(1)
		}
	}

	switch v.Status {
	case server.StatusCompleted:
		r := v.Result
		if !r.Solved {
			fmt.Printf("FAILED after %d iterations (%d searches, %.0fms)\n",
				r.Iterations, r.Searches, r.DurationMS)
			os.Exit(2)
		}
		if verbose {
			note := ""
			if v.Cached {
				note = ", cached"
			}
			fmt.Printf("solved in %d iterations (%d searches, %.0fms, seed %d%s)\n",
				r.Iterations, r.Searches, r.DurationMS, r.Seed, note)
		}
		fmt.Println(r.Program)
		if lint {
			// The server audited the solution at completion time; its
			// findings, abstract facts, and canonical form ride along on
			// the result.
			printLint(os.Stderr, r.Lint)
			printFacts(os.Stderr, r.Facts)
			if r.Canonical != "" {
				fmt.Fprintf(os.Stderr, "canonical (%s): %s\n", r.CanonicalHash, r.Canonical)
			}
		}
	case server.StatusCancelled:
		fmt.Println("cancelled on server")
		os.Exit(130)
	case server.StatusFailed:
		fmt.Fprintln(os.Stderr, "synth: job failed:", v.Error)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "synth: unexpected job status:", v.Status)
		os.Exit(1)
	}
}

// followJob consumes the job's live telemetry stream (the server's
// /v1/jobs/{id}/events feed; through a fleet coordinator the same
// stream survives worker failover) and renders a one-line progress
// display on stderr: a sparkline of the cost samples so far, the
// current and best cost, and the iteration count. Redraws are
// throttled so a fast search does not flood the terminal. Returns when
// the terminal event arrives, the stream tears, or ctx ends.
func followJob(ctx context.Context, c *client.Client, id string) error {
	var costs []float64
	lastDraw := time.Now()
	draw := func(best, cur, iter float64, force bool) {
		if !force && time.Since(lastDraw) < 100*time.Millisecond {
			return
		}
		lastDraw = time.Now()
		fmt.Fprintf(os.Stderr, "\r%-60s cost %5.0f best %5.0f %12.0f iters",
			textplot.Spark(costs, 60), cur, best, iter)
	}
	var best, cur, iter float64
	return c.Events(ctx, id, 0, func(ev obs.Event) error {
		switch ev.Name {
		case "search_cost":
			cur, _ = ev.Attrs["cost"].(float64)
			if b, ok := ev.Attrs["best"].(float64); ok {
				best = b
			}
			if it, ok := ev.Attrs["iteration"].(float64); ok {
				iter = it
			}
			costs = append(costs, cur)
			draw(best, cur, iter, false)
		case "job_finished":
			draw(best, cur, iter, true)
			return client.StopStreaming
		}
		return nil
	})
}

// remoteProblemSpec maps the problem-source flags to a wire
// ProblemSpec plus a human description.
func remoteProblemSpec(expr string, inputs, cases int, specFile, slFile, problem string, seed uint64) (server.ProblemSpec, string, error) {
	sources := 0
	for _, s := range []string{expr, specFile, slFile, problem} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return server.ProblemSpec{}, "", fmt.Errorf("exactly one of -expr, -spec, -sl, -problem is required")
	}
	switch {
	case expr != "":
		// Let the server sample the cases; same generator, same seed,
		// same suite as a local run.
		return server.ProblemSpec{Expr: expr, Inputs: inputs, NumCases: cases, CaseSeed: seed}, expr, nil
	case slFile != "":
		data, err := os.ReadFile(slFile)
		if err != nil {
			return server.ProblemSpec{}, "", err
		}
		return server.ProblemSpec{Sygus: string(data)}, slFile, nil
	default:
		// Spec files and built-in problems resolve locally to explicit
		// examples.
		suite, desc, err := loadProblem("", 0, 0, specFile, "", problem, seed)
		if err != nil {
			return server.ProblemSpec{}, "", err
		}
		ps := server.ProblemSpec{Inputs: suite.NumInputs}
		for _, c := range suite.Cases {
			ps.Examples = append(ps.Examples, server.Example{Inputs: c.Inputs, Output: c.Output})
		}
		return ps, desc, nil
	}
}

func pickDialect(name string) (*prog.OpSet, bool, error) {
	switch name {
	case "full":
		return prog.FullSet, false, nil
	case "base":
		return prog.BaseSet, false, nil
	case "model":
		return prog.ModelSet, true, nil
	}
	return nil, false, fmt.Errorf("unknown dialect %q", name)
}
