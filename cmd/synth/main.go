// Command synth synthesizes a single program from input/output
// examples using the stochastic search and restart strategies of the
// library.
//
// The problem comes from one of four sources:
//
//	-expr "andq(x, subq(x, 1))" -inputs 1   a reference expression
//	-spec file.txt                           an examples file
//	-sl problem.sl                           a SyGuS-IF file (PBE bitvector subset)
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
// Both modes turn the flags into the same job spec (server.JobSpec):
// locally synth builds and runs it with stochsyn.SynthesizeContext,
// remotely synthd does, so a spec prints the same program either way.
// Ctrl-C cancels cleanly in both modes (remotely, the job is
// cancelled on the server before exiting).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stochsyn"
	"stochsyn/internal/mutate"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
	"stochsyn/internal/sygus"
	"stochsyn/internal/testcase"
	"stochsyn/internal/textplot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, solves the job locally or on a
// synthd, prints the program (and the -v details) to stdout and
// everything else to stderr, and returns the exit status: 0 solved, 1
// an error, 2 unsolved within the budget or a bad flag, 130 cancelled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expr     = fs.String("expr", "", "reference expression to synthesize an equivalent of")
		inputs   = fs.Int("inputs", 1, "number of inputs (with -expr)")
		cases    = fs.Int("cases", 100, "number of generated test cases (with -expr)")
		specFile = fs.String("spec", "", "examples file (inputs... output per line)")
		slFile   = fs.String("sl", "", "SyGuS-IF .sl file (PBE bitvector subset)")
		problem  = fs.String("problem", "", "built-in benchmark problem name (e.g. hd03)")
		minimize = fs.Bool("minimize", false, "after solving, keep searching for a smaller program with the remaining budget")
		lint     = fs.Bool("lint", false, "after solving, report static-analysis findings and the canonical form of the solution (to stderr)")
		costName = fs.String("cost", "hamming", "cost function: hamming, inctests, logdiff")
		beta     = fs.Float64("beta", 1, "acceptance temperature (normalized to 100 tests)")
		strategy = fs.String("strategy", "adaptive", "restart strategy spec (naive, luby, adaptive, pluby, fixed:N, exp:T0:Z, innerouter:T0:Z)")
		budget   = fs.Int64("budget", 10_000_000, "total iteration budget")
		dialect  = fs.String("dialect", "full", "instruction dialect: full, base, model")
		seed     = fs.Uint64("seed", 1, "random seed")
		remote   = fs.String("remote", "", "synthd base URL; submit the job to a server instead of solving locally")
		follow   = fs.Bool("follow", false, "with -remote: stream the job's live telemetry and render a cost sparkline to stderr while it runs")
		stats    = fs.Bool("stats", false, "print end-of-run telemetry (move acceptance rates, restarts, plateaus, cost sparkline) to stderr")
		traceTo  = fs.String("trace", "", "write trace events to this file as JSONL")
		verbose  = fs.Bool("v", false, "print progress and the solution's details")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c := &cli{stdout: stdout, stderr: stderr, verbose: *verbose, lint: *lint}
	switch {
	case *remote != "" && *minimize:
		return c.fail(errors.New("-minimize is not supported with -remote"))
	case *remote != "" && (*stats || *traceTo != ""):
		return c.fail(errors.New("-stats and -trace are not supported with -remote (use the server's /metrics and /tracez)"))
	case *remote == "" && *follow:
		return c.fail(errors.New("-follow requires -remote (local runs report with -stats)"))
	}
	pspec, desc, err := loadProblem(*expr, *inputs, *cases, *specFile, *slFile, *problem, *seed)
	if err != nil {
		return c.fail(err)
	}
	spec := server.JobSpec{Problem: pspec, Options: server.OptionsSpec{
		Cost:     *costName,
		Beta:     *beta,
		Strategy: *strategy,
		Budget:   *budget,
		Dialect:  *dialect,
		Seed:     *seed,
	}}
	if *remote != "" {
		return c.remote(ctx, *remote, spec, desc, *follow)
	}
	return c.local(ctx, spec, desc, *minimize, *stats, *traceTo)
}

// cli holds the output streams and the reporting flags both modes
// share.
type cli struct {
	stdout, stderr io.Writer
	verbose, lint  bool
}

func (c *cli) fail(err error) int {
	fmt.Fprintln(c.stderr, "synth:", err)
	return 1
}

// local builds the job spec and runs it in-process.
func (c *cli) local(ctx context.Context, spec server.JobSpec, desc string, minimize, stats bool, traceTo string) int {
	p, opts, err := spec.Build()
	if err != nil {
		return c.fail(err)
	}
	if c.verbose {
		fmt.Fprintf(c.stdout, "problem: %s (%d inputs, %d cases)\n", desc, p.NumInputs(), p.NumCases())
		fmt.Fprintf(c.stdout, "strategy=%s cost=%s beta=%g dialect=%s budget=%d seed=%d\n",
			opts.Strategy, opts.Cost, opts.Beta, opts.Dialect, opts.Budget, opts.Seed)
	}
	// Observability never changes the search: hooks batch off the hot
	// path and the instrumented run is bit-identical to a bare one, so
	// -stats/-trace are safe to attach to any reproduction run.
	if stats || traceTo != "" {
		opts.Obs = obs.New()
		if traceTo != "" {
			f, err := os.Create(traceTo)
			if err != nil {
				return c.fail(err)
			}
			defer f.Close()
			opts.Obs.Tracer.SetSink(f)
		}
	}
	res, err := stochsyn.SynthesizeContext(ctx, p, opts)
	if err != nil {
		return c.fail(err)
	}
	if stats {
		printRunStats(c.stderr, opts.Obs, res)
	}
	took := res.Duration.Round(time.Millisecond)
	switch {
	case res.Cancelled:
		fmt.Fprintf(c.stdout, "cancelled after %d iterations (%d searches, %v)\n", res.Iterations, res.Searches, took)
		return 130
	case !res.Solved:
		fmt.Fprintf(c.stdout, "FAILED after %d iterations (%d searches, %v)\n", res.Iterations, res.Searches, took)
		return 2
	}
	program, lint, facts, canonical, hash := res.Program, res.Lint, res.Facts, res.Canonical, res.CanonicalHash
	if c.verbose {
		rate := float64(res.Iterations) / res.Duration.Seconds()
		fmt.Fprintf(c.stdout, "solved in %d iterations (%d searches, %v, %.0f iters/sec)\n",
			res.Iterations, res.Searches, took, rate)
		if sol, err := stochsyn.ParseProgram(program, p.NumInputs()); err == nil {
			fmt.Fprintf(c.stdout, "program size: %d nodes\n", sol.Size())
		}
	}
	if remaining := opts.Budget - res.Iterations; minimize && remaining > 0 {
		mopts := opts
		mopts.Budget, mopts.Seed = remaining, opts.Seed^0xabcdef
		m, err := stochsyn.OptimizeContext(ctx, p, program, mopts)
		if err != nil {
			return c.fail(err)
		}
		if m.Improved {
			if c.verbose {
				fmt.Fprintf(c.stdout, "minimized: %d -> %d nodes\n", m.StartSize, m.Size)
			}
			program, lint, facts, canonical, hash = m.Program, m.Lint, m.Facts, m.Canonical, m.CanonicalHash
		}
	}
	fmt.Fprintln(c.stdout, program)
	if c.lint {
		printAudit(c.stderr, lint, facts, canonical, fmt.Sprintf("%016x", hash))
	}
	return 0
}

// printAudit renders a solution's audit, as a stochsyn.Result or a
// job's result carries it: the static-analysis findings (or a single
// "clean" line), the abstract facts derived from the example inputs,
// one node per line, and the canonical form with its hash.
func printAudit(w io.Writer, lint, facts []string, canonical, hash string) {
	if len(lint) == 0 {
		fmt.Fprintln(w, "lint: clean")
	}
	for _, f := range lint {
		fmt.Fprintln(w, "lint:", f)
	}
	for _, f := range facts {
		fmt.Fprintln(w, "fact:", f)
	}
	if canonical != "" {
		fmt.Fprintf(w, "canonical (%s): %s\n", hash, canonical)
	}
}

// printRunStats renders the -stats report from the run's obs sink:
// totals and throughput, per-move acceptance rates (registry
// counters), plateau count, and the sampled cost trajectory as a
// sparkline (flush-granularity samples across all searches, in
// emission order).
func printRunStats(w io.Writer, o *obs.Obs, res stochsyn.Result) {
	fmt.Fprintln(w, "-- run telemetry --")
	rate := float64(res.Iterations) / res.Duration.Seconds()
	fmt.Fprintf(w, "iterations: %d in %v (%.0f iters/sec)\n",
		res.Iterations, res.Duration.Round(time.Millisecond), rate)
	fmt.Fprintf(w, "restarts:   %d searches\n", res.Searches)
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

// loadProblem maps the problem-source flags to a job's ProblemSpec
// plus a human description. An expression or a SyGuS file goes into
// the spec as text, so the same code samples or parses it wherever
// the job runs; examples files and built-in problems resolve here to
// explicit examples.
func loadProblem(expr string, inputs, cases int, specFile, slFile, problem string, seed uint64) (server.ProblemSpec, string, error) {
	sources := 0
	for _, s := range []string{expr, specFile, slFile, problem} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return server.ProblemSpec{}, "", fmt.Errorf("exactly one of -expr, -spec, -sl, -problem is required")
	}
	var suite *testcase.Suite
	var desc string
	switch {
	case expr != "":
		return server.ProblemSpec{Expr: expr, Inputs: inputs, NumCases: cases, CaseSeed: seed}, expr, nil
	case slFile != "":
		data, err := os.ReadFile(slFile)
		if err != nil {
			return server.ProblemSpec{}, "", err
		}
		return server.ProblemSpec{Sygus: string(data)}, slFile, nil
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return server.ProblemSpec{}, "", err
		}
		if suite, err = parseSpec(string(data)); err != nil {
			return server.ProblemSpec{}, "", err
		}
		desc = specFile
	default:
		for _, p := range sygus.Standard(sygus.Options{Seed: seed}) {
			if p.Name == problem {
				suite, desc = p.Suite, p.Name+": "+p.Desc
			}
		}
		if suite == nil {
			return server.ProblemSpec{}, "", fmt.Errorf("unknown built-in problem %q (try hd01..hd20, bv01..bv15)", problem)
		}
	}
	ps := server.ProblemSpec{Inputs: suite.NumInputs}
	for _, c := range suite.Cases {
		ps.Examples = append(ps.Examples, server.Example{Inputs: c.Inputs, Output: c.Output})
	}
	return ps, desc, nil
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

// remote submits the job spec to a synthd server and waits for the
// verdict. On Ctrl-C the job is cancelled on the server before
// exiting.
func (c *cli) remote(ctx context.Context, baseURL string, spec server.JobSpec, desc string, follow bool) int {
	cl := client.New(baseURL)
	v, err := cl.Submit(ctx, spec)
	if err != nil {
		return c.fail(err)
	}
	if c.verbose {
		fmt.Fprintf(c.stdout, "problem: %s\nsubmitted as job %s to %s (status %s)\n", desc, v.ID, baseURL, v.Status)
	}
	if !v.Status.Terminal() {
		if follow {
			// Best-effort: the live stream drives the progress display,
			// but the verdict below always comes from the final poll, so
			// a torn stream degrades the rendering, never the result.
			if ferr := followJob(ctx, c.stderr, cl, v.ID); ferr != nil && ctx.Err() == nil {
				fmt.Fprintln(c.stderr, "synth: follow stream:", ferr)
			}
			fmt.Fprintln(c.stderr)
		}
		id := v.ID
		v, err = cl.Wait(ctx, id, 0)
		if ctx.Err() != nil {
			// Interrupted: cancel the job server-side with a fresh
			// context (ours is already dead), then report. v is nil
			// when the interrupt cut a poll short.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, cerr := cl.Cancel(cctx, id); cerr != nil {
				fmt.Fprintln(c.stderr, "synth: interrupted; cancel failed:", cerr)
			} else {
				fmt.Fprintf(c.stderr, "synth: interrupted; job %s cancelled on server\n", id)
			}
			return 130
		}
		if err != nil {
			return c.fail(err)
		}
	}

	switch v.Status {
	case server.StatusCompleted:
		r := v.Result
		if !r.Solved {
			fmt.Fprintf(c.stdout, "FAILED after %d iterations (%d searches, %.0fms)\n",
				r.Iterations, r.Searches, r.DurationMS)
			return 2
		}
		if c.verbose {
			note := ""
			if v.Cached {
				note = ", cached"
			}
			fmt.Fprintf(c.stdout, "solved in %d iterations (%d searches, %.0fms, seed %d%s)\n",
				r.Iterations, r.Searches, r.DurationMS, r.Seed, note)
		}
		fmt.Fprintln(c.stdout, r.Program)
		if c.lint {
			printAudit(c.stderr, r.Lint, r.Facts, r.Canonical, r.CanonicalHash)
		}
		return 0
	case server.StatusCancelled:
		fmt.Fprintln(c.stdout, "cancelled on server")
		return 130
	case server.StatusFailed:
		return c.fail(fmt.Errorf("job failed: %s", v.Error))
	}
	return c.fail(fmt.Errorf("unexpected job status: %s", v.Status))
}

// followJob consumes the job's live telemetry stream (the server's
// /v1/jobs/{id}/events feed; through a fleet coordinator the same
// stream survives worker failover) and renders a one-line progress
// display on w: a sparkline of the cost samples so far, the
// current and best cost, and the iteration count. Redraws are
// throttled so a fast search does not flood the terminal. Returns when
// the terminal event arrives, the stream tears, or ctx ends.
func followJob(ctx context.Context, w io.Writer, c *client.Client, id string) error {
	var costs []float64
	lastDraw := time.Now()
	draw := func(best, cur, iter float64, force bool) {
		if !force && time.Since(lastDraw) < 100*time.Millisecond {
			return
		}
		lastDraw = time.Now()
		fmt.Fprintf(w, "\r%-60s cost %5.0f best %5.0f %12.0f iters",
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
