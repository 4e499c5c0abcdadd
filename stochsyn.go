// Package stochsyn is a library for program synthesis from
// input/output examples via stochastic search, implementing the
// algorithms of "Adaptive Restarts for Stochastic Synthesis" (Koenig,
// Padon, Aiken; PLDI 2021).
//
// The search explores rooted dataflow graphs over 64-bit operations
// with a Metropolis-style acceptance rule controlled by a temperature
// Beta, guided by one of three cost functions (Hamming distance,
// incorrect test cases, or log difference). On top of the basic search
// the library provides the full family of restart strategies analyzed
// in the paper — including the adaptive restart algorithm, which runs
// searches in a Luby doubling tree and promotes low-cost searches
// toward the root — which speeds up synthesis by up to an order of
// magnitude on heavy-tailed problems.
//
// Basic use:
//
//	problem, _ := stochsyn.ProblemFromFunc(
//		func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, // spec
//		1, 100, 42)
//	res, _ := stochsyn.Synthesize(problem, stochsyn.Options{})
//	if res.Solved {
//		fmt.Println(res.Program) // e.g. "andq(x, subq(x, 1))"
//	}
package stochsyn

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/restart"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// Case is one input/output example.
type Case struct {
	Inputs []uint64
	Output uint64
}

// Problem is a synthesis problem: a set of input/output examples over
// a fixed number of inputs. Any program matching every example is a
// solution.
type Problem struct {
	suite *testcase.Suite
}

// NewProblem builds a problem from explicit examples. All cases must
// have exactly numInputs inputs, and numInputs must be at most
// MaxInputs. The problem keeps its own copy of the examples: changing
// cases afterwards does not change it.
func NewProblem(numInputs int, cases []Case) (*Problem, error) {
	if numInputs > MaxInputs {
		return nil, fmt.Errorf("stochsyn: %w: %d inputs exceeds the limit of %d", ErrInvalidProblem, numInputs, MaxInputs)
	}
	s := &testcase.Suite{NumInputs: numInputs, Cases: make([]testcase.Case, len(cases))}
	for i, c := range cases {
		s.Cases[i] = testcase.Case(c)
	}
	s.CopyInputs()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("stochsyn: %w: %v", ErrInvalidProblem, err)
	}
	return &Problem{suite: s}, nil
}

// ProblemFromFunc builds a problem by sampling numCases test inputs
// (corner cases, random words, and skewed Hamming weights) and
// computing outputs with the reference function. Generation is
// deterministic in seed.
func ProblemFromFunc(f func(inputs []uint64) uint64, numInputs, numCases int, seed uint64) (*Problem, error) {
	if numInputs > MaxInputs {
		return nil, fmt.Errorf("stochsyn: %w: %d inputs exceeds the limit of %d", ErrInvalidProblem, numInputs, MaxInputs)
	}
	if numCases <= 0 {
		return nil, fmt.Errorf("stochsyn: %w: numCases must be positive", ErrInvalidProblem)
	}
	rng := rand.New(rand.NewPCG(seed, 0x452821e638d01377))
	s := testcase.Generate(testcase.Func(f), numInputs, numCases, rng)
	return &Problem{suite: s}, nil
}

// NumInputs returns the problem's input arity.
func (p *Problem) NumInputs() int { return p.suite.NumInputs }

// NumCases returns the number of examples.
func (p *Problem) NumCases() int { return p.suite.Len() }

// Cases returns a copy of the problem's examples. The copied input
// vectors are capacity-limited rows of one backing array that the
// problem does not share.
func (p *Problem) Cases() []Case {
	w := p.suite.NumInputs
	rows := make([]uint64, len(p.suite.Cases)*w)
	out := make([]Case, len(p.suite.Cases))
	for i, c := range p.suite.Cases {
		in := rows[i*w : (i+1)*w : (i+1)*w]
		copy(in, c.Inputs)
		out[i] = Case{Inputs: in, Output: c.Output}
	}
	return out
}

// Limits of the program representation (Section 3 of the paper).
const (
	// MaxInputs is the maximum number of problem inputs.
	MaxInputs = prog.MaxInputs
	// MaxProgramSize is the maximum number of instructions and
	// constants in a synthesized program.
	MaxProgramSize = prog.MaxBody
)

// CostFunction selects the search's cost function.
type CostFunction string

// The three cost functions of the paper.
const (
	// Hamming counts incorrect bits across all test cases (default).
	Hamming CostFunction = "hamming"
	// IncorrectTests counts test cases with at least one wrong bit.
	IncorrectTests CostFunction = "inctests"
	// LogDiff charges 1 + log2 of the numeric difference per case.
	LogDiff CostFunction = "logdiff"
)

// Dialect selects the instruction set available to the search.
type Dialect string

// Available dialects.
const (
	// Full is the x86-flavoured 64-bit set with 32-bit variants
	// (default).
	Full Dialect = "full"
	// Base is the classic superoptimizer set (no 32-bit variants or
	// bit-scan operations).
	Base Dialect = "base"
	// Model is the reduced analysis set of Section 4 of the paper
	// (and, or, xor, not, 1-bit shifts, zero/ones constants); it also
	// enables the canonicalizing redundancy move.
	Model Dialect = "model"
)

// Options configures Synthesize. The zero value is a reasonable
// default: the adaptive restart strategy, Hamming cost, Beta 1, full
// dialect, and a 10M-iteration budget.
type Options struct {
	// Cost is the cost function (default Hamming).
	Cost CostFunction
	// Beta is the acceptance temperature, expressed relative to a
	// 100-test-case problem as in the paper (default 1). Larger
	// values accept more cost-increasing moves. Zero selects the
	// default; for pure greedy descent set Greedy instead (a zero
	// temperature cannot be expressed here because the zero Options
	// value must mean "defaults").
	Beta float64
	// Greedy selects greedy descent (temperature zero): only
	// cost-preserving or cost-decreasing moves are ever accepted.
	// Combining Greedy with a non-zero Beta is an error.
	Greedy bool
	// Strategy is a restart strategy spec: "adaptive" (default),
	// "luby", "naive", "pluby", "fixed:<n>", "exp:<t0>:<z>", or
	// "innerouter:<t0>:<z>"; "adaptive:<t0>" and "luby:<t0>" override
	// the base cutoff, and "adaptive:<t0>:<maxSearches>" (likewise
	// "pluby") caps the tree's searches. A spec never sets the tree's
	// worker count; Workers does.
	Strategy string
	// Budget is the total iteration budget across all restarts
	// (default 10,000,000).
	Budget int64
	// Dialect selects the instruction set (default Full).
	Dialect Dialect
	// Seed makes the synthesis deterministic (default 1).
	Seed uint64
	// Workers sets the number of worker goroutines used to execute
	// the doubling-tree strategies ("adaptive" and "pluby"), and is
	// the only setting that does: 0 or 1 runs sequentially, larger
	// values run the tree's steps on that many cores, each waiting
	// only on the tree nodes it touches. The concurrent executor
	// reproduces the sequential schedule bit for bit, so Results stay
	// deterministic in Seed regardless of Workers. Strategies that are
	// inherently sequential (naive, luby, fixed, exp, innerouter)
	// ignore this knob under Synthesize; see SynthesizeParallel for
	// the multi-core naive path.
	Workers int
	// Obs, when non-nil, attaches the observability sink (metrics
	// registry and event tracer, see internal/obs) to the run: the
	// search loop and the restart strategy publish stochsyn_* series
	// and structured trace events into it. Attaching Obs never changes
	// results — instrumentation is flushed in amortized batches off
	// the random stream — and it does not participate in option
	// normalization, validation, or result-cache keys.
	Obs *obs.Obs
}

// Result reports a synthesis outcome.
type Result struct {
	// Solved reports whether a program matching every example was
	// found within the budget.
	Solved bool
	// Program is the textual form of the solution (empty when not
	// solved); parse it back with ParseProgram.
	Program string
	// Iterations is the total number of search iterations consumed.
	Iterations int64
	// Searches is the number of independent searches the strategy ran.
	Searches int
	// Cancelled reports that the run was stopped early because the
	// context passed to SynthesizeContext was cancelled or its
	// deadline expired, before the problem was solved or the budget
	// exhausted. Iterations and Searches still account exactly for
	// the work performed up to that point.
	Cancelled bool
	// Seed is the resolved random seed the run actually used
	// (Options.Seed, with 0 mapped to the default of 1). Together
	// with the other Options fields it makes the run reproducible
	// from the Result alone.
	Seed uint64
	// Duration is the wall-clock time the synthesis call took.
	Duration time.Duration

	// Lint holds the static-analysis findings for the solution (see
	// internal/prog/analysis): foldable constant subexpressions,
	// algebraic identities and annihilators the search left in the
	// accepted program, and dead inputs. Empty when the program is
	// clean or the problem was not solved. The audit runs strictly
	// after the search finishes, so enabling it never changes which
	// program is found or how many iterations it takes.
	Lint []string
	// Canonical is the canonicalized equivalent of Program: constants
	// folded, identities simplified, duplicate subcomputations merged,
	// commutative arguments ordered, nodes renumbered. It matches
	// every example exactly like Program does (this is re-verified
	// against the problem before it is reported). Empty when not
	// solved.
	Canonical string
	// CanonicalHash is the 64-bit hash of the canonical form: a
	// semantic cache key under which structurally different but
	// equivalent programs collide. Zero when not solved.
	CanonicalHash uint64
	// Facts holds the non-trivial abstract-interpretation facts of the
	// solution's nodes (known bits and value ranges, computed under the
	// problem's example inputs), one rendered line per node. Like Lint
	// it is produced strictly after the search finishes. Empty when
	// nothing non-trivial is known or the problem was not solved.
	Facts []string
}

// normalize validates o and fills in defaults. Every validation
// failure wraps ErrInvalidOptions so callers can classify it with
// errors.Is (see Options.Validate).
func (o Options) normalize() (Options, error) {
	if o.Cost == "" {
		o.Cost = Hamming
	}
	if _, err := cost.ParseKind(string(o.Cost)); err != nil {
		return o, fmt.Errorf("stochsyn: %w: %v", ErrInvalidOptions, err)
	}
	if o.Beta < 0 {
		return o, fmt.Errorf("stochsyn: %w: negative beta %g", ErrInvalidOptions, o.Beta)
	}
	switch {
	case o.Greedy && o.Beta != 0:
		return o, fmt.Errorf("stochsyn: %w: Greedy and a non-zero Beta are mutually exclusive", ErrInvalidOptions)
	case o.Greedy:
		// Beta stays 0: the search layer treats a zero temperature as
		// greedy descent.
	case o.Beta == 0:
		o.Beta = 1
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("stochsyn: %w: negative workers %d", ErrInvalidOptions, o.Workers)
	}
	if o.Strategy == "" {
		o.Strategy = "adaptive"
	}
	if _, err := restart.New(o.Strategy); err != nil {
		return o, fmt.Errorf("stochsyn: %w: %v", ErrInvalidOptions, err)
	}
	if o.Budget == 0 {
		o.Budget = 10_000_000
	}
	if o.Budget < 0 {
		return o, fmt.Errorf("stochsyn: %w: negative budget %d", ErrInvalidOptions, o.Budget)
	}
	if o.Dialect == "" {
		o.Dialect = Full
	}
	if _, _, err := dialectSet(o.Dialect); err != nil {
		return o, fmt.Errorf("stochsyn: %w: %v", ErrInvalidOptions, err)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// Normalized returns o with every default filled in (the exact
// options a Synthesize call would run with), or an error wrapping
// ErrInvalidOptions. Services use the normalized form to build
// canonical cache keys: two specs that normalize identically run
// identically.
func (o Options) Normalized() (Options, error) { return o.normalize() }

// dialectSet resolves a Dialect to its OpSet and redundancy-move flag.
func dialectSet(d Dialect) (*prog.OpSet, bool, error) {
	switch d {
	case Full:
		return prog.FullSet, false, nil
	case Base:
		return prog.BaseSet, false, nil
	case Model:
		return prog.ModelSet, true, nil
	}
	return nil, false, fmt.Errorf("stochsyn: unknown dialect %q", d)
}

// Synthesize searches for a program matching every example of the
// problem, using the configured restart strategy under a global
// iteration budget. It is deterministic given Options.Seed.
func Synthesize(p *Problem, opts Options) (Result, error) {
	return SynthesizeContext(context.Background(), p, opts)
}

// SynthesizeContext is Synthesize under a context: cancelling ctx (or
// exceeding its deadline) stops the search promptly — including
// mid-restart, inside the doubling-tree executor, and across worker
// goroutines — and returns the partial Result with Cancelled set and
// exact iteration accounting. The error remains nil on cancellation;
// errors report invalid inputs only. With a context that never
// expires the Result is bit-identical to Synthesize's for the same
// Options.
func SynthesizeContext(ctx context.Context, p *Problem, opts Options) (Result, error) {
	return synthesize(ctx, p, opts, 0)
}

// synthesize is the one run path behind SynthesizeContext and
// SynthesizeParallelContext. workers 0 runs opts as given; a positive
// workers replaces opts.Workers and runs "naive" on the parallel pool.
func synthesize(ctx context.Context, p *Problem, opts Options, workers int) (Result, error) {
	o, err := opts.normalize()
	if err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if workers > 0 {
		o.Workers = workers
	}
	strat, err := o.strategy()
	if err != nil {
		return Result{}, err
	}
	if _, ok := strat.(restart.Naive); ok && workers > 0 {
		strat = &restart.ParallelNaive{Workers: workers}
	}
	sopts := o.searchOptions(ctx)
	if o.Obs != nil {
		sopts.Obs = search.NewObsHooks(o.Obs.Reg, o.Obs.Tracer)
		strat = restart.Instrument(strat,
			restart.NewObsHooks(o.Obs.Reg, o.Obs.Tracer, strat.Name()))
		o.Obs.Trace().Emit("search_start", map[string]any{
			"strategy": strat.Name(), "budget": o.Budget, "seed": o.Seed,
			"cost": string(o.Cost), "dialect": string(o.Dialect),
		})
	}
	factory := search.NewFactory(p.suite, sopts)
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := strat.RunContext(ctx, factory, o.Budget)
	if o.Obs != nil {
		o.Obs.Trace().Emit("search_stop", map[string]any{
			"strategy": strat.Name(), "solved": res.Solved,
			"iterations": res.Iterations, "searches": res.Searches,
			"cancelled": res.Cancelled, "seconds": time.Since(start).Seconds(),
		})
	}
	out := Result{
		Solved:     res.Solved,
		Iterations: res.Iterations,
		Searches:   res.Searches,
		Cancelled:  res.Cancelled,
		Seed:       o.Seed,
		Duration:   time.Since(start),
	}
	if res.Solved {
		if run, ok := res.Winner.(*search.Run); ok {
			sol := run.Solution()
			out.Program = sol.String()
			out.Lint, out.Facts, out.Canonical, out.CanonicalHash = auditSolution(sol, p.suite)
		}
	}
	return out, nil
}

// auditSolution runs the static-analysis passes over a solution and
// computes its canonical form and hash. It is called strictly after
// the search has finished, so it can never perturb a trajectory. The
// canonical form is defensively re-verified against the problem: if it
// ever failed to match (a rewrite-rule bug), the raw solution is
// reported as its own canonical form along with a finding, rather
// than surfacing a wrong program.
func auditSolution(sol *prog.Program, suite *testcase.Suite) (lint, facts []string, canonical string, hash uint64) {
	report := analysis.Run(sol)
	canon := analysis.Canonicalize(sol)
	var vals [prog.MaxNodes]uint64
	if !cost.Solves(canon, suite, vals[:]) {
		report.Add("canon", -1, "canonical form fails the test suite; reporting the raw program (rewrite-rule bug?)")
		canon = sol
	}
	if !report.Empty() {
		lint = report.Strings()
	}
	facts = absint.Describe(sol, absint.Analyze(sol, absint.InputFacts(suite), nil))
	return lint, facts, canon.String(), analysis.Hash(canon)
}

// searchOptions resolves the normalized options to the search
// layer's (normalize has validated the cost and dialect names). A
// context that is never cancelled is dropped, so the inner loop skips
// its polls entirely.
func (o Options) searchOptions(ctx context.Context) search.Options {
	kind, _ := cost.ParseKind(string(o.Cost))
	set, redundancy, _ := dialectSet(o.Dialect)
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return search.Options{Set: set, Cost: kind, Beta: o.Beta, Redundancy: redundancy, Seed: o.Seed, Ctx: ctx}
}

// strategy resolves the normalized options to a restart strategy,
// copying Workers to the doubling-tree strategies (the only ones with
// a deterministic concurrent executor).
func (o Options) strategy() (restart.Strategy, error) {
	strat, err := restart.New(o.Strategy)
	if tree, ok := strat.(*restart.Tree); ok {
		tree.Workers = o.Workers
	}
	return strat, err
}

// OptimizeResult reports a superoptimization outcome.
type OptimizeResult struct {
	// Program is the smallest correct program found (the starting
	// program when no improvement was found).
	Program string
	// Size and StartSize count instructions and constants of the best
	// and starting programs.
	Size, StartSize int
	// Improved reports whether a smaller equivalent was found.
	Improved bool
	// Iterations is the number of search iterations consumed.
	Iterations int64
	// Cancelled reports that the context was cancelled before the
	// budget was exhausted; Iterations then counts only the work
	// actually done, and Program is the best program found so far.
	Cancelled bool
	// Seed echoes the seed the run used (after normalization),
	// mirroring Result.Seed so optimization outcomes are reproducible
	// from their report alone.
	Seed uint64
	// Duration is the wall-clock time spent searching.
	Duration time.Duration
	// Lint, Facts, Canonical, and CanonicalHash audit Program as
	// Result's fields of the same names audit a solution.
	Lint          []string
	Facts         []string
	Canonical     string
	CanonicalHash uint64
}

// Optimize performs STOKE-style superoptimization: starting from a
// known-correct program (e.g. a Synthesize result or a translated
// machine-code fragment), it searches for a smaller program that still
// matches every example, using the same Metropolis search with a size
// term added to the cost. The start program must match the problem.
func Optimize(p *Problem, start string, opts Options) (OptimizeResult, error) {
	return OptimizeContext(context.Background(), p, start, opts)
}

// OptimizeContext is Optimize under a context: cancelling ctx (or
// exceeding its deadline) stops the search promptly mid-Step — the run
// polls the context every search.CancelCheckEvery iterations — and
// returns the best program found so far with Cancelled set and exact
// iteration accounting. The error remains nil on cancellation; errors
// report invalid inputs only. With a context that never expires the
// result is bit-identical to Optimize's for the same Options.
func OptimizeContext(ctx context.Context, p *Problem, start string, opts Options) (OptimizeResult, error) {
	o, err := opts.normalize()
	if err != nil {
		return OptimizeResult{}, err
	}
	if err := p.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	init, err := prog.Parse(start, p.suite.NumInputs)
	if err != nil {
		return OptimizeResult{}, fmt.Errorf("stochsyn: bad start program: %w", err)
	}
	var vals [prog.MaxNodes]uint64
	if !cost.Solves(init, p.suite, vals[:]) {
		return OptimizeResult{}, errors.New("stochsyn: start program does not match the problem")
	}
	sopts := o.searchOptions(ctx)
	sopts.Init, sopts.MinimizeSize = init, true
	run := search.New(p.suite, sopts)
	began := time.Now()
	used, _ := run.Step(o.Budget)
	best := run.Best()
	res := OptimizeResult{
		Program:    best.String(),
		Size:       best.BodyLen(),
		StartSize:  init.BodyLen(),
		Iterations: used,
		Cancelled:  sopts.Ctx != nil && sopts.Ctx.Err() != nil,
		Seed:       o.Seed,
		Duration:   time.Since(began),
	}
	res.Improved = res.Size < res.StartSize
	res.Lint, res.Facts, res.Canonical, res.CanonicalHash = auditSolution(best, p.suite)
	return res, nil
}

// Program is a parsed synthesized program, runnable on new inputs.
type Program struct {
	p *prog.Program
}

// ParseProgram parses the textual program notation (as produced in
// Result.Program), e.g. "orq(andq(x, y), andq(notq(x), z))" or the
// sharing form "a = notq(x); addq(a, a)".
func ParseProgram(src string, numInputs int) (*Program, error) {
	p, err := prog.Parse(src, numInputs)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Run evaluates the program on one input vector.
func (pr *Program) Run(inputs ...uint64) (uint64, error) {
	if len(inputs) != pr.p.NumInputs {
		return 0, fmt.Errorf("stochsyn: program takes %d inputs, got %d", pr.p.NumInputs, len(inputs))
	}
	return pr.p.Output(inputs), nil
}

// String returns the program's textual form.
func (pr *Program) String() string { return pr.p.String() }

// Size returns the number of instructions and constants.
func (pr *Program) Size() int { return pr.p.BodyLen() }

// Matches reports whether the program satisfies every example of the
// problem.
func (pr *Program) Matches(p *Problem) bool {
	if pr.p.NumInputs != p.suite.NumInputs {
		return false
	}
	var vals [prog.MaxNodes]uint64
	return cost.Solves(pr.p, p.suite, vals[:])
}
