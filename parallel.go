package stochsyn

import (
	"context"
	"runtime"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/restart"
	"stochsyn/internal/search"
)

// SynthesizeParallel runs the configured restart strategy on multiple
// cores with a shared iteration budget: the total iterations across
// all workers never exceed Options.Budget, so results remain
// comparable with Synthesize in the paper's iteration-count terms
// while using the hardware for wall-clock speed. workers <= 0 uses
// GOMAXPROCS; Options.Workers is overridden by the explicit argument.
//
// How the strategy is parallelized depends on what it is:
//
//   - The doubling-tree strategies ("adaptive", the default, and
//     "pluby") run on the concurrent tree executor, which runs the
//     tree's steps on a fixed worker pool, each waiting only on the
//     tree nodes it touches, while reproducing the sequential
//     schedule bit for bit — the Result (Solved, Iterations,
//     Searches, Program) is identical to Synthesize's for the same
//     Options.
//   - "naive" fans out independent searches that draw iteration
//     grants from a shared budget pool; which search wins may depend
//     on goroutine scheduling, and Searches reports how many actually
//     consumed budget.
//   - The sequential cutoff strategies ("luby", "fixed", "exp",
//     "innerouter") have no parallel form — each restart depends on
//     the previous one finishing — and run on one goroutine exactly
//     as under Synthesize.
func SynthesizeParallel(p *Problem, opts Options, workers int) (Result, error) {
	return SynthesizeParallelContext(context.Background(), p, opts, workers)
}

// SynthesizeParallelContext is SynthesizeParallel under a context:
// cancelling ctx stops every worker promptly and returns the partial
// Result with Cancelled set and exact iteration accounting. See
// SynthesizeContext for the cancellation semantics.
func SynthesizeParallelContext(ctx context.Context, p *Problem, opts Options, workers int) (Result, error) {
	o, err := opts.normalize()
	if err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	kind, err := cost.ParseKind(string(o.Cost))
	if err != nil {
		return Result{}, err
	}
	set, redundancy, err := dialectSet(o.Dialect)
	if err != nil {
		return Result{}, err
	}
	if o.EqSat {
		// EqSat runs are sequential by contract (the shared memo's
		// sampling order must not depend on worker interleaving), so
		// the parallel entry point degrades to the sequential one.
		return SynthesizeContext(ctx, p, opts)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 64 {
		workers = 64
	}
	o.Workers = workers
	strat, err := o.strategy(nil)
	if err != nil {
		return Result{}, err
	}
	if tree, ok := strat.(*restart.Tree); ok {
		tree.Workers = workers // the explicit argument wins over the spec
	}
	if _, ok := strat.(restart.Naive); ok {
		strat = &restart.ParallelNaive{Workers: workers}
	}

	sctx := ctx
	if sctx != nil && sctx.Done() == nil {
		sctx = nil // never-cancelled: skip the inner-loop polls entirely
	}
	factory := search.NewFactory(p.suite, search.Options{
		Set:        set,
		Cost:       kind,
		Beta:       o.Beta,
		Redundancy: redundancy,
		Seed:       o.Seed,
		Ctx:        sctx,
		Prune:      o.Prune,
	})
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res := strat.RunContext(ctx, factory, o.Budget)
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
