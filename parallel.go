package stochsyn

import (
	"context"
	"runtime"
)

// SynthesizeParallel runs the configured restart strategy on multiple
// cores with a shared iteration budget: the total iterations across
// all workers never exceed Options.Budget, so results remain
// comparable with Synthesize in the paper's iteration-count terms
// while using the hardware for wall-clock speed. workers <= 0 uses
// GOMAXPROCS (at most 64 either way); Options.Workers is overridden by
// the explicit argument. Everything else runs as under
// SynthesizeContext, Options.Obs included.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return synthesize(ctx, p, opts, min(workers, 64))
}
