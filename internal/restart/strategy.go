// Package restart implements the restart strategies of Section 5 of
// the paper: the naive (never-restart) baseline, classic black-box
// strategies driven by cutoff sequences (fixed optimal cutoff, the
// Luby sequence, exponentially increasing cutoffs, and the inner-outer
// geometric strategy of PicoSAT), the parallel reformulation of Luby
// that keeps searches alive in a doubling tree (Figure 8), and the
// paper's adaptive restart algorithm (Figure 9), which swaps low-cost
// searches toward the root of the tree so the most promising runs
// receive the largest iteration allocations.
//
// All strategies account their work in search-loop iterations against
// a single global budget, the paper's hardware-independent unit.
package restart

import (
	"context"
	"fmt"
	"math"

	"stochsyn/internal/obs"
	"stochsyn/internal/search"
)

// Result summarizes one strategy execution.
type Result struct {
	// Solved reports whether any search finished within the budget.
	Solved bool
	// Iterations is the total number of iterations consumed across
	// all searches (the paper's measure of synthesis time). Under
	// cancellation this is the exact number of iterations that were
	// executed before the run stopped.
	Iterations int64
	// Searches is the number of searches created.
	Searches int
	// Winner is the search that finished, or nil. Callers may
	// type-assert it (e.g. to *search.Run) to retrieve the solution.
	Winner search.Search
	// Cancelled reports that the run was stopped by context
	// cancellation before it either solved the problem or exhausted
	// its budget. A run that solves just as its context expires
	// reports Solved, not Cancelled.
	Cancelled bool
	// Exec holds executor counters when the strategy ran on the
	// concurrent tree executor (Tree.Workers > 1), and is nil
	// otherwise. It never influences the fields above.
	Exec *ExecStats
}

// Strategy drives searches created by a factory under a total
// iteration budget and reports the outcome. Implementations must be
// deterministic given the factory.
type Strategy interface {
	Name() string
	// Run is RunContext under a background (never-cancelled) context.
	Run(f search.Factory, budget int64) Result
	// RunContext runs the strategy until it solves, exhausts the
	// budget, or ctx is cancelled — whichever comes first. With a
	// context that never expires the Result is bit-identical to
	// Run's; on cancellation the strategy returns promptly with
	// Result.Cancelled set and exact iteration accounting (every
	// iteration actually executed is counted, and nothing else).
	RunContext(ctx context.Context, f search.Factory, budget int64) Result
}

// stepChunk is the largest single grant handed to a Search when it is
// driven under a cancellable context: strategies step searches in
// chunks of at most this many iterations and poll the context between
// chunks, so even searches that do not observe a context themselves
// (e.g. the model Markov chains) are cancelled within one chunk.
// Chunked stepping is observationally identical to a single Step call
// for any Search honoring the resumability contract, so results stay
// bit-identical to the monolithic schedule.
const stepChunk = 1 << 16

// stepCtx drives s for up to budget iterations under ctx, stepping in
// chunks of stepChunk and polling ctx between chunks. It returns the
// iterations consumed, whether the search finished, and whether the
// run was cancelled. A Step that returns early (contractually allowed
// only under a cancelled context) is reported as cancelled.
func stepCtx(ctx context.Context, s search.Search, budget int64) (used int64, done, cancelled bool) {
	background := ctx == nil || ctx.Done() == nil
	for used < budget {
		if !background && ctx.Err() != nil {
			return used, false, true
		}
		grant := budget - used
		if !background && grant > stepChunk {
			grant = stepChunk
		}
		u, stepDone := s.Step(grant)
		used += u
		if stepDone {
			return used, true, false
		}
		if u < grant {
			// The Search contract permits an early unfinished return
			// only under a cancelled context.
			return used, false, true
		}
	}
	return used, false, false
}

// Naive is the baseline algorithm that never restarts: it runs a
// single search until it completes or the budget times out.
type Naive struct {
	// Obs, when non-nil, receives restart telemetry (see Instrument).
	Obs *obs.RestartHooks
}

// Name implements Strategy.
func (Naive) Name() string { return "naive" }

// Run implements Strategy.
func (n Naive) Run(f search.Factory, budget int64) Result {
	return n.RunContext(context.Background(), f, budget)
}

// RunContext implements Strategy.
func (n Naive) RunContext(ctx context.Context, f search.Factory, budget int64) Result {
	s := f(0)
	fire(n.Obs, "naive", 0, budget)
	used, done, cancelled := stepCtx(ctx, s, budget)
	res := Result{Solved: done, Iterations: used, Searches: 1, Cancelled: cancelled}
	if done {
		res.Winner = s
	}
	if h := n.Obs; h != nil {
		h.UsefulIters.Add(float64(res.Iterations))
	}
	return res
}

// Sequential is a classic black-box restart strategy defined by a
// cutoff sequence: search i runs for Cutoff(i) iterations (1-based)
// and is abandoned if it has not finished.
type Sequential struct {
	// StrategyName names the strategy for reports.
	StrategyName string
	// Cutoff returns the iteration cutoff for the i-th search, i >= 1.
	Cutoff func(i int) int64
	// Obs, when non-nil, receives restart telemetry (see Instrument).
	Obs *obs.RestartHooks
}

// Name implements Strategy.
func (s *Sequential) Name() string { return s.StrategyName }

// Run implements Strategy. It panics if the Cutoff function returns a
// non-positive value: a zero cutoff consumes no budget, so tolerating
// it would spin forever without making progress.
func (s *Sequential) Run(f search.Factory, budget int64) Result {
	return s.RunContext(context.Background(), f, budget)
}

// RunContext implements Strategy: cancellation is polled between
// restarts and, via chunked stepping, inside each cutoff.
func (s *Sequential) RunContext(ctx context.Context, f search.Factory, budget int64) Result {
	var res Result
	if h := s.Obs; h != nil {
		defer func() { h.UsefulIters.Add(float64(res.Iterations)) }()
	}
	for i := 1; res.Iterations < budget; i++ {
		cut := s.Cutoff(i)
		if cut <= 0 {
			panic(fmt.Sprintf("restart: %s cutoff for search %d is %d, must be positive", s.StrategyName, i, cut))
		}
		if remaining := budget - res.Iterations; cut > remaining {
			cut = remaining
		}
		run := f(uint64(i - 1))
		res.Searches++
		fire(s.Obs, s.StrategyName, uint64(i-1), cut)
		used, done, cancelled := stepCtx(ctx, run, cut)
		res.Iterations += used
		if done {
			res.Solved = true
			res.Winner = run
			return res
		}
		if cancelled {
			res.Cancelled = true
			return res
		}
	}
	return res
}

// NewFixed returns the fixed-cutoff strategy: restart every cutoff
// iterations. With the distribution-optimal cutoff t* this is the best
// possible black-box strategy (Section 5.1).
func NewFixed(cutoff int64) *Sequential {
	if cutoff <= 0 {
		panic("restart: fixed cutoff must be positive")
	}
	return &Sequential{
		StrategyName: fmt.Sprintf("fixed(%d)", cutoff),
		Cutoff:       func(int) int64 { return cutoff },
	}
}

// NewLuby returns the classic Luby restart strategy with base cutoff
// t0: search i runs t0 * Luby(i) iterations.
func NewLuby(t0 int64) *Sequential {
	if t0 <= 0 {
		panic("restart: luby base cutoff must be positive")
	}
	return &Sequential{
		StrategyName: "luby",
		Cutoff:       func(i int) int64 { return t0 * Luby(i) },
	}
}

// NewExponential returns the exponentially increasing cutoff strategy
// t0 * z^k for k = 0, 1, 2, ... (Section 5.1).
func NewExponential(t0 int64, z float64) *Sequential {
	if t0 <= 0 || z <= 1 {
		panic("restart: exponential strategy requires t0 > 0 and z > 1")
	}
	return &Sequential{
		StrategyName: fmt.Sprintf("exp(z=%g)", z),
		Cutoff:       func(i int) int64 { return geometricCutoff(t0, z, i-1) },
	}
}

// NewInnerOuter returns the inner-outer geometric strategy of PicoSAT:
// cutoffs t0 * z^k with k = 0, 1, 0, 1, 2, 0, 1, 2, 3, ...
func NewInnerOuter(t0 int64, z float64) *Sequential {
	if t0 <= 0 || z <= 1 {
		panic("restart: inner-outer strategy requires t0 > 0 and z > 1")
	}
	return &Sequential{
		StrategyName: fmt.Sprintf("innerouter(z=%g)", z),
		Cutoff:       func(i int) int64 { return geometricCutoff(t0, z, innerOuterK(i)) },
	}
}

// geometricCutoff returns t0 * z^k, grown in float64 and no further
// once it passes 1e18. The last factor can carry it past 2^63, where a
// conversion to int64 is undefined (MinInt64 on amd64), so the result
// saturates at math.MaxInt64; every smaller cutoff is the plain
// conversion.
func geometricCutoff(t0 int64, z float64, k int) int64 {
	c := float64(t0)
	for j := 0; j < k; j++ {
		c *= z
		if c > 1e18 {
			break
		}
	}
	if c >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c)
}

// innerOuterK maps the 1-based search index to the exponent sequence
// 0, 1, 0, 1, 2, 0, 1, 2, 3, ...: round r (1-based) consists of the
// exponents 0..r.
func innerOuterK(i int) int {
	i-- // 0-based position
	r := 1
	for {
		if i < r+1 {
			return i
		}
		i -= r + 1
		r++
	}
}

// Luby returns the i-th element (1-based) of the Luby sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func Luby(i int) int64 {
	if i < 1 {
		panic("restart: Luby index must be >= 1")
	}
	// If i == 2^k - 1 the value is 2^(k-1); otherwise recurse on the
	// position within the trailing copy of the previous block.
	for k := 1; ; k++ {
		if i == 1<<k-1 {
			return int64(1) << (k - 1)
		}
		if i < 1<<k-1 {
			return Luby(i - (1<<(k-1) - 1))
		}
	}
}
