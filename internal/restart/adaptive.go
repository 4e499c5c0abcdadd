package restart

import (
	"context"

	"stochsyn/internal/eqsat"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/search"
)

// Tree implements the parallel Luby algorithm and, when Adaptive is
// set, the paper's adaptive restart algorithm (Section 5.2, Figures 8
// and 9).
//
// The Luby sequence is the limit of L_0 = <1>, L_i = L_{i-1} ||
// L_{i-1} || <2^i>, which can be viewed as a series of trees traversed
// in depth-first post-order. The parallel reformulation keeps one
// search per tree node: each "doubling" pass traverses the tree in
// post-order, adds a pair of fresh 1-labeled leaves beneath each
// pre-existing leaf, runs every new leaf's search for t0 iterations,
// runs every pre-existing node's search for label*t0 additional
// iterations, and doubles its label. After n passes the multiset of
// per-search runtimes equals that of the sequential Luby algorithm, so
// the parallel form inherits Luby's O(T* ln T*) expected-time
// guarantee while keeping partial searches alive.
//
// The adaptive algorithm drops the black-box assumption: whenever the
// traversal finishes visiting a non-root node, the node's search is
// swapped with its parent's if the parent has a higher cost. Nodes
// closer to the root receive exponentially more future iterations, so
// the swaps concentrate search effort on the lowest-cost (most
// promising) runs; a sufficiently low-cost search can climb multiple
// levels within a single doubling pass.
type Tree struct {
	// T0 is the base cutoff: a node labeled l receives l*T0 iterations
	// per doubling. Must be positive.
	T0 int64
	// Adaptive enables the cost-based parent swap; when false the
	// schedule is exactly parallel Luby.
	Adaptive bool
	// MaxSearches caps the number of live searches (0 = unlimited).
	// The paper notes that, unlike sequential Luby, the parallel form
	// must retain partially executed searches, increasing memory; the
	// cap bounds that growth by stopping leaf sprouting once reached,
	// while labels keep doubling so existing searches still receive
	// exponentially growing allocations.
	MaxSearches int
	// Workers selects the executor: 0 or 1 runs the doubling tree
	// sequentially on the calling goroutine (the reference oracle);
	// larger values run its steps and swaps on a fixed pool of that
	// many worker goroutines, each operation waiting only on the tree
	// nodes it touches (see treeexec.go). Both executors call the
	// factory from the calling goroutine, one call at a time, in
	// increasing id order, and both produce bit-identical Results for
	// a deterministic factory, so Workers trades wall-clock time
	// only, never reproducibility.
	Workers int
	// Obs, when non-nil, receives restart telemetry: searches started,
	// per-visit iteration grants, doubling passes, adaptive swaps, and
	// the speculative/useful budget split of the concurrent executor
	// (see Instrument). Instrumentation reads no search state beyond
	// what the strategy already reads, so Results stay bit-identical.
	Obs *obs.RestartHooks
	// EqSat, when non-nil, records every fresh leaf's start program in
	// the shared rewrite-equivalence memo (eqsat.Dedup.Seed). A restart
	// whose seed is rewrite-equivalent to an earlier one is still run —
	// skipping it would break the Luby schedule's guarantee — but the
	// duplication is counted and traced, and the same memo's plateau
	// side (search.Options.EqSat) steers the duplicated walk away from
	// territory the earlier search covered. Setting EqSat forces the
	// sequential executor: the memo's sampling is shared mutable state,
	// so concurrent stepping would make trajectories depend on worker
	// interleaving, forfeiting reproducibility.
	EqSat *eqsat.Dedup
}

// Name implements Strategy.
func (t *Tree) Name() string {
	if t.Adaptive {
		return "adaptive"
	}
	return "pluby"
}

// treeNode is one node of the doubling tree. The search associated
// with a node changes as swaps occur; the label is positional and only
// indicates how many future iterations the node will be allocated.
type treeNode struct {
	label    int64
	s        search.Search
	children []*treeNode
}

// treeRun carries the mutable state of one strategy execution.
type treeRun struct {
	cfg     *Tree
	factory search.Factory
	ctx     context.Context
	budget  int64
	res     Result
}

// Run implements Strategy.
func (t *Tree) Run(f search.Factory, budget int64) Result {
	return t.RunContext(context.Background(), f, budget)
}

// RunContext implements Strategy. Cancellation is polled between
// steps of the doubling pass and, via chunked stepping, inside each
// node's iteration grant; a cancelled pass unwinds without applying
// further swaps or label doublings.
func (t *Tree) RunContext(ctx context.Context, f search.Factory, budget int64) Result {
	if t.T0 <= 0 {
		panic("restart: tree base cutoff must be positive")
	}
	if t.Workers > 1 && t.EqSat == nil {
		return t.runConcurrent(ctx, f, budget)
	}
	r := &treeRun{cfg: t, factory: f, ctx: ctx, budget: budget}
	if h := t.Obs; h != nil {
		defer func() { h.UsefulIters.Add(float64(r.res.Iterations)) }()
	}

	// The initial tree is a single 1-labeled node; run it for t0. It
	// counts as the first pass, matching ExecStats.Passes.
	r.notePass(1)
	root := r.newLeaf()
	if r.run(root, 1) {
		return r.res
	}
	// Repeat doubling passes until the budget is exhausted. Each pass
	// at least doubles the cumulative work, so the loop terminates.
	for pass := 2; r.res.Iterations < r.budget; pass++ {
		r.notePass(pass)
		if r.visit(root, nil) {
			return r.res
		}
	}
	return r.res
}

// notePass records the start of a doubling pass with the hooks.
func (r *treeRun) notePass(pass int) {
	h := r.cfg.Obs
	if h == nil {
		return
	}
	h.Passes.Inc()
	if h.Tracer != nil {
		h.Tracer.Emit("tree_pass", map[string]any{
			"strategy": r.cfg.Name(), "pass": pass,
			"searches": r.res.Searches, "iterations": r.res.Iterations,
		})
	}
}

// newLeaf creates a fresh 1-labeled leaf with a new search.
func (r *treeRun) newLeaf() *treeNode {
	s := r.factory(uint64(r.res.Searches))
	r.res.Searches++
	if h := r.cfg.Obs; h != nil {
		h.Restarts.Inc()
		if h.Tracer != nil {
			h.Tracer.Emit("restart_fire", map[string]any{
				"strategy": r.cfg.Name(), "search": uint64(r.res.Searches - 1), "cutoff": r.cfg.T0,
			})
		}
	}
	seedDedup(r.cfg, s, uint64(r.res.Searches-1))
	return &treeNode{label: 1, s: s}
}

// seedDedup records a fresh search's start program in the shared
// rewrite-equivalence memo, tracing duplicated seeds. It runs on the
// goroutine that created the leaf (the planning goroutine in the
// concurrent executor), so trace-event order matches the sequential
// schedule.
func seedDedup(cfg *Tree, s search.Search, id uint64) {
	d := cfg.EqSat
	if d == nil {
		return
	}
	pr, ok := s.(interface{ Program() *prog.Program })
	if !ok {
		return
	}
	if d.Seed(pr.Program()) {
		if h := cfg.Obs; h != nil && h.Tracer != nil {
			h.Tracer.Emit("restart_seed_dup", map[string]any{
				"strategy": cfg.Name(), "search": id,
			})
		}
	}
}

// run executes n's search for units*T0 iterations (clipped to the
// remaining budget) and returns true if the strategy is finished
// (solved, cancelled, or out of budget).
func (r *treeRun) run(n *treeNode, units int64) bool {
	iters := units * r.cfg.T0
	if remaining := r.budget - r.res.Iterations; iters > remaining {
		iters = remaining
	}
	if iters <= 0 {
		return r.res.Iterations >= r.budget
	}
	if h := r.cfg.Obs; h != nil {
		h.CutoffIters.Observe(float64(iters))
	}
	used, done, cancelled := stepCtx(r.ctx, n.s, iters)
	r.res.Iterations += used
	if done {
		r.res.Solved = true
		r.res.Winner = n.s
		return true
	}
	if cancelled {
		r.res.Cancelled = true
		return true
	}
	return r.res.Iterations >= r.budget
}

// visit performs one doubling pass over the subtree rooted at n in
// depth-first post-order, returning true if the strategy is finished.
// parent is nil for the root.
func (r *treeRun) visit(n *treeNode, parent *treeNode) bool {
	if len(n.children) == 0 {
		// Pre-existing leaf: sprout two fresh 1-labeled leaves and run
		// each for t0. The new leaves keep label 1 this pass (they are
		// the 1-entries of the extended Luby sequence). Sprouting
		// stops at the search cap, if one is set.
		for i := 0; i < 2; i++ {
			if r.cfg.MaxSearches > 0 && r.res.Searches >= r.cfg.MaxSearches {
				break
			}
			c := r.newLeaf()
			n.children = append(n.children, c)
			if r.run(c, 1) {
				return true
			}
			r.maybeSwap(c, n)
		}
	} else {
		for _, c := range n.children {
			if r.visit(c, n) {
				return true
			}
		}
	}
	// Run the node for label*t0 additional iterations and double its
	// label; cumulatively the node has then run 2*label*t0, matching
	// the sequential algorithm's visit of a 2*label node.
	if r.run(n, n.label) {
		return true
	}
	n.label *= 2
	r.maybeSwap(n, parent)
	return false
}

// maybeSwap applies the adaptive rule: after finishing a non-root
// node's visit, swap its search with the parent's if the parent's cost
// is higher.
func (r *treeRun) maybeSwap(n, parent *treeNode) {
	if !r.cfg.Adaptive || parent == nil {
		return
	}
	if parent.s.Cost() > n.s.Cost() {
		parent.s, n.s = n.s, parent.s
		if h := r.cfg.Obs; h != nil {
			h.Swaps.Inc()
			if h.Tracer != nil {
				h.Tracer.Emit("tree_promote", map[string]any{
					"strategy": r.cfg.Name(),
					"cost":     parent.s.Cost(), "displaced": n.s.Cost(),
				})
			}
		}
	}
}

// NewParallelLuby returns the parallel Luby strategy with base cutoff
// t0 (no cost-based swaps).
func NewParallelLuby(t0 int64) *Tree { return &Tree{T0: t0} }

// NewAdaptive returns the paper's adaptive restart strategy with base
// cutoff t0.
func NewAdaptive(t0 int64) *Tree { return &Tree{T0: t0, Adaptive: true} }
