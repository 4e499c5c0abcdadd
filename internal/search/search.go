// Package search implements the stochastic synthesis main loop of
// Figure 3 of the paper: a Metropolis-style search over dataflow
// programs that proposes a random change each iteration and accepts it
// when c' <= c - beta*ln(random(0,1)).
//
// The package also defines the Search interface, the minimal view of a
// step-bounded randomized search that the restart strategies in
// package restart schedule. Both real synthesis runs (Run) and the
// model Markov chains of Section 5.2.1 implement it, so strategy code
// is shared between the evaluation and the analytical experiments.
package search

import (
	"context"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"stochsyn/internal/cost"
	"stochsyn/internal/mutate"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/testcase"
)

// engine is the evaluation engine the search loop drives: a committed
// root column kept exact for the current program, a journaled proposal
// path (Begin / EvalRange / Commit / Abort), and a full rebind for
// restarts (Reset). Two implementations exist —
// the compiled plan engine (plan.State, the default) and the
// from-scratch reference engine (prog.RefEval, Options.LegacyEval) —
// and the loop treats them identically: both produce bit-identical root
// values, which FuzzIncrementalEval pins. The method set is a superset
// of cost.Source and mutate.Eval, so an engine value flows to those
// layers directly.
type engine interface {
	Reset(p *prog.Program)
	Begin(j *prog.Journal)
	EvalRange(c0, c1 int) []uint64
	Commit()
	Abort()
	RootColumn() []uint64
	CaseValues(c int, dst []uint64)
	Program() *prog.Program
	Suite() *testcase.Suite
	Stats() prog.EvalStats
}

var (
	_ engine = (*prog.RefEval)(nil)
	_ engine = (*plan.State)(nil)
)

// Search is one restartable randomized search. Restart strategies
// treat searches as step-bounded processes that expose their current
// cost; the cost is the only non-black-box information the adaptive
// algorithm uses.
//
// Concurrency contract: a Search is single-threaded state — it must
// not be stepped from two goroutines at once, and Cost must only be
// read with a happens-before edge after the last Step. Distinct
// searches, however, must be independently steppable from different
// goroutines; the concurrent executors in package restart rely on
// this. Implementations must also make Step consume its entire
// budget unless the search finishes (both Run here and markov.Walk
// do), which the tree executor's budget arithmetic depends on — with
// one sanctioned exception: a search created with a cancellable
// Options.Ctx may return early from Step, unfinished and with budget
// left, once that context is cancelled. The restart strategies treat
// an early return under a cancelled context as "the run was
// cancelled", never as ordinary completion.
type Search interface {
	// Step runs at most budget iterations, returning the number
	// actually consumed and whether the search has finished. Once
	// finished, further Step calls consume nothing.
	Step(budget int64) (used int64, done bool)
	// Cost returns the current cost; zero means finished.
	Cost() float64
}

// Factory creates independent searches. Each restart draws a fresh
// search; id is a distinct per-search value the factory should fold
// into its random seed. For a given id the returned search must be
// deterministic — strategy schedules and the parallel executors'
// bit-identical replay both hinge on that. The searches it returns
// must not share mutable state with one another (read-only data such
// as the test suite or an OpSet may be shared). Strategies call a
// factory from one goroutine at a time, in increasing id order from
// 0, even when they step its searches on several workers, so the
// factory itself may keep unsynchronized state, such as a list of the
// searches it made.
type Factory func(id uint64) Search

// CancelCheckEvery is the iteration interval at which Run.Step polls
// its context for cancellation. At the search loop's typical
// throughput (hundreds of thousands of iterations per second per
// core) this bounds the cancellation latency of an in-flight Step to
// a few tens of milliseconds while keeping the poll cost invisible.
const CancelCheckEvery = 8192

// Options configures a synthesis run.
type Options struct {
	// Set is the instruction dialect; defaults to prog.FullSet.
	Set *prog.OpSet
	// Cost selects the cost function (default Hamming).
	Cost cost.Kind
	// Beta is the user-facing acceptance temperature, expressed
	// relative to a 100-test-case problem; it is normalized to the
	// suite's test count per Section 3.2. Zero means greedy
	// (only cost-preserving or -decreasing moves are accepted).
	Beta float64
	// Redundancy enables the canonicalizing redundancy move of
	// Section 4 (used with the model dialect).
	Redundancy bool
	// Seed seeds the search's private random stream.
	Seed uint64
	// Ctx, when non-nil, allows cancelling a run mid-Step: the inner
	// loop polls the context every CancelCheckEvery iterations and
	// returns early (unfinished, with budget left) once it is
	// cancelled. Polling never touches the random stream, so a run
	// driven under a context that never expires is bit-identical to
	// one with a nil Ctx.
	Ctx context.Context
	// TraceCosts, when true, records a thinned (iteration, cost)
	// trace of accepted-cost changes for plateau analysis.
	TraceCosts bool
	// StateHook, when non-nil, is invoked with the current program
	// after every iteration. It is used by the Markov-chain analysis;
	// it slows the loop considerably.
	StateHook func(p *prog.Program)
	// Init, when non-nil, is the initial program instead of the
	// constant zero. The benchmark pipeline's prefix-synthesizability
	// filter uses this to start from the previous prefix's solution.
	Init *prog.Program
	// MinimizeSize enables superoptimization mode: the acceptance cost
	// becomes correctness + SizeWeight*size, the search never
	// finishes, and Best tracks the smallest correct program seen.
	// Usually combined with Init set to a known-correct program.
	MinimizeSize bool
	// SizeWeight is the per-node cost in MinimizeSize mode
	// (default 1, in the cost function's units).
	SizeWeight float64
	// MoveWeights optionally skews move-type selection (nil = the
	// paper's uniform choice). Keys are mutate.Move values; moves with
	// missing or non-positive weight are never proposed.
	MoveWeights map[mutate.Move]float64
	// LegacyEval selects the from-scratch reference engine
	// (prog.RefEval) instead of the compiled plan engine (plan.State):
	// each proposal is evaluated case by case with Program.Eval, reusing
	// nothing, and its cost is summed by cost.Kind.OfState. The two arms
	// run the same loop and are bit-identical by construction — same RNG
	// draw sequence, same case-order float summation, same accept/reject
	// decisions, same EvalStats — which the differential fuzz test
	// (FuzzIncrementalEval) checks continuously. This is a verification
	// and benchmarking knob, not a performance option.
	LegacyEval bool
	// Obs, when non-nil, attaches observability hooks to the run:
	// iteration and per-move counters, cost gauges, plateau
	// detection, and sampled cost-trajectory trace events. Updates
	// are accumulated privately and flushed every CancelCheckEvery
	// iterations and at every Step boundary, so instrumentation never
	// touches the random stream (results stay bit-identical) and
	// costs well under the ~2% overhead budget (see BenchmarkSearchLoop).
	Obs *obs.SearchHooks
}

// TracePoint is one entry of a cost trace.
type TracePoint struct {
	Iteration int64
	Cost      float64
}

// Run is a synthesis search over one test suite; it implements Search.
//
// A Run owns all of its mutable state (RNG, mutator, programs,
// scratch buffers) and holds only read-only references to shared data
// (the suite and the dialect's OpSet, both immutable during a
// search), so distinct Runs over the same suite can be stepped
// concurrently from different goroutines. A single Run is not safe
// for concurrent use.
type Run struct {
	suite *testcase.Suite
	opts  Options
	ctx   context.Context // nil when the run is not cancellable
	kind  cost.Kind
	beta  float64 // normalized
	rng   *rand.Rand
	mut   *mutate.Mutator

	cur   *prog.Program
	cost  float64 // correctness cost, plus the size term in MinimizeSize mode
	iters int64
	done  bool
	sol   *prog.Program

	// eng is the evaluation engine — the compiled plan engine by
	// default, the reference engine under Options.LegacyEval; jr is the
	// per-iteration edit journal it consumes, reused across iterations.
	// planEng is eng's concrete type when the plan engine is active (nil
	// otherwise), resolved once so the hot loop takes cost.Kind.OfPlan —
	// the fused tape-execution cost path — without a per-iteration
	// assertion.
	eng     engine
	planEng *plan.State
	jr      prog.Journal

	minimize   bool
	sizeWeight float64
	best       *prog.Program

	stats Stats

	// Observability state. pub is the race-free snapshot path: the
	// loop's private counters are copied into a fresh immutable
	// snapshot at every flush point, so concurrent observers
	// (tree-executor monitors, the server's samplers) read values
	// that are mutually consistent (a single pointer load), exact at
	// Step boundaries, and lagging by at most CancelCheckEvery
	// iterations mid-Step.
	pub      atomic.Pointer[snapshot]
	obsHooks *obs.SearchHooks
	obsIters int64 // counters already flushed to the registry
	obsStats Stats
	obsEval  prog.EvalStats // engine work counters already flushed
	obsPlan  plan.Stats     // plan compiler counters already flushed
	obsBest  float64        // best sampled cost so far (NaN until the first flush)
	plateau  obs.PlateauDetector

	trace []TracePoint
	gap   int64 // minimum iteration gap between trace points
}

var _ Search = (*Run)(nil)

// New creates a synthesis run for the suite. The suite must be valid
// (see testcase.Suite.Validate); New panics otherwise since this
// indicates a programming error in the caller.
func New(suite *testcase.Suite, opts Options) *Run {
	if err := suite.Validate(); err != nil {
		panic(err)
	}
	if opts.Set == nil {
		opts.Set = prog.FullSet
	}
	r := &Run{
		suite: suite,
		opts:  opts,
		ctx:   opts.Ctx,
		kind:  opts.Cost,
		beta:  cost.NormalizeBeta(opts.Beta, suite.Len()),
		rng:   rand.New(rand.NewPCG(opts.Seed, 0x5f3759df)),
		mut:   mutate.New(opts.Set, suite, opts.Redundancy),
		gap:   1,
	}
	r.obsHooks = opts.Obs
	r.obsIters = -1 // force the first publish even at iteration 0
	r.obsBest = math.NaN()
	if h := opts.Obs; h != nil {
		r.plateau.Window = h.PlateauWindow
	}
	if opts.MoveWeights != nil {
		r.mut.SetWeights(opts.MoveWeights)
	}
	if opts.Init != nil {
		r.cur = opts.Init.Clone()
	} else {
		r.cur = prog.NewZero(suite.NumInputs)
	}
	r.minimize = opts.MinimizeSize
	r.sizeWeight = opts.SizeWeight
	if r.minimize && r.sizeWeight <= 0 {
		r.sizeWeight = 1
	}
	// The engine's committed root column is kept exact for r.cur for
	// the whole run; the initial cost is that column summed in case
	// order, bit-equal to Of.
	if opts.LegacyEval {
		r.eng = prog.NewRefEval(suite)
	} else {
		r.planEng = plan.New(suite)
		r.eng = r.planEng
	}
	r.eng.Reset(r.cur)
	r.mut.BindEval(r.eng)
	c := r.kind.OfColumn(r.eng.RootColumn(), suite)
	if r.minimize {
		if c == 0 {
			r.noteBest(r.cur)
		}
		r.cost = r.effective(c, r.cur)
		r.recordTrace()
		r.publish()
		return r
	}
	r.cost = c
	r.recordTrace()
	if r.cost == 0 {
		r.finish()
	}
	r.publish()
	return r
}

// Step implements Search. Each loop iteration counts against the
// budget whether or not the proposed change was valid, matching the
// iteration counter in Figure 3.
//
// When the run was created with a cancellable Options.Ctx, Step polls
// it every CancelCheckEvery iterations (at fixed global iteration
// numbers, so chunked and monolithic stepping observe the same poll
// points) and returns early — unfinished, reporting only the
// iterations actually executed — once the context is cancelled.
func (r *Run) Step(budget int64) (int64, bool) {
	if r.done || budget <= 0 {
		return 0, r.done
	}
	if r.ctx != nil && r.ctx.Err() != nil {
		return 0, false
	}
	// Publish at every Step boundary so external readers
	// (Iterations, MoveStats, the metrics registry) are exact
	// whenever they hold a happens-before edge on the Step call.
	defer r.publish()
	var used int64
	for used < budget {
		if r.iters&(CancelCheckEvery-1) == 0 && used > 0 {
			// Amortized flush point: mirror the loop's private
			// counters into the race-free published copies and the
			// attached hooks. This touches no search state and no
			// random stream, so instrumented runs stay bit-identical;
			// the context poll below keeps its original position.
			r.publish()
			if r.ctx != nil && r.ctx.Err() != nil {
				return used, false
			}
		}
		used++
		r.iters++
		if r.iterate() {
			return used, true
		}
	}
	return used, false
}

// iterate runs one iteration of Figure 3's loop: the move edits the
// current program in place under the edit journal, the acceptance
// threshold is drawn before evaluating, the engine evaluates the
// proposal chunk by chunk so a bad proposal aborts early, and a
// rejected proposal is undone exactly via the journal. Both engines
// compute the same root values and both cost paths sum them in case
// order with the same abort decisions, so the two arms' trajectories
// are bit-equal. It returns true when the iteration solved the problem.
func (r *Run) iterate() bool {
	r.cur.BeginEdit(&r.jr)
	mv, ok := r.mut.Apply(r.cur, r.rng)
	r.stats.Proposed[mv]++
	if ok {
		// The threshold is drawn before evaluating so the cost can abort
		// early (exactly) once its partial sum exceeds it. In minimize
		// mode the size term is known up front and tightens the bound.
		bound := r.threshold()
		if r.minimize {
			bound -= r.sizeWeight * float64(r.cur.BodyLen())
		}
		r.stats.Evaluated++
		r.eng.Begin(&r.jr)
		var c float64
		if r.planEng != nil {
			c = r.kind.OfPlan(r.planEng, bound)
		} else {
			c = r.kind.OfState(r.eng, bound)
		}
		if c <= bound {
			// A non-Inf cost means every case block was pulled, which is
			// exactly Commit's precondition.
			r.stats.Accepted[mv]++
			r.eng.Commit()
			r.cur.EndEdit()
			if r.accept(c) {
				return true
			}
		} else {
			r.eng.Abort()
			r.cur.Rollback()
		}
	} else {
		// Invalid proposals leave the program untouched (every move
		// checks validity before its first write), so this rollback is
		// a cheap journal detach that keeps the topo-order cache warm.
		r.cur.Rollback()
	}
	if r.opts.StateHook != nil {
		r.opts.StateHook(r.cur)
	}
	return false
}

// accept performs the post-acceptance bookkeeping, with c the
// proposal's correctness cost; the current program is already the
// accepted proposal. It returns true when the search finished.
func (r *Run) accept(c float64) bool {
	eff := c
	if r.minimize {
		eff = r.effective(c, r.cur)
		if c == 0 {
			r.noteBest(r.cur)
		}
	}
	if eff != r.cost {
		r.cost = eff
		r.recordTrace()
	}
	if c == 0 && !r.minimize {
		r.finish()
		if r.opts.StateHook != nil {
			r.opts.StateHook(r.cur)
		}
		return true
	}
	return false
}

// threshold draws the acceptance threshold c - beta*ln(U) with U
// uniform on (0, 1] (Figure 3, line 8). A proposal with cost c' is
// accepted iff c' <= threshold; since -ln(U) >= 0, cost-preserving and
// cost-decreasing proposals are always accepted, and with beta == 0
// nothing else is.
func (r *Run) threshold() float64 {
	if r.beta == 0 {
		return r.cost
	}
	u := 1 - r.rng.Float64() // (0, 1]
	return r.cost - r.beta*math.Log(u)
}

func (r *Run) finish() {
	r.done = true
	r.sol = r.cur.Clone()
	if h := r.obsHooks; h != nil && h.Tracer != nil {
		h.Tracer.Emit("search_solved", map[string]any{
			"search": h.ID, "iteration": r.iters,
		})
	}
}

// snapshot is the immutable published view of a run's counters; see
// the pub field. A fresh one is allocated per flush — once every
// CancelCheckEvery iterations, far off the allocation hot path.
type snapshot struct {
	iters int64
	stats Stats
}

// publish copies the loop's private counters into a fresh published
// snapshot and flushes the deltas since the last publish into the
// attached hooks, feeding the plateau detector and the sampled cost
// trajectory along the way. It runs at Step boundaries and every
// CancelCheckEvery iterations; with no hooks attached it is one
// struct copy and one atomic pointer store.
func (r *Run) publish() {
	r.pub.Store(&snapshot{iters: r.iters, stats: r.stats})
	h := r.obsHooks
	if h == nil || r.iters == r.obsIters {
		return // uninstrumented, or nothing new since the last flush
	}
	if r.obsIters >= 0 {
		if d := r.iters - r.obsIters; d > 0 {
			h.Iterations.Add(float64(d))
		}
	}
	r.obsIters = r.iters
	for i := range r.stats.Proposed {
		if d := r.stats.Proposed[i] - r.obsStats.Proposed[i]; d > 0 {
			h.ProposedFor(i).Add(float64(d))
		}
		if d := r.stats.Accepted[i] - r.obsStats.Accepted[i]; d > 0 {
			h.AcceptedFor(i).Add(float64(d))
		}
	}
	r.obsStats = r.stats
	es := r.eng.Stats()
	if d := es.Sub(r.obsEval); d != (prog.EvalStats{}) {
		h.EvalNodesReevaluated.Add(float64(d.NodesReevaluated))
		h.EvalNodesTotal.Add(float64(d.NodesTotal))
		h.EvalCasesEvaluated.Add(float64(d.CasesEvaluated))
		h.EvalCasesTotal.Add(float64(d.CasesTotal))
		r.obsEval = es
	}
	if ps := r.planEng; ps != nil {
		st := ps.PlanStats()
		if d := st.Sub(r.obsPlan); d != (plan.Stats{}) {
			h.PlanCompiles.Add(float64(d.Compiles))
			h.PlanCacheHits.Add(float64(d.CacheHits))
			h.PlanPatches.Add(float64(d.Patches))
			h.PlanFusedNodes.Add(float64(d.FusedNodes))
			r.obsPlan = st
		}
	}
	h.CurCost.Set(r.cost)
	h.BestCost.SetMin(r.cost)
	if math.IsNaN(r.obsBest) || r.cost < r.obsBest {
		r.obsBest = r.cost
	}
	entered, exited, dwell := r.plateau.Observe(r.iters, r.cost)
	if h.Tracer != nil {
		if entered {
			h.Plateaus.Inc()
			h.Tracer.Emit("plateau_enter", map[string]any{
				"search": h.ID, "iteration": r.iters, "cost": r.cost,
			})
		}
		if exited {
			h.Tracer.Emit("plateau_exit", map[string]any{
				"search": h.ID, "iteration": r.iters, "cost": r.cost, "dwell": dwell,
			})
		}
		if h.SampleCosts {
			// "best" is the best-so-far of the sampled trajectory, so a
			// live follower can draw the monotone envelope without
			// replaying from the start; the eval counters are cumulative
			// engine totals, from which consumers derive the reuse rate.
			h.Tracer.Emit("search_cost", map[string]any{
				"search": h.ID, "iteration": r.iters, "cost": r.cost, "best": r.obsBest,
				"eval_nodes_reevaluated": r.obsEval.NodesReevaluated,
				"eval_nodes_total":       r.obsEval.NodesTotal,
			})
		}
	} else if entered {
		h.Plateaus.Inc()
	}
}

// recordTrace appends a trace point, thinning the trace by doubling
// the minimum recording gap whenever it grows past a bound so that
// arbitrarily long runs keep bounded memory.
func (r *Run) recordTrace() {
	if !r.opts.TraceCosts {
		return
	}
	const maxTrace = 4096
	if n := len(r.trace); n > 0 && r.iters-r.trace[n-1].Iteration < r.gap {
		// Overwrite the most recent point so the trace always ends
		// with the latest cost.
		r.trace[n-1] = TracePoint{Iteration: r.iters, Cost: r.cost}
		return
	}
	r.trace = append(r.trace, TracePoint{Iteration: r.iters, Cost: r.cost})
	if len(r.trace) >= maxTrace {
		w := 0
		for i := 0; i < len(r.trace); i += 2 {
			r.trace[w] = r.trace[i]
			w++
		}
		r.trace = r.trace[:w]
		r.gap *= 2
	}
}

// Cost implements Search.
func (r *Run) Cost() float64 { return r.cost }

// Done reports whether the search found a solution.
func (r *Run) Done() bool { return r.done }

// Iterations returns the number of iterations executed so far. The
// value is read from the run's published snapshot, so it is safe to
// call from a goroutine other than the one stepping the run (e.g. a
// tree-executor observer): it is exact whenever the reader holds a
// happens-before edge after a Step call, and lags a concurrent Step
// by at most CancelCheckEvery iterations otherwise.
func (r *Run) Iterations() int64 {
	if s := r.pub.Load(); s != nil {
		return s.iters
	}
	return 0
}

// EvalStats returns the evaluation engine's cumulative work counters.
// Unlike Iterations, it reads the engine directly, so callers must hold
// a happens-before edge after the last Step (the synth CLI and the
// benchmark harness read it strictly after the search returns).
func (r *Run) EvalStats() prog.EvalStats { return r.eng.Stats() }

// PlanStats returns the plan compiler's cumulative counters (all zero
// under Options.LegacyEval). Same happens-before caveat as EvalStats.
func (r *Run) PlanStats() plan.Stats {
	if r.planEng == nil {
		return plan.Stats{}
	}
	return r.planEng.PlanStats()
}

// Program returns the current program. The caller must not mutate it.
func (r *Run) Program() *prog.Program { return r.cur }

// Solution returns the zero-cost program found, or nil if the search
// has not finished.
func (r *Run) Solution() *prog.Program { return r.sol }

// Trace returns the recorded cost trace (nil unless TraceCosts).
func (r *Run) Trace() []TracePoint { return r.trace }

// Suite returns the suite the run synthesizes against.
func (r *Run) Suite() *testcase.Suite { return r.suite }

// NewFactory returns a Factory producing independent runs of the same
// problem and options, folding the per-search id into the seed. The
// runs share only the (immutable) suite and OpSet, so they satisfy
// the Factory independence contract and may be stepped concurrently.
func NewFactory(suite *testcase.Suite, opts Options) Factory {
	base := opts.Seed
	return func(id uint64) Search {
		o := opts
		o.Seed = base ^ (id+1)*0x9e3779b97f4a7c15
		o.Obs = opts.Obs.WithID(id) // nil-safe: stamps the search id into trace events
		return New(suite, o)
	}
}

// RunToCompletion drives a single search until it finishes or the
// budget is exhausted, returning the iterations consumed and whether
// it finished. This is the "naive" algorithm when given the full
// budget.
func RunToCompletion(s Search, budget int64) (int64, bool) {
	used, done := s.Step(budget)
	return used, done
}
