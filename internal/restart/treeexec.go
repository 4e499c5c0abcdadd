package restart

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"stochsyn/internal/search"
)

// This file implements the multi-core executor for the doubling-tree
// strategies (parallel Luby and adaptive). The sequential Tree.Run in
// adaptive.go is kept unchanged as the reference oracle; the executor
// is required to produce a bit-identical Result for any deterministic
// factory, and treeexec_test.go enforces that seed for seed.
//
// # One dataflow schedule over the whole run
//
// The sequential run is a sequence of operations on tree nodes: every
// Step grant of every doubling pass and, under Adaptive, every
// child/parent swap, in the order treeRun.visit performs them. Two
// observations make a deterministic parallel execution possible:
//
//  1. The sequence is positional. Grants depend only on the tree
//     shape, the node labels and the remaining budget, never on
//     search costs, and a swap exchanges the searches of two nodes,
//     not their labels. So one planner goroutine can emit the
//     sequence in order before the searches it names have run: it
//     calls the factory in id order, applies the MaxSearches cap and
//     the budget wall, and emits the tree_pass and restart_fire
//     events exactly as the sequential traversal would.
//
//  2. Search state passes between operations only through tree
//     nodes. A step advances its node's search; a swap compares and
//     exchanges the searches of a child and its parent. An operation
//     that waits for the previous operation on each node it touches
//     therefore sees exactly the state the sequential run shows it.
//
// The planner links every operation to those predecessors, and a
// fixed pool of Workers goroutines runs ready operations, lowest
// sequential index first. There is no barrier between passes: the
// planner runs at most one pass ahead of the oldest unfinished pass,
// so the next pass's fresh leaves and lower subtrees run beside the
// current pass's upper steps, including the root's label*t0 step.
//
// Early solves are reconciled by sequential index: the executor keeps
// the earliest step observed to finish its search, which can only
// move earlier. Operations after it are never started, and the run is
// over once every operation before it has completed. The Result is
// then the sequential one, rebuilt from the winning step's plan
// record. Work done after that step (speculative leaves and steps of
// its pass or of the pass planned ahead) burns otherwise idle cores
// but never leaks into the Result; ExecStats reports it separately,
// and steps still in flight are stopped at their next chunk boundary.
//
// The executor assumes the search.Search contract that Step consumes
// its full budget unless the search finishes; both search.Run and
// markov.Walk satisfy it. It additionally requires what the
// sequential oracle already requires for determinism: the factory
// must be deterministic in the id it is given.

// ExecStats reports counters from one concurrent tree execution,
// surfaced through cmd/bench. All iteration counts are in the paper's
// search-loop iteration unit.
type ExecStats struct {
	// Workers is the size of the worker pool used.
	Workers int
	// Passes is the number of doubling passes planned, counting the
	// initial root run as the first pass. On an early solve it can
	// include the pass after the winner's, planned ahead.
	Passes int
	// SearchesLive is the number of searches created. On an early
	// solve this can exceed Result.Searches: leaves planned after the
	// winning step, in its pass or the next, are speculative.
	SearchesLive int
	// Steps counts planned steps executed; Skipped counts planned
	// steps never started because an earlier step had already
	// finished its search or the run was cancelled.
	Steps, Skipped int64
	// BudgetSpent is the number of iterations actually consumed by
	// Step calls, including speculative work past the winning step.
	BudgetSpent int64
	// BudgetStranded is the portion of the budget never consumed
	// (nonzero only when a search finishes early).
	BudgetStranded int64
	// Speculated is the part of BudgetSpent that the sequential
	// oracle would not have run (BudgetSpent - Result.Iterations):
	// steps after the winning one, in its pass or the next.
	Speculated int64
	// Swaps is the number of adaptive parent swaps performed.
	Swaps int64
	// Utilization is the busy fraction of the worker pool over the
	// run's wall-clock time, in [0, 1].
	Utilization float64
}

// op is one operation of the sequential schedule: a Step of node's
// search or, when parent is set, the adaptive swap of node's search
// with its parent's. The plan fields are written by the planner before
// the op is published; waits, next and finished are guarded by
// treeExec.mu; the outcome fields are written by the one worker that
// runs the op and read under mu or after the workers have exited.
type op struct {
	index  int // position in the sequential schedule of the whole run
	node   *treeNode
	parent *treeNode
	grant  int64
	// before is the sequential Result.Iterations before this step and
	// searchesAfter its Result.Searches once the step completes
	// (counting the leaf creations that precede it).
	before        int64
	searchesAfter int
	deps          [2]*op // previous ops on node and parent; planner only

	waits    int   // deps not yet finished
	next     []*op // ops waiting on this one
	finished bool

	used    int64
	done    bool // the step finished its search
	cut     bool // the step returned early under a cancelled context
	swapped bool
	s       search.Search // the search that finished
	busy    time.Duration
}

// opHeap is the ready queue, a min-heap on sequential index.
type opHeap []*op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].index < h[j].index }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	o := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return o
}

// treeExec carries the state of one concurrent strategy execution.
type treeExec struct {
	cfg     *Tree
	factory search.Factory
	budget  int64
	// run is the caller's context, also cancelled by stop once the
	// outcome is fixed, so speculative steps end early.
	run  context.Context
	stop context.CancelFunc

	// Planner state (the calling goroutine only).
	planned  int64             // iterations scheduled so far == sequential res.Iterations
	searches int               // factory calls so far == sequential res.Searches
	stopped  bool              // the budget wall was reached
	nops     int               // ops planned so far
	stepOps  int64             // step ops planned so far
	last     map[*treeNode]*op // the latest op planned on each node
	pending  []*op             // planned but not yet published

	mu        sync.Mutex
	cond      *sync.Cond // signals new ready ops, finished ops and the end of the run
	ready     opHeap
	active    []*op // the op each worker is running, or nil
	published int
	planning  bool
	cancelled bool // the caller's context (or a step returning early) ended the run
	over      bool // the outcome is fixed; workers exit
	win       *op  // the earliest step that finished its search
	steps     int64
	spent     int64
	swaps     int64
	busy      time.Duration
}

// runConcurrent executes the tree strategy on a fixed pool of Workers
// goroutines while the calling goroutine plans. Called from
// Tree.RunContext when Workers > 1. Cancellation is observed at
// dispatch (pending ops are never started) and inside in-flight steps
// (chunked stepping); a cancelled execution settles with exact
// spent-iteration accounting instead of the planner's totals.
func (t *Tree) runConcurrent(ctx context.Context, f search.Factory, budget int64) Result {
	run, stop := context.WithCancel(ctx)
	defer stop()
	e := &treeExec{
		cfg:      t,
		factory:  f,
		budget:   budget,
		run:      run,
		stop:     stop,
		last:     make(map[*treeNode]*op),
		active:   make([]*op, t.Workers),
		planning: true,
	}
	e.cond = sync.NewCond(&e.mu)
	stopWatch := context.AfterFunc(ctx, e.cancel)
	defer stopWatch()
	start := time.Now()

	// Workers exit only once the run is over, so the Wait below is
	// also the wait for the outcome.
	var wg sync.WaitGroup
	wg.Add(t.Workers)
	for w := range t.Workers {
		go func() {
			defer wg.Done()
			e.work(w)
		}()
	}
	passes := e.plan()
	wg.Wait()
	res := e.result()

	wall := time.Since(start)
	stats := &ExecStats{
		Workers:        t.Workers,
		Passes:         passes,
		SearchesLive:   e.searches,
		Steps:          e.steps,
		Skipped:        e.stepOps - e.steps,
		BudgetSpent:    e.spent,
		BudgetStranded: max(budget-e.spent, 0),
		Speculated:     e.spent - res.Iterations,
		Swaps:          e.swaps,
	}
	if wall > 0 {
		stats.Utilization = float64(e.busy) / (float64(wall) * float64(t.Workers))
	}
	res.Exec = stats
	if h := t.Obs; h != nil {
		// Split the executor's spend into the iterations the sequential
		// oracle would have run (the Result's count) and pure
		// speculation past the winning step.
		h.UsefulIters.Add(float64(res.Iterations))
		if stats.Speculated > 0 {
			h.SpeculatedIters.Add(float64(stats.Speculated))
		}
	}
	return res
}

// result rebuilds the sequential Result once the workers have exited.
func (e *treeExec) result() Result {
	// Unsolved, every planned grant was consumed, so the sequential
	// totals are the planner's.
	res := Result{Iterations: e.planned, Searches: e.searches}
	if w := e.win; w != nil {
		// The earliest finishing step is where the sequential run
		// stops. Every step before it ran its full grant (none
		// finished, and the Search contract makes Step consume its
		// whole grant otherwise); the winner adds what it used.
		res = Result{Solved: true, Winner: w.s, Iterations: w.before + w.used, Searches: w.searchesAfter}
	}
	if e.cancelled {
		// Cancellation forfeits the bit-identical replay (steps may
		// have been skipped or cut short mid-grant), so report the
		// exact work performed instead. A solve that raced the
		// cancellation still wins.
		res.Iterations = e.spent
		res.Cancelled = !res.Solved
	}
	return res
}

// plan emits the sequential schedule pass by pass and returns the
// number of passes begun. It runs on the calling goroutine, so the
// factory, the trace events and the grant histogram see the
// sequential order.
func (e *treeExec) plan() int {
	defer e.endPlanning()
	// The initial tree is a single 1-labeled node run for t0; it is
	// the first pass.
	passes := 1
	e.notePass(passes)
	root := e.newLeaf()
	e.step(root, 1)
	// ends[p] is the number of ops in passes 1..p. Pass p+1 is planned
	// once pass p-1 has finished: at most one pass ahead of the oldest
	// unfinished one.
	ends := []int{0, e.publish()}
	for !e.stopped && e.await(ends[passes-1]) {
		passes++
		e.notePass(passes)
		e.visit(root, nil)
		ends = append(ends, e.publish())
	}
	return passes
}

// notePass mirrors treeRun.notePass for the concurrent executor; it
// runs on the planning goroutine between passes.
func (e *treeExec) notePass(pass int) {
	h := e.cfg.Obs
	if h == nil {
		return
	}
	h.Passes.Inc()
	if h.Tracer != nil {
		h.Tracer.Emit("tree_pass", map[string]any{
			"strategy": e.cfg.Name(), "pass": pass,
			"searches": e.searches, "iterations": e.planned,
		})
	}
}

// newLeaf mirrors treeRun.newLeaf: factory ids are assigned in
// traversal order, which the planner visits exactly as the sequential
// oracle does. The restart_fire events are emitted here, on the
// single planning goroutine, so their order in the trace matches the
// sequential schedule.
func (e *treeExec) newLeaf() *treeNode {
	s := e.factory(uint64(e.searches))
	e.searches++
	if h := e.cfg.Obs; h != nil {
		h.Restarts.Inc()
		if h.Tracer != nil {
			h.Tracer.Emit("restart_fire", map[string]any{
				"strategy": e.cfg.Name(), "search": uint64(e.searches - 1), "cutoff": e.cfg.T0,
			})
		}
	}
	return &treeNode{label: 1, s: s}
}

// visit plans one doubling pass over the subtree rooted at n,
// mirroring treeRun.visit op for op: a pre-existing leaf sprouts up
// to two fresh 1-labeled leaves (stopping at the search cap), each
// stepped for t0 and then swapped with n; children are visited in
// order; n then steps for label*t0, doubles its label and swaps with
// parent. It returns false where the sequential traversal unwinds at
// the budget wall.
func (e *treeExec) visit(n, parent *treeNode) bool {
	if len(n.children) == 0 {
		for i := 0; i < 2; i++ {
			if e.cfg.MaxSearches > 0 && e.searches >= e.cfg.MaxSearches {
				break
			}
			c := e.newLeaf()
			n.children = append(n.children, c)
			if !e.step(c, 1) {
				return false
			}
			e.swap(c, n)
		}
	} else {
		for _, c := range n.children {
			if !e.visit(c, n) {
				return false
			}
		}
	}
	if !e.step(n, n.label) {
		return false
	}
	n.label *= 2
	e.swap(n, parent)
	return true
}

// step plans a Step of n for units*t0 iterations, mirroring
// treeRun.run's budget arithmetic: the grant is clipped to the
// remaining budget, and a grant that reaches the budget wall ends the
// run. It returns false at the wall.
func (e *treeExec) step(n *treeNode, units int64) bool {
	iters := units * e.cfg.T0
	if remaining := e.budget - e.planned; iters >= remaining {
		iters = max(remaining, 0)
		e.stopped = true
	}
	if iters > 0 {
		if h := e.cfg.Obs; h != nil {
			h.CutoffIters.Observe(float64(iters))
		}
		e.add(&op{node: n, grant: iters, before: e.planned, searchesAfter: e.searches})
		e.planned += iters
		e.stepOps++
	}
	return !e.stopped
}

// swap plans the adaptive rule for n and its parent (none for the
// root, or under parallel Luby).
func (e *treeExec) swap(n, parent *treeNode) {
	if e.cfg.Adaptive && parent != nil {
		e.add(&op{node: n, parent: parent})
	}
}

// add numbers o and makes it wait for the previous op on each node it
// touches.
func (e *treeExec) add(o *op) {
	o.index = e.nops
	e.nops++
	o.deps[0], e.last[o.node] = e.last[o.node], o
	if o.parent != nil {
		o.deps[1], e.last[o.parent] = e.last[o.parent], o
	}
	e.pending = append(e.pending, o)
}

// publish hands the pending ops to the workers and returns the number
// of ops published so far.
func (e *treeExec) publish() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.pending {
		for _, d := range o.deps {
			if d != nil && !d.finished {
				d.next = append(d.next, o)
				o.waits++
			}
		}
		o.deps = [2]*op{} // finished ops must not stay reachable
		if o.waits == 0 {
			heap.Push(&e.ready, o)
		}
	}
	e.published += len(e.pending)
	e.pending = e.pending[:0]
	e.cond.Broadcast()
	return e.published
}

// await blocks until every op before limit has finished and reports
// whether planning should go on: it stops once the run is over, a
// search has finished or the context is cancelled.
func (e *treeExec) await(limit int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.live() && e.lowest() < limit {
		e.cond.Wait()
	}
	return e.live()
}

// live reports whether the run may still need more ops. Called with
// mu held.
func (e *treeExec) live() bool { return !e.over && !e.cancelled && e.win == nil }

// endPlanning records that the planner has stopped.
func (e *treeExec) endPlanning() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planning = false
	e.checkOver()
}

// cancel marks the run cancelled by the caller's context, unless its
// outcome is already fixed.
func (e *treeExec) cancel() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.over {
		e.cancelled = true
		e.checkOver()
		e.cond.Broadcast()
	}
}

// work is one pool worker: it runs ready ops, lowest index first,
// until the run is over.
func (e *treeExec) work(slot int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for !e.over && len(e.ready) == 0 {
			e.cond.Wait()
		}
		if e.over {
			return
		}
		o := heap.Pop(&e.ready).(*op)
		if e.cancelled || (e.win != nil && o.index > e.win.index) {
			e.checkOver() // never started; it may have been the last obstacle
			continue
		}
		e.active[slot] = o
		e.mu.Unlock()
		e.exec(o)
		e.mu.Lock()
		e.active[slot] = nil
		e.finish(o)
	}
}

// exec runs one op outside the lock. Its predecessors have finished
// and its successors wait for it, so it owns the searches it touches.
func (e *treeExec) exec(o *op) {
	if o.parent != nil {
		o.swapped = e.applySwap(o.node, o.parent)
		return
	}
	s := o.node.s
	begin := time.Now()
	o.used, o.done, o.cut = stepCtx(e.run, s, o.grant)
	o.busy = time.Since(begin)
	if o.done {
		o.s = s
	}
}

// applySwap applies the adaptive rule: swap the child's search with
// the parent's if the parent's cost is higher.
func (e *treeExec) applySwap(n, parent *treeNode) bool {
	if parent.s.Cost() <= n.s.Cost() {
		return false
	}
	parent.s, n.s = n.s, parent.s
	if h := e.cfg.Obs; h != nil {
		h.Swaps.Inc()
		if h.Tracer != nil {
			h.Tracer.Emit("tree_promote", map[string]any{
				"strategy": e.cfg.Name(),
				"cost":     parent.s.Cost(), "displaced": n.s.Cost(),
			})
		}
	}
	return true
}

// finish records a completed op and releases the ops waiting on it.
// Called with mu held.
func (e *treeExec) finish(o *op) {
	o.finished = true
	if o.parent == nil {
		e.steps++
		e.spent += o.used
		e.busy += o.busy
		if o.done && (e.win == nil || o.index < e.win.index) {
			e.win = o
		}
		if o.cut && !e.over {
			e.cancelled = true
		}
	} else if o.swapped {
		e.swaps++
	}
	for _, n := range o.next {
		if n.waits--; n.waits == 0 {
			heap.Push(&e.ready, n)
		}
	}
	o.next = nil
	e.checkOver()
	e.cond.Broadcast()
}

// lowest returns the index of the earliest op that is ready or
// running, or the number published when there is none. An op waits
// only on earlier ops, and only ops after the winning step (or after
// a cancellation) are left unstarted, so until then this is the
// earliest unfinished op. Called with mu held.
func (e *treeExec) lowest() int {
	low := e.published
	if len(e.ready) > 0 {
		low = e.ready[0].index
	}
	for _, o := range e.active {
		if o != nil && o.index < low {
			low = o.index
		}
	}
	return low
}

// idle reports whether no worker is running an op. Called with mu
// held.
func (e *treeExec) idle() bool {
	for _, o := range e.active {
		if o != nil {
			return false
		}
	}
	return true
}

// checkOver fixes the outcome once it can no longer change: after a
// cancellation, when no op is running; after a solve, when every op
// before the winning step has finished; otherwise when the planner has
// stopped and every op has finished. Steps still in flight then see
// their context cancelled. Called with mu held.
func (e *treeExec) checkOver() {
	if e.over {
		return
	}
	switch {
	case e.cancelled:
		e.over = e.idle()
	case e.win != nil:
		e.over = e.lowest() > e.win.index
	default:
		e.over = !e.planning && e.lowest() == e.published
	}
	if e.over {
		e.stop()
		e.cond.Broadcast()
	}
}
