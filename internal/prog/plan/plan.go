// Package plan compiles candidate programs into flat evaluation
// plans: linear instruction tapes of fused column kernels that the
// search inner loop executes with no per-case opcode dispatch and no
// allocation.
//
// The engine keeps one committed value column per node across all
// suite cases and recomputes, per proposal, only the columns the edit
// journal says can have changed. A full compile at Reset turns the
// program into a tape of op-specialized kernels over pre-resolved
// operand columns, with constant operands folded to immediates via the
// absint facts of internal/prog/analysis/absint (sound over the suite's
// input set), and an incremental recompile path re-lowers only the
// journal-dirty nodes on each move. Dirty nodes a proposal leaves
// unreachable from the root are elided from the cost path entirely
// (ReachableFrom mask) and materialized only if the move commits.
//
// State has the same lifecycle as the from-scratch reference engine
// prog.RefEval (Reset / Begin / EvalRange / Commit / Abort), a
// double-buffered column discipline (header-swap Commit, free Abort),
// and value columns bit-identical to Program.Eval by construction —
// every kernel body is the corresponding evalOp arm, folding is exact,
// and case order is preserved. The differential harness in
// internal/search (FuzzIncrementalEval) pins the plan and reference
// arms to identical trajectories.
//
// Full compiles are amortized by a shape-keyed recipe cache shared by
// all States on the same suite (restart-heavy searches re-seed from
// identical or previously seen programs constantly), so a restart
// usually re-binds a cached tape instead of re-lowering.
package plan

import (
	mathbits "math/bits"
	"weak"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/testcase"
)

// Stats counts the compiler's work: full tape compiles (cache
// misses), cache hits, incremental tape patches (dirty nodes
// re-lowered across proposals), and nodes lowered to a fused form
// (constant-folded whole, or an immediate-operand kernel variant).
type Stats struct {
	Compiles   int64
	CacheHits  int64
	Patches    int64
	FusedNodes int64
}

// Sub returns the element-wise difference s - o (for delta flushes).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Compiles:   s.Compiles - o.Compiles,
		CacheHits:  s.CacheHits - o.CacheHits,
		Patches:    s.Patches - o.Patches,
		FusedNodes: s.FusedNodes - o.FusedNodes,
	}
}

// tapeEntry is one bound instruction of a tape: a kernel plus its
// resolved destination and operand columns and folded immediate.
// Proposal entries are fully bound at Begin so tape execution touches
// no other engine state; the kernel is called with a pointer to its own
// entry (t.kern(t, c0, c1)) and loads only the fields it uses.
type tapeEntry struct {
	kern kernel
	dst  []uint64
	a, b []uint64
	imm  uint64
}

// State is the compiled evaluation engine: committed columns and
// proposal shadow columns over one backing array, computed by tape
// execution. A State is single-threaded, owned by one search run.
type State struct {
	p      *prog.Program
	suite  *testcase.Suite
	ncases int

	// key is the suite's recipe-cache handle (a weak pointer, so the
	// cache never keeps a suite alive), made once at New; targets is
	// the suite's desired outputs as one dense column, copied at New so
	// the cost loops read 8 bytes per case instead of striding through
	// testcase.Case.
	key     weak.Pointer[testcase.Suite]
	targets []uint64

	// cols[i] is the committed value column of node i; prop[i] the
	// proposal shadow. Commit swaps headers, never copies values.
	cols [prog.MaxNodes][]uint64
	prop [prog.MaxNodes][]uint64

	// inFacts are the suite's input facts, shared by every State on the
	// suite through the recipe cache (read-only); facts is the Analyze
	// scratch buffer reused across full compiles.
	inFacts []absint.Value
	facts   []absint.Value

	// pops[i] caches the facts-free (patch-path) lowering of committed
	// node i, with pargs[i] holding the bitmask of its pre-fold
	// argument indices and popsFused marking immediate-form lowerings.
	// Begin re-lowers only the nodes the cache cannot serve: journal
	// seeds (their op/args changed) and nodes with a seed argument (a
	// seed arg's constness may have changed, invalidating the cached
	// syntactic fold). Everything else — the bulk of each dirty closure
	// — reuses the cached op. The cache is maintained at Reset (full
	// build) and Commit (dirty slots from this proposal's lowerings,
	// renumbered in place when the edit's GC found dead nodes); aborted
	// proposals never touch it. Sized 32 (not MaxNodes) so that indices
	// produced by bits.TrailingZeros32 masked with &31 are provably in
	// range and the hot Begin loops compile without bounds checks.
	pops      [32]compiledOp
	pargs     [32]uint32
	popsFused uint32

	// Active proposal state (between Begin and Commit/Abort). tape
	// holds one fully bound entry per live dirty node (read by the
	// cost path); dtape holds the dirty nodes the proposal leaves
	// unreachable from the root — EvalRange never runs those (they
	// cannot affect the cost, and on a rejected proposal they are
	// never computed at all) and Commit materializes them so the
	// committed matrix stays exact for every node. Both tapes are in
	// topological order.
	j         *prog.Journal
	dirty     uint32
	dirtyList [32]int32
	tape      [prog.MaxNodes]tapeEntry
	dtape     [prog.MaxNodes]tapeEntry
	rootCol   []uint64
	ndirty    int
	nlive     int
	ndefer    int

	// Begin scratch, indexed by proposal node index; only slots in the
	// active dirty set are meaningful. ops holds this proposal's
	// lowerings (Commit folds them back into pops), opsFused the fused
	// flags, am the dirty-argument masks driving the topological
	// ready-scan and the root-reachability sweep.
	ops      [32]compiledOp
	opsFused uint32
	am       [32]uint32

	estats prog.EvalStats
	pstats Stats
}

// New builds a compiled engine for the suite, with the permanent
// input-node columns filled in. Call Reset to bind a program.
func New(s *testcase.Suite) *State {
	n := s.Len()
	e := &State{suite: s, ncases: n, targets: make([]uint64, n)}
	e.key, e.inFacts = registerSuite(s)
	backing := make([]uint64, 2*prog.MaxNodes*n)
	for i := 0; i < prog.MaxNodes; i++ {
		e.cols[i] = backing[i*n : (i+1)*n : (i+1)*n]
		e.prop[i] = backing[(prog.MaxNodes+i)*n : (prog.MaxNodes+i+1)*n : (prog.MaxNodes+i+1)*n]
	}
	for i := 0; i < s.NumInputs; i++ {
		col := e.cols[i]
		for c := range s.Cases {
			col[c] = s.Cases[c].Inputs[i]
		}
	}
	for c := range s.Cases {
		e.targets[c] = s.Cases[c].Output
	}
	return e
}

// Suite returns the suite the engine evaluates against.
func (e *State) Suite() *testcase.Suite { return e.suite }

// Targets returns the suite's desired outputs as one dense column in
// case order: Targets()[c] == Suite().Cases[c].Output.
func (e *State) Targets() []uint64 { return e.targets }

// Program returns the program the committed columns describe.
func (e *State) Program() *prog.Program { return e.p }

// Stats returns the cumulative evaluation-work counters, with the
// same semantics as prog.RefEval.Stats (proposal path only).
func (e *State) Stats() prog.EvalStats { return e.estats }

// PlanStats returns the cumulative compilation counters.
func (e *State) PlanStats() Stats { return e.pstats }

// RootColumn returns the committed value column of the program root.
func (e *State) RootColumn() []uint64 { return e.cols[e.p.Root] }

// CaseValues writes the committed value of every node on suite case c
// into dst, the engine counterpart of Program.Eval's all-node output
// (used by the redundancy move's signature probes).
func (e *State) CaseValues(c int, dst []uint64) {
	for i := 0; i < len(e.p.Nodes); i++ {
		dst[i] = e.cols[i][c]
	}
}

// Reset binds p, compiles it to a full tape (or re-binds a cached
// recipe for a previously seen shape), and executes the tape to
// populate every committed column. Used at search start and at
// restarts; the incremental path never needs it.
func (e *State) Reset(p *prog.Program) {
	if p.NumInputs != e.suite.NumInputs {
		panic("plan: State.Reset program/suite input arity mismatch")
	}
	e.p = p
	e.j = nil
	rec, hit := lookupRecipe(e, p)
	if hit {
		e.pstats.CacheHits++
	} else {
		e.pstats.Compiles++
	}
	e.pstats.FusedNodes += rec.fused
	// Each node is bound into the first live-tape entry and run at
	// once: no proposal is active, so that entry is free, and binding
	// it in place keeps the kernel call from allocating.
	t := &e.tape[0]
	for _, i := range rec.order {
		if int(i) < p.NumInputs {
			continue // permanent, precomputed
		}
		op := &rec.ops[i]
		*t = tapeEntry{kern: op.kern, dst: e.cols[i], imm: op.imm}
		if op.argA >= 0 {
			t.a = e.cols[op.argA]
		}
		if op.argB >= 0 {
			t.b = e.cols[op.argB]
		}
		e.checkBinding(t)
		t.kern(t, 0, e.ncases)
	}
	e.rebuildPops()
}

// checkBinding panics unless every column bound to t holds exactly
// ncases words. The vector kernels index their columns without bounds
// checks, so each binding is checked once, where it is made (Reset, and
// Begin for the live and deferred tapes), instead of once per case.
func (e *State) checkBinding(t *tapeEntry) {
	n := e.ncases
	if len(t.dst) != n || t.a != nil && len(t.a) != n || t.b != nil && len(t.b) != n {
		panic("plan: tape entry bound to a column without one word per case")
	}
}

// compileFull lowers every node of p into a shareable recipe, folding
// absint facts: a node the analysis pins to a single value over the
// suite's inputs compiles to a constant fill, and an operand pinned
// the same way folds to an immediate-form kernel. Facts are sound for
// exactly the suite's cases (InputFacts is their join), so folding is
// value-preserving on every column the engine computes.
func (e *State) compileFull(p *prog.Program) *recipe {
	e.facts = absint.Analyze(p, e.inFacts, e.facts)
	rec := &recipe{order: append([]int32(nil), p.TopoOrder()...), ops: make([]compiledOp, len(p.Nodes))}
	for i := range p.Nodes {
		if i < p.NumInputs {
			continue
		}
		var fused bool
		rec.ops[i], fused = compileNode(p, int32(i), e.facts)
		if fused {
			rec.fused++
		}
	}
	return rec
}

// compiledOp is one unbound tape instruction: the kernel and the node
// indices of its column operands (-1 when folded to imm or unused).
type compiledOp struct {
	kern kernel
	argA int32
	argB int32
	imm  uint64
}

// exactVal reports a compile-time-known constant value for node n. On
// the full-compile path (facts non-nil) it consults the absint facts;
// on the incremental patch path (facts nil) only syntactic OpConst
// nodes fold — running the analysis per proposal would cost more than
// it saves, and the facts buffer is stale against the edited program.
func exactVal(p *prog.Program, facts []absint.Value, n int32) (uint64, bool) {
	if facts != nil {
		return facts[n].Exact()
	}
	if nd := &p.Nodes[n]; nd.Op == prog.OpConst {
		return nd.Val, true
	}
	return 0, false
}

// compileNode lowers node i to a kernel and operand bindings, folding
// constants known to exactVal. Returns the lowered op and whether any
// folding happened (for the fused-nodes counter).
func compileNode(p *prog.Program, i int32, facts []absint.Value) (compiledOp, bool) {
	nd := &p.Nodes[i]
	switch nd.Op {
	case prog.OpConst:
		return compiledOp{kern: fill, argA: -1, argB: -1, imm: nd.Val}, false
	case prog.OpInput:
		// Defensive: body nodes are never inputs, but compile to a copy
		// of the input column if one lands here.
		return compiledOp{kern: kCopy, argA: int32(nd.Val), argB: -1}, false
	}
	if v, ok := exactVal(p, facts, i); ok {
		// The whole node is pinned to one value across the suite.
		return compiledOp{kern: fill, argA: -1, argB: -1, imm: v}, true
	}
	ks := &fusion[nd.Op]
	if ks.VV == nil {
		panic("plan: no kernel for opcode " + nd.Op.String())
	}
	a := nd.Args[0]
	if nd.Op.Arity() == 1 {
		if va, ok := exactVal(p, facts, a); ok {
			return compiledOp{kern: fill, argA: -1, argB: -1, imm: prog.EvalOp(nd.Op, va, 0)}, true
		}
		return compiledOp{kern: ks.VV, argA: a, argB: -1}, false
	}
	b := nd.Args[1]
	va, aok := exactVal(p, facts, a)
	vb, bok := exactVal(p, facts, b)
	switch {
	case aok && bok:
		return compiledOp{kern: fill, argA: -1, argB: -1, imm: prog.EvalOp(nd.Op, va, vb)}, true
	case bok && ks.VI != nil:
		return compiledOp{kern: ks.VI, argA: a, argB: -1, imm: vb}, true
	case aok && prog.Commutative(nd.Op) && ks.VI != nil:
		return compiledOp{kern: ks.VI, argA: b, argB: -1, imm: va}, true
	case aok && ks.IV != nil:
		return compiledOp{kern: ks.IV, argA: -1, argB: b, imm: va}, true
	}
	return compiledOp{kern: ks.VV, argA: a, argB: b}, false
}

// argMask returns the bitmask of n's (pre-fold) argument indices.
func argMask(n *prog.Node) uint32 {
	var pa uint32
	for a := 0; a < n.Op.Arity(); a++ {
		pa |= 1 << uint(n.Args[a])
	}
	return pa
}

// rebuildPops relowers every committed body node into the patch-path
// cache: the facts-free compiledOp, the pre-fold argument mask, and
// the fused bit. O(nodes); runs at Reset, where committed indices
// change wholesale.
func (e *State) rebuildPops() {
	p := e.p
	e.popsFused = 0
	for i := p.NumInputs; i < len(p.Nodes); i++ {
		op, fused := compileNode(p, int32(i), nil)
		e.pops[i] = op
		if fused {
			e.popsFused |= 1 << uint(i)
		}
		e.pargs[i] = argMask(&p.Nodes[i])
	}
}

// Begin starts a proposal against the journaled in-place edit: it
// closes the journal's dirty seeds over transitive users, lowers each
// dirty node (reusing the pops cache wherever the node and its
// arguments are unedited), orders the closure topologically, and binds
// fully resolved proposal tapes (operand columns resolved to the
// shadow buffer for dirty operands, the committed column otherwise),
// split into a live tape the cost path executes and a deferred tape of
// root-unreachable nodes that Commit materializes.
//
// The closure is a bitmask worklist over the program's user masks
// (Program.UserClosure), which the journaling mutators keep exact for
// the edited proposal. Nodes the edit's GC found dead are left out:
// nothing live reads them and EndEdit removes them. Compaction waits
// for EndEdit, so a clean node's committed column sits at its proposal
// index.
//
// Ordering and deferral both run on the post-fold dirty-argument
// masks (e.am): an operand folded to an immediate is no longer a
// column dependency, so a dirty constant all of whose users folded it
// away drops off the live tape entirely and is materialized at
// Commit like any other deferred node.
func (e *State) Begin(j *prog.Journal) {
	e.j = j
	p := e.p
	dead := j.Dead()
	seeds := j.Dirty() &^ dead
	dirty := seeds
	nd := 0
	if seeds != 0 {
		dirty = p.UserClosure(seeds, dead)
		// Lower every dirty node — cache hit unless the node or one of
		// its (pre-fold) arguments is a seed — and record its post-fold
		// dirty-argument mask, which drives both the topological
		// ready-scan and the reachability sweep below as pure bitmask
		// loops.
		e.opsFused = 0
		for m := dirty; m != 0; {
			i := mathbits.TrailingZeros32(m) & 31
			bit := uint32(1) << uint(i)
			m &^= bit
			var op compiledOp
			var fused bool
			if seeds&bit == 0 && e.pargs[i]&seeds == 0 {
				op = e.pops[i]
				fused = e.popsFused&bit != 0
			} else {
				op, fused = compileNode(p, int32(i), nil)
			}
			e.ops[i] = op
			if fused {
				e.opsFused |= bit
				e.pstats.FusedNodes++
			}
			var am uint32
			if op.argA >= 0 {
				am |= 1 << uint(op.argA)
			}
			if op.argB >= 0 {
				am |= 1 << uint(op.argB)
			}
			e.am[i] = am & dirty
		}
		// Order the closure with a ready-scan restricted to the dirty
		// set (typically 2-6 nodes): a node is ready once its dirty
		// arguments are all placed. Clean arguments are committed
		// columns, always available.
		placed := uint32(0)
		for rem := dirty; rem != 0; {
			progress := false
			for m := rem; m != 0; {
				i := mathbits.TrailingZeros32(m) & 31
				bit := uint32(1) << uint(i)
				m &^= bit
				if e.am[i]&^placed != 0 {
					continue
				}
				e.dirtyList[nd&31] = int32(i)
				nd++
				placed |= bit
				rem &^= bit
				progress = true
			}
			if !progress {
				panic("plan: cycle in dirty closure")
			}
		}
	}
	e.dirty = dirty
	e.ndirty = nd
	// Root reachability restricted to the dirty set. Every live user of
	// a dirty node is itself dirty (that is what the closure closes
	// over), so any root-to-dirty-node path runs through dirty nodes
	// only: a dirty node is root-reachable iff the root is dirty and
	// reaches it through dirty users. One backward sweep over the
	// topologically ordered dirty list settles that — no full-graph
	// DFS needed.
	reach := dirty & (1 << uint(p.Root))
	for k := nd - 1; k >= 0; k-- {
		i := int(e.dirtyList[k&31]) & 31
		if reach&(1<<uint(i)) != 0 {
			reach |= e.am[i]
		}
	}
	// Bind the proposal tapes: destination and operand columns resolve
	// once for this proposal's lifetime, live entries and deferred
	// entries each in topological order.
	e.nlive, e.ndefer = 0, 0
	for k := 0; k < nd; k++ {
		i := int(e.dirtyList[k&31]) & 31
		op := &e.ops[i]
		var t *tapeEntry
		if reach&(1<<uint(i)) != 0 {
			t = &e.tape[e.nlive]
			e.nlive++
		} else {
			t = &e.dtape[e.ndefer]
			e.ndefer++
		}
		t.kern = op.kern
		t.dst = e.prop[i]
		t.imm = op.imm
		t.a = e.column(op.argA)
		t.b = e.column(op.argB)
		e.checkBinding(t)
	}
	e.rootCol = e.column(p.Root)
	e.pstats.Patches += int64(nd)
	e.estats.NodesReevaluated += int64(nd)
	e.estats.NodesTotal += int64(len(p.Nodes) - mathbits.OnesCount32(dead))
	e.estats.CasesTotal += int64(e.ncases)
}

// column resolves node i of the active proposal to the column holding
// its value: the shadow buffer when the proposal recomputes it, the
// committed column otherwise, nil for a folded operand (i < 0).
func (e *State) column(i int32) []uint64 {
	switch {
	case i < 0:
		return nil
	case e.dirty&(1<<uint(i)) != 0:
		return e.prop[i]
	}
	return e.cols[i]
}

// RunTape executes the live proposal tape for suite cases [c0, c1)
// without resolving a root sub-column — the fused cost path
// (cost.Kind.OfPlan) reads the root once via ProposalRoot instead of
// reslicing per run, and runs ranges of several EvalChunk blocks when
// the bound allows. Work accounting matches EvalRange exactly (it is
// EvalRange minus the reslice). The range must lie within the suite:
// the vector kernels do not check it per case, so it is checked here.
func (e *State) RunTape(c0, c1 int) {
	if c0 < 0 || c0 > c1 || c1 > e.ncases {
		panic("plan: RunTape range outside the suite")
	}
	tape := e.tape[:e.nlive]
	for k := range tape {
		t := &tape[k]
		t.kern(t, c0, c1)
	}
	e.estats.CasesEvaluated += int64(c1 - c0)
}

// ProposalRoot returns the active proposal's full root value column;
// entries for cases [c0, c1) are valid once RunTape(c0, c1) has run.
func (e *State) ProposalRoot() []uint64 { return e.rootCol }

// EvalRange runs the live proposal tape for suite cases [c0, c1) and
// returns the proposal's root values for that range. Consumers pull
// blocks in case order and may stop early; Commit requires every
// block to have been pulled.
func (e *State) EvalRange(c0, c1 int) []uint64 {
	e.RunTape(c0, c1)
	return e.rootCol[c0:c1]
}

// Commit adopts the proposal: deferred entries are materialized (the
// committed matrix must be exact for every node — CaseValues feeds
// the redundancy probes), the recomputed shadow columns are swapped in
// with this proposal's lowerings, and when the edit's GC found dead
// nodes the columns and the patch cache are re-homed to the indices
// EndEdit gives the survivors. Header permutation only, no value copies
// beyond the deferred fills. Commit must precede EndEdit.
func (e *State) Commit() {
	j := e.j
	if e.p.Journal() != j {
		panic("plan: Commit after the program's edit ended")
	}
	// The deferred tape is in topological order and unreachable nodes
	// only feed unreachable nodes, so tape order is execution order.
	for k := 0; k < e.ndefer; k++ {
		t := &e.dtape[k]
		t.kern(t, 0, e.ncases)
	}
	// Adopt the proposal lowerings for the edited slots. The facts-free
	// patch compile is exactly what Begin produced for them
	// (compileNode with nil facts), so no relowering is needed; only
	// the pre-fold argument masks are recomputed from the now committed
	// nodes.
	for mask := e.dirty; mask != 0; {
		i := mathbits.TrailingZeros32(mask) & 31
		bit := uint32(1) << uint(i)
		mask &^= bit
		e.cols[i], e.prop[i] = e.prop[i], e.cols[i]
		e.pops[i] = e.ops[i]
		e.pargs[i] = argMask(&e.p.Nodes[i])
		e.popsFused = e.popsFused&^bit | e.opsFused&bit
	}
	if dead := j.Dead(); dead != 0 {
		e.compact(dead)
	}
	e.j = nil
	e.dirty = 0
	e.ndirty = 0
	e.nlive = 0
	e.ndefer = 0
}

// compact re-homes the committed columns and the patch cache to the
// numbering EndEdit gives the survivors of dead (prog.Remap): survivors
// move down in order, so ascending swaps never clobber a column still
// needed (a dead node's buffer lands in the vacated slot), and every
// cached lowering's operand indices and argument mask are renumbered in
// place. The cache cannot instead be rebuilt at the next Begin: by then
// the next move has already edited the program.
func (e *State) compact(dead uint32) {
	var remap [prog.MaxNodes]int32
	n := len(e.p.Nodes)
	w := prog.Remap(uint64(dead), remap[:n])
	for i, to := range remap[:n] {
		if to < 0 || int(to) == i {
			continue
		}
		bit, wbit := uint32(1)<<uint(i), uint32(1)<<uint(to)
		e.cols[to], e.cols[i] = e.cols[i], e.cols[to]
		e.pops[to], e.pargs[to] = e.pops[i], e.pargs[i]
		e.popsFused &^= wbit
		if e.popsFused&bit != 0 {
			e.popsFused |= wbit
		}
	}
	for i := e.p.NumInputs; i < w; i++ {
		op := &e.pops[i]
		if op.argA >= 0 {
			op.argA = remap[op.argA]
		}
		if op.argB >= 0 {
			op.argB = remap[op.argB]
		}
		var pa uint32
		for m := e.pargs[i]; m != 0; m &= m - 1 {
			pa |= 1 << uint(remap[mathbits.TrailingZeros32(m)])
		}
		e.pargs[i] = pa
	}
}

// Abort discards the proposal. The committed columns were never
// touched, so after the program edit is rolled back the engine is
// exactly in its pre-proposal state.
func (e *State) Abort() {
	e.j = nil
	e.dirty = 0
	e.ndirty = 0
	e.nlive = 0
	e.ndefer = 0
}
