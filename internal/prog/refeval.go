package prog

import (
	mathbits "math/bits"

	"stochsyn/internal/testcase"
)

// EvalChunk is the granularity of the early cost abort: a cost
// consumer checks its partial sum against the bound at EvalChunk case
// boundaries and, once it has passed, pulls no further cases, so
// CasesEvaluated counts whole chunks. cost.Kind.OfState pulls one
// chunk per EvalRange call. It is not the plan engine's tape-run
// size: cost.Kind.OfPlan runs the tape in blocks of whole chunks sized
// by the bound, skipping only checks that could not fail.
const EvalChunk = 16

// EvalStats counts an evaluation engine's work, exposing the reuse the
// incremental scheme achieves over full re-evaluation. All counts
// cover the proposal path only (Begin/EvalRange), not full Resets.
type EvalStats struct {
	// NodesReevaluated counts node value columns recomputed across
	// proposals; NodesTotal counts node columns a full re-evaluation
	// would have computed. Their ratio is the column reuse rate.
	NodesReevaluated int64
	NodesTotal       int64
	// CasesEvaluated counts suite cases actually reached before the
	// cost consumer aborted; CasesTotal counts ncases per proposal.
	// The difference is the early-abort saving.
	CasesEvaluated int64
	CasesTotal     int64
}

// Sub returns the element-wise difference s - o (for delta flushes).
func (s EvalStats) Sub(o EvalStats) EvalStats {
	return EvalStats{
		NodesReevaluated: s.NodesReevaluated - o.NodesReevaluated,
		NodesTotal:       s.NodesTotal - o.NodesTotal,
		CasesEvaluated:   s.CasesEvaluated - o.CasesEvaluated,
		CasesTotal:       s.CasesTotal - o.CasesTotal,
	}
}

// RefEval is the from-scratch reference engine. It keeps the
// incremental engine's contract, on a program edited in place under a
// Journal:
//
//	p.BeginEdit(j)            // attach the undo journal
//	mutator applies a move    // in-place, journaled
//	e.Begin(j)                // start the proposal
//	e.EvalRange(c0, c1) ...   // consumer pulls root values per chunk
//	e.Commit() + p.EndEdit()  // accept: adopt the proposal's root column
//	e.Abort()  + p.Rollback() // reject: discard it
//
// but reuses nothing: EvalRange evaluates every pulled case of the
// proposal program with Program.Eval, and only the root column is
// kept. It shares neither columns nor kernels with the compiled engine
// (plan.State), which makes it the independent arm of the differential
// tests and of bench-eval (search.Options.LegacyEval selects it).
//
// Its EvalStats follow the counters' definitions, so they must equal
// the compiled engine's on the same trajectory: NodesReevaluated is the
// journal's live dirty nodes closed over their users, NodesTotal the
// live nodes, CasesEvaluated the cases pulled and CasesTotal the suite
// size. A RefEval is single-threaded state, owned by one search run.
type RefEval struct {
	p     *Program
	suite *testcase.Suite
	j     *Journal // the active proposal's journal, nil outside one

	// root is the committed root column; prop the proposal's, filled
	// by EvalRange. Commit swaps them.
	root, prop []uint64
	vals       [MaxNodes]uint64

	stats EvalStats
}

// NewRefEval builds a reference engine for the suite. Call Reset to
// bind a program before evaluating.
func NewRefEval(s *testcase.Suite) *RefEval {
	n := s.Len()
	return &RefEval{suite: s, root: make([]uint64, n), prop: make([]uint64, n)}
}

// Suite returns the suite the engine evaluates against.
func (e *RefEval) Suite() *testcase.Suite { return e.suite }

// Stats returns the cumulative work counters.
func (e *RefEval) Stats() EvalStats { return e.stats }

// Program returns the program the committed root column describes.
func (e *RefEval) Program() *Program { return e.p }

// RootColumn returns the committed root value column.
func (e *RefEval) RootColumn() []uint64 { return e.root }

// Reset binds p and evaluates its root column on every case.
func (e *RefEval) Reset(p *Program) {
	if p.NumInputs != e.suite.NumInputs {
		panic("prog: RefEval.Reset program/suite input arity mismatch")
	}
	e.p = p
	e.j = nil
	e.fill(e.root, 0, len(e.root))
}

// fill evaluates the bound program on suite cases [c0, c1) into dst.
func (e *RefEval) fill(dst []uint64, c0, c1 int) {
	for c := c0; c < c1; c++ {
		dst[c] = e.p.Eval(e.suite.Cases[c].Inputs, e.vals[:])
	}
}

// CaseValues evaluates the bound program on suite case c, writing
// every node's value into dst (length >= the program's node count).
func (e *RefEval) CaseValues(c int, dst []uint64) {
	e.p.Eval(e.suite.Cases[c].Inputs, dst)
}

// Begin starts a proposal against the journaled in-place edit and
// counts it. The journal's masks are read only for the counters.
func (e *RefEval) Begin(j *Journal) {
	e.j = j
	dead := j.Dead()
	if seeds := j.Dirty() &^ dead; seeds != 0 {
		e.stats.NodesReevaluated += int64(mathbits.OnesCount32(e.p.UserClosure(seeds, dead)))
	}
	e.stats.NodesTotal += int64(len(e.p.Nodes) - mathbits.OnesCount32(dead))
	e.stats.CasesTotal += int64(len(e.root))
}

// EvalRange evaluates the proposal program on suite cases [c0, c1) and
// returns its root values for that range. Consumers call it block by
// block in case order and may stop early; Commit requires every block
// to have been pulled.
func (e *RefEval) EvalRange(c0, c1 int) []uint64 {
	e.fill(e.prop, c0, c1)
	e.stats.CasesEvaluated += int64(c1 - c0)
	return e.prop[c0:c1]
}

// Commit adopts the proposal's root column. It must precede EndEdit.
func (e *RefEval) Commit() {
	if e.p.jr != e.j {
		panic("prog: RefEval.Commit after the program's edit ended")
	}
	e.root, e.prop = e.prop, e.root
	e.j = nil
}

// Abort discards the proposal.
func (e *RefEval) Abort() { e.j = nil }
