package prog

import (
	mathbits "math/bits"

	"stochsyn/internal/testcase"
)

// EvalChunk is the granularity of the early cost abort: a cost
// consumer checks its partial sum against the bound at EvalChunk case
// boundaries and, once it has passed, pulls no further cases, so
// CasesEvaluated counts whole chunks. The interpreted engine's
// EvalRange pulls are also one chunk each, which keeps the per-column
// inner loops long enough to amortize dispatch. It is not the plan
// engine's tape-run size: cost.Kind.OfPlan runs the tape in blocks of
// whole chunks sized by the bound, skipping only checks that could not
// fail.
const EvalChunk = 16

// EvalStats counts the engine's work, exposing the reuse the
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

// EvalState is the incremental, case-major evaluation engine: it holds
// one value column per program node across all suite cases, keeps the
// columns synchronized with a program that is edited in place under a
// Journal, and recomputes only the columns whose values a proposal can
// have changed (the journal's dirty nodes plus their transitive
// users).
//
// Lifecycle per search iteration:
//
//	p.BeginEdit(j)            // attach the undo journal
//	mutator applies a move    // in-place, journaled
//	e.Begin(j)                // close the dirty set over users
//	e.EvalRange(c0, c1) ...   // consumer pulls root values per chunk
//	e.Commit() + p.EndEdit()  // accept: adopt proposal columns
//	e.Abort()  + p.Rollback() // reject: discard, restore program
//
// Proposal columns are double-buffered: EvalRange writes recomputed
// columns into a shadow buffer, so the committed columns stay exact
// for the pre-edit program and rejection needs no value restoration.
// An EvalState is single-threaded state, owned by one search run.
type EvalState struct {
	p      *Program
	suite  *testcase.Suite
	ncases int

	// cols[i] is the committed value column of node i for the current
	// program; prop[i] is the proposal shadow buffer. Both always hold
	// ncases-length slices; Commit swaps headers, never copies values.
	cols [MaxNodes][]uint64
	prop [MaxNodes][]uint64

	// Active proposal state (between Begin and Commit/Abort).
	j         *Journal
	dirty     uint32
	dirtyList [MaxNodes]int32
	ndirty    int
	// dirtyArgs[k] holds the resolved argument columns of dirtyList[k],
	// computed once in Begin: a proposal's column bindings (shadow
	// buffer vs committed column) are fixed for its lifetime, so
	// per-chunk EvalRange calls need not re-resolve them.
	dirtyArgs [MaxNodes][2][]uint64

	stats EvalStats
}

// NewEvalState builds an engine for the suite, with the permanent
// input-node columns filled in (they never change thereafter). Call
// Reset to bind a program before evaluating.
func NewEvalState(s *testcase.Suite) *EvalState {
	n := s.Len()
	e := &EvalState{suite: s, ncases: n}
	backing := make([]uint64, 2*MaxNodes*n)
	for i := 0; i < MaxNodes; i++ {
		e.cols[i] = backing[i*n : (i+1)*n : (i+1)*n]
		e.prop[i] = backing[(MaxNodes+i)*n : (MaxNodes+i+1)*n : (MaxNodes+i+1)*n]
	}
	for i := 0; i < s.NumInputs; i++ {
		col := e.cols[i]
		for c := range s.Cases {
			col[c] = s.Cases[c].Inputs[i]
		}
	}
	return e
}

// Suite returns the suite the engine evaluates against.
func (e *EvalState) Suite() *testcase.Suite { return e.suite }

// Stats returns the cumulative work counters.
func (e *EvalState) Stats() EvalStats { return e.stats }

// Program returns the program the committed columns describe.
func (e *EvalState) Program() *Program { return e.p }

// Reset binds p and fully (re)computes every committed column. Used at
// search start and after checkpoint restores; the incremental path
// never needs it.
func (e *EvalState) Reset(p *Program) {
	if p.NumInputs != e.suite.NumInputs {
		panic("prog: EvalState.Reset program/suite input arity mismatch")
	}
	e.p = p
	e.j = nil
	for _, i := range p.TopoOrder() {
		if int(i) < p.NumInputs {
			continue // permanent, precomputed
		}
		e.fillColumn(&p.Nodes[i], e.cols[i], e.committedArgs(&p.Nodes[i]), 0, e.ncases)
	}
}

// committedArgs resolves a node's argument columns against the
// committed matrix (full-reset path: indices are current).
func (e *EvalState) committedArgs(nd *Node) [2][]uint64 {
	var ab [2][]uint64
	for a := 0; a < nd.Op.Arity(); a++ {
		ab[a] = e.cols[nd.Args[a]]
	}
	return ab
}

// RootColumn returns the committed value column of the program root.
func (e *EvalState) RootColumn() []uint64 { return e.cols[e.p.Root] }

// CaseValues writes the committed value of every node on suite case c
// into dst (length >= the program's node count). It is the engine
// counterpart of Program.Eval's all-node output, used by the
// redundancy move's signature probes.
func (e *EvalState) CaseValues(c int, dst []uint64) {
	for i := 0; i < len(e.p.Nodes); i++ {
		dst[i] = e.cols[i][c]
	}
}

// Begin starts a proposal against the journaled in-place edit: it
// closes the journal's dirty-node set over transitive users in
// topological order, producing the exact set of columns EvalRange must
// recompute. Every other column is reused from the committed matrix at
// the same index (compaction waits for EndEdit). Nodes the edit's GC
// found dead are skipped: nothing live reads them.
func (e *EvalState) Begin(j *Journal) {
	e.j = j
	p := e.p
	order := p.TopoOrder()
	dead := j.dead
	dirty := j.dirty &^ dead
	nd := 0
	if dirty != 0 {
		for _, i := range order {
			bit := uint32(1) << uint(i)
			if dead&bit != 0 {
				continue
			}
			if dirty&bit == 0 {
				n := &p.Nodes[i]
				for a := 0; a < n.Op.Arity(); a++ {
					if dirty&(1<<uint(n.Args[a])) != 0 {
						dirty |= bit
						break
					}
				}
			}
			if dirty&bit != 0 {
				e.dirtyList[nd] = i
				nd++
			}
		}
	}
	e.dirty = dirty
	e.ndirty = nd
	// Resolve each dirty node's argument columns once; the bindings do
	// not change between EvalRange chunks.
	for k := 0; k < nd; k++ {
		n := &p.Nodes[e.dirtyList[k]]
		for a := 0; a < n.Op.Arity(); a++ {
			e.dirtyArgs[k][a] = e.argColumn(n.Args[a])
		}
	}
	e.stats.NodesReevaluated += int64(nd)
	e.stats.NodesTotal += int64(len(order) - mathbits.OnesCount32(dead))
	e.stats.CasesTotal += int64(e.ncases)
}

// argColumn resolves a node index of the proposal program to its value
// column: the shadow buffer for dirty nodes, the committed column
// otherwise.
func (e *EvalState) argColumn(i int32) []uint64 {
	if e.dirty&(1<<uint(i)) != 0 {
		return e.prop[i]
	}
	return e.cols[i]
}

// EvalRange recomputes the dirty columns for suite cases [c0, c1) and
// returns the proposal's root values for that range. Consumers call it
// block by block in case order and may stop early; Commit requires
// every block to have been pulled (an accept implies the cost summed
// all cases).
func (e *EvalState) EvalRange(c0, c1 int) []uint64 {
	p := e.p
	for k := 0; k < e.ndirty; k++ {
		i := e.dirtyList[k]
		e.fillColumn(&p.Nodes[i], e.prop[i], e.dirtyArgs[k], c0, c1)
	}
	e.stats.CasesEvaluated += int64(c1 - c0)
	return e.argColumn(p.Root)[c0:c1]
}

// fillColumn computes one node's values for cases [c0, c1) into dst.
// The opcode dispatch happens once per column rather than once per
// case: the most frequent opcodes get dedicated tight loops (bit-equal
// to evalOp by construction — each loop body is the corresponding
// evalOp arm), and everything else falls back to the per-case evalOp
// switch.
func (e *EvalState) fillColumn(nd *Node, dst []uint64, ab [2][]uint64, c0, c1 int) {
	d := dst[c0:c1]
	switch nd.Op {
	case OpConst:
		v := nd.Val
		for c := range d {
			d[c] = v
		}
	case OpInput:
		// Defensive: body nodes are never inputs (Validate forbids it)
		// and Reset skips the permanent input prefix, but fall back to
		// the precomputed input column if one ever lands here.
		copy(d, e.cols[int(nd.Val)][c0:c1])
	case OpAdd:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] + b[c]
		}
	case OpSub:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] - b[c]
		}
	case OpMul:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] * b[c]
		}
	case OpAnd, OpMAnd:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] & b[c]
		}
	case OpOr, OpMOr:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] | b[c]
		}
	case OpXor, OpMXor:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] ^ b[c]
		}
	case OpShl:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] << (b[c] & 63)
		}
	case OpShr:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = a[c] >> (b[c] & 63)
		}
	case OpSar:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(int64(a[c]) >> (b[c] & 63))
		}
	case OpRol:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = mathbits.RotateLeft64(a[c], int(b[c]&63))
		}
	case OpRor:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = mathbits.RotateLeft64(a[c], -int(b[c]&63))
		}
	case OpEq:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			if a[c] == b[c] {
				d[c] = 1
			} else {
				d[c] = 0
			}
		}
	case OpUlt:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			if a[c] < b[c] {
				d[c] = 1
			} else {
				d[c] = 0
			}
		}
	case OpSlt:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			if int64(a[c]) < int64(b[c]) {
				d[c] = 1
			} else {
				d[c] = 0
			}
		}
	case OpAdd32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) + uint32(b[c]))
		}
	case OpSub32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) - uint32(b[c]))
		}
	case OpMul32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) * uint32(b[c]))
		}
	case OpAnd32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) & uint32(b[c]))
		}
	case OpOr32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) | uint32(b[c]))
		}
	case OpXor32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) ^ uint32(b[c]))
		}
	case OpShl32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) << (b[c] & 31))
		}
	case OpShr32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]) >> (b[c] & 31))
		}
	case OpSar32:
		a, b := ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(int32(a[c]) >> (b[c] & 31)))
		}
	case OpNot, OpMNot:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = ^a[c]
		}
	case OpNeg:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = -a[c]
		}
	case OpNot32:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(^uint32(a[c]))
		}
	case OpNeg32:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(-uint32(a[c]))
		}
	case OpBswap:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = mathbits.ReverseBytes64(a[c])
		}
	case OpPopcnt:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(mathbits.OnesCount64(a[c]))
		}
	case OpClz:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(mathbits.LeadingZeros64(a[c]))
		}
	case OpCtz:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(mathbits.TrailingZeros64(a[c]))
		}
	case OpSext8:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(int64(int8(a[c])))
		}
	case OpSext16:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(int64(int16(a[c])))
		}
	case OpSext32:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(int64(int32(a[c])))
		}
	case OpZext8:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(uint8(a[c]))
		}
	case OpZext16:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(uint16(a[c]))
		}
	case OpZext32:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = uint64(uint32(a[c]))
		}
	case OpMShl:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = a[c] << 1
		}
	case OpMShr:
		a := ab[0][c0:c1]
		for c := range d {
			d[c] = a[c] >> 1
		}
	default:
		if nd.Op.Arity() == 1 {
			op, a := nd.Op, ab[0][c0:c1]
			for c := range d {
				d[c] = evalOp(op, a[c], 0)
			}
			return
		}
		op, a, b := nd.Op, ab[0][c0:c1], ab[1][c0:c1]
		for c := range d {
			d[c] = evalOp(op, a[c], b[c])
		}
	}
}

// Commit adopts the proposal: the recomputed shadow columns are swapped
// in, and when the edit's GC found dead nodes the surviving columns are
// re-homed to the indices EndEdit gives them (a header permutation, no
// value copies). The program must have been fully evaluated (all case
// blocks pulled), and Commit must precede EndEdit.
func (e *EvalState) Commit() {
	j := e.j
	if e.p.jr != j {
		panic("prog: EvalState.Commit after the program's edit ended")
	}
	for mask := e.dirty; mask != 0; {
		i := mathbits.TrailingZeros32(mask)
		mask &^= 1 << uint(i)
		e.cols[i], e.prop[i] = e.prop[i], e.cols[i]
	}
	if j.dead != 0 {
		// Survivors only move down (Remap), so ascending swaps re-home
		// every surviving column without clobbering one still needed.
		var remap [MaxNodes]int32
		Remap(uint64(j.dead), remap[:len(e.p.Nodes)])
		for i, w := range remap[:len(e.p.Nodes)] {
			if w >= 0 {
				e.cols[w], e.cols[i] = e.cols[i], e.cols[w]
			}
		}
	}
	e.j = nil
	e.dirty = 0
	e.ndirty = 0
}

// Abort discards the proposal. The committed columns were never
// touched, so after the program edit is rolled back the engine is
// exactly in its pre-proposal state.
func (e *EvalState) Abort() {
	e.j = nil
	e.dirty = 0
	e.ndirty = 0
}
