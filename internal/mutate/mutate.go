// Package mutate implements the proposal moves of the stochastic
// search (Sections 3.2 and 4 of the paper):
//
//  1. Instruction: point a random argument slot (or the root slot) at
//     a freshly generated instruction whose arguments are random
//     existing nodes (without creating cycles) or random constants.
//  2. Opcode: replace a random instruction node's opcode with a random
//     opcode of the same arity.
//  3. Operand: point a random argument slot (or the root slot) at a
//     random existing node that does not create a cycle.
//  4. Redundancy (model dialect): merge a random pair of instruction
//     nodes that agree on a randomly chosen subset of test cases by
//     redirecting incoming edges from one node to the other.
//
// Each move selects uniformly among its valid options. A move proposal
// may be invalid (for example when it would exceed the program size
// limit); the search counts the iteration and retains the current
// program, matching the is_valid check in Figure 3.
package mutate

import (
	"math/bits"
	"math/rand/v2"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// Move identifies a move type, for tracing and ablation experiments.
type Move uint8

const (
	MoveInstruction Move = iota
	MoveOpcode
	MoveOperand
	MoveRedundancy

	numMoves
)

// String names the move.
func (m Move) String() string {
	switch m {
	case MoveInstruction:
		return "instruction"
	case MoveOpcode:
		return "opcode"
	case MoveOperand:
		return "operand"
	case MoveRedundancy:
		return "redundancy"
	}
	return "move(?)"
}

// Mutator proposes random changes to programs over a fixed dialect and
// test suite. The suite is only consulted by the redundancy move
// (which compares node values on test inputs); it may be nil when
// redundancy is disabled.
type Mutator struct {
	set        *prog.OpSet
	suite      *testcase.Suite
	moves      []Move
	redundancy bool

	// es, when bound (BindEval), serves the redundancy move's
	// signature probes from the engine's committed value columns
	// instead of re-evaluating the program per probe. Optional.
	es Eval

	// cum holds the cumulative move-selection distribution aligned
	// with moves; nil means uniform.
	cum []float64

	// scratch buffers reused across proposals.
	vals [prog.MaxNodes]uint64
	sig  [prog.MaxNodes][redundancyProbes]uint64
}

// redundancyProbes is the number of test cases sampled by the
// redundancy move when comparing node values.
const redundancyProbes = 4

// New returns a Mutator for the dialect. If redundancy is true the
// redundancy move is enabled and suite must be non-nil; otherwise the
// baseline three-move set is used.
func New(set *prog.OpSet, suite *testcase.Suite, redundancy bool) *Mutator {
	if redundancy && suite == nil {
		panic("mutate: redundancy move requires a test suite")
	}
	m := &Mutator{set: set, suite: suite, redundancy: redundancy}
	m.moves = []Move{MoveInstruction, MoveOpcode, MoveOperand}
	if redundancy {
		m.moves = append(m.moves, MoveRedundancy)
	}
	return m
}

// Moves returns the enabled move types.
func (m *Mutator) Moves() []Move { return m.moves }

// Eval is the committed-value view the redundancy move reads its
// signature probes from. Both the compiled plan engine (plan.State)
// and the reference engine (prog.RefEval) satisfy it.
type Eval interface {
	// Program returns the program the committed columns describe.
	Program() *prog.Program
	// CaseValues writes the committed value of every program node on
	// suite case c into dst.
	CaseValues(c int, dst []uint64)
}

// BindEval attaches the evaluation engine whose committed values
// describe the programs this mutator will be applied to. The
// redundancy move then reads its signature probes from the engine
// (straight from the plan engine's value matrix) — the values are
// identical to a fresh evaluation, so binding never changes proposals,
// only their cost. Pass nil to detach (an unbound mutator evaluates
// per probe with Program.Eval); callers must pass an untyped nil,
// never a nil concrete engine pointer.
func (m *Mutator) BindEval(es Eval) { m.es = es }

// SetWeights installs a non-uniform move-selection distribution (the
// paper uses uniform; STOKE-style implementations expose this as a
// tuning knob, and the ablation benchmarks use it). Weights apply to
// the enabled moves by type; missing or non-positive entries get
// weight zero. It panics if no enabled move has positive weight.
func (m *Mutator) SetWeights(weights map[Move]float64) {
	cum := make([]float64, len(m.moves))
	total := 0.0
	for i, mv := range m.moves {
		w := weights[mv]
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("mutate: no enabled move has positive weight")
	}
	for i := range cum {
		cum[i] /= total
	}
	m.cum = cum
}

// pick draws a move according to the configured distribution.
func (m *Mutator) pick(rng *rand.Rand) Move {
	if m.cum == nil {
		return m.moves[rng.IntN(len(m.moves))]
	}
	u := rng.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.moves[i]
		}
	}
	return m.moves[len(m.moves)-1]
}

// Apply proposes one random change to p in place, choosing the move
// type according to the selection distribution (uniform by default).
// It returns the move chosen and whether the proposal was valid; when
// invalid, p is unchanged.
func (m *Mutator) Apply(p *prog.Program, rng *rand.Rand) (Move, bool) {
	mv := m.pick(rng)
	return mv, m.ApplyMove(p, mv, rng)
}

// ApplyMove proposes one change of the given move type. It returns
// false (leaving p unchanged) when the move has no valid option.
//
// With the debug gate on (SetDebugChecks, or the stochsyndebug build
// tag), every successful move is followed by a full invariant check of
// the mutated program; a violation panics, naming the move.
func (m *Mutator) ApplyMove(p *prog.Program, mv Move, rng *rand.Rand) bool {
	var ok bool
	switch mv {
	case MoveInstruction:
		ok = m.instruction(p, rng)
	case MoveOpcode:
		ok = m.opcode(p, rng)
	case MoveOperand:
		ok = m.operand(p, rng)
	case MoveRedundancy:
		ok = m.merge(p, rng)
	}
	if ok && debugChecks {
		checkMove(p, mv)
	}
	return ok
}

// slot identifies an argument position: node/arg for instruction
// arguments, or node == -1 for the root slot.
type slot struct {
	node int32
	arg  int
}

// randomSlot picks a uniformly random argument slot including the root
// slot. There is always at least one slot (the root).
func randomSlot(p *prog.Program, rng *rand.Rand) slot {
	total := 1 + p.ArityTotal() // arg slots plus the root slot
	k := rng.IntN(total)
	if k == 0 {
		return slot{node: -1}
	}
	k--
	for i := range p.Nodes {
		ar := p.Nodes[i].Op.Arity()
		if k < ar {
			return slot{node: int32(i), arg: k}
		}
		k -= ar
	}
	panic("mutate: slot enumeration out of sync")
}

// setSlot points the slot at node v and restores the no-dead-code
// invariant. All writes go through the journaling mutators so that an
// in-place proposal can be rolled back exactly.
func setSlot(p *prog.Program, s slot, v int32) {
	if s.node < 0 {
		p.SetRoot(v)
	} else {
		p.SetArg(s.node, s.arg, v)
	}
	p.GC()
}

// validTargetMask returns the bitmask of nodes that the slot may
// point at without creating a cycle: for the root slot every node; for
// an argument slot of node u, every node from which u is unreachable —
// the complement of u's ancestor mask. Moves draw uniformly from the
// mask via nthSetBit; because set bits enumerate in ascending index
// order, the selection matches indexing the old sorted target slice
// exactly, with the same RNG draws.
func validTargetMask(p *prog.Program, s slot) uint64 {
	all := uint64(1)<<uint(len(p.Nodes)) - 1
	if s.node < 0 {
		return all
	}
	return all &^ p.Ancestors(s.node)
}

// nthSetBit returns the index of the k-th set bit of mask (k zero-
// based, counting from the least significant bit). mask must have more
// than k bits set.
func nthSetBit(mask uint64, k int) int32 {
	for ; k > 0; k-- {
		mask &= mask - 1
	}
	return int32(bits.TrailingZeros64(mask))
}

// instruction implements the instruction move.
func (m *Mutator) instruction(p *prog.Program, rng *rand.Rand) bool {
	s := randomSlot(p, rng)
	op := m.set.RandomOp(rng)

	valid := validTargetMask(p, s)
	nvalid := bits.OnesCount64(valid)

	// Build the new node, materializing constants as needed. Each
	// argument independently chooses between a random existing node
	// and a fresh random constant with equal probability.
	newNode := prog.Node{Op: op}
	var consts [prog.MaxArity]uint64
	nconsts := 0
	for a := 0; a < op.Arity(); a++ {
		if nvalid > 0 && rng.IntN(2) == 0 {
			newNode.Args[a] = nthSetBit(valid, rng.IntN(nvalid))
		} else {
			newNode.Args[a] = int32(len(p.Nodes) + 1 + nconsts) // placeholder past new node
			consts[nconsts] = m.set.RandomConst(rng)
			nconsts++
		}
	}
	if p.BodyLen()+1+nconsts > prog.MaxBody {
		return false
	}
	newIdx := p.AppendNode(newNode)
	for _, cv := range consts[:nconsts] {
		p.AppendNode(prog.Node{Op: prog.OpConst, Val: cv})
	}
	setSlot(p, s, newIdx)
	return true
}

// opcode implements the opcode move.
func (m *Mutator) opcode(p *prog.Program, rng *rand.Rand) bool {
	var instrs [prog.MaxNodes]int32
	cand := instrs[:0]
	for i := range p.Nodes {
		if p.Nodes[i].Op.IsInstruction() {
			cand = append(cand, int32(i))
		}
	}
	if len(cand) == 0 {
		return false
	}
	i := cand[rng.IntN(len(cand))]
	op, ok := m.set.RandomOpArity(rng, p.Nodes[i].Op.Arity())
	if !ok {
		return false
	}
	// SetOp keeps the cached topological order warm: the swap is
	// arity-preserving, so the edge set is unchanged.
	p.SetOp(i, op)
	return true
}

// operand implements the operand move.
func (m *Mutator) operand(p *prog.Program, rng *rand.Rand) bool {
	s := randomSlot(p, rng)
	valid := validTargetMask(p, s)
	nvalid := bits.OnesCount64(valid)
	if nvalid == 0 {
		return false
	}
	setSlot(p, s, nthSetBit(valid, rng.IntN(nvalid)))
	return true
}

// merge implements the redundancy move: it samples a few test cases,
// evaluates every node on them, and merges a random pair of
// instruction nodes with identical sampled values by redirecting the
// incoming edges of one to the other. The move is rejected if any
// redirect would create a cycle.
func (m *Mutator) merge(p *prog.Program, rng *rand.Rand) bool {
	n := len(p.Nodes)
	if n < 2 || m.suite.Len() == 0 {
		return false
	}
	// Sample the random subset of test cases to compare on.
	probes := redundancyProbes
	if probes > m.suite.Len() {
		probes = m.suite.Len()
	}
	for k := 0; k < probes; k++ {
		ci := rng.IntN(m.suite.Len())
		if m.es != nil && m.es.Program() == p {
			// The engine's committed columns hold exactly the values a
			// fresh evaluation of p would compute; read the probe case's
			// row instead of re-evaluating the whole program.
			m.es.CaseValues(ci, m.vals[:n])
		} else {
			p.Eval(m.suite.Cases[ci].Inputs, m.vals[:n])
		}
		for i := 0; i < n; i++ {
			m.sig[i][k] = m.vals[i]
		}
	}

	// Collect pairs of distinct instruction nodes with equal sampled
	// signatures.
	type pair struct{ from, to int32 }
	var pairBuf [prog.MaxNodes * (prog.MaxNodes - 1) / 2]pair
	pairs := pairBuf[:0]
	for i := 0; i < n; i++ {
		if !p.Nodes[i].Op.IsInstruction() {
			continue
		}
		for j := i + 1; j < n; j++ {
			if !p.Nodes[j].Op.IsInstruction() {
				continue
			}
			eq := true
			for k := 0; k < probes; k++ {
				if m.sig[i][k] != m.sig[j][k] {
					eq = false
					break
				}
			}
			if eq {
				pairs = append(pairs, pair{int32(i), int32(j)})
			}
		}
	}
	if len(pairs) == 0 {
		return false
	}
	pr := pairs[rng.IntN(len(pairs))]
	from, to := pr.from, pr.to
	if rng.IntN(2) == 0 {
		from, to = to, from
	}
	// Redirecting an edge u->from to u->to creates a cycle iff u is
	// reachable from to; in particular it always does when u is on the
	// path from "to" down to its arguments. Reject the move in that
	// case rather than producing an invalid program. One DFS from
	// "to" classifies every candidate u at once.
	reach := p.ReachableFrom(to)
	for i := 0; i < n; i++ {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			if nd.Args[a] == from && reach&(uint64(1)<<uint(i)) != 0 {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			if nd.Args[a] == from {
				p.SetArg(int32(i), a, to)
			}
		}
	}
	if p.Root == from {
		p.SetRoot(to)
	}
	p.GC()
	return true
}

// NumMoves is the number of defined move types.
const NumMoves = int(numMoves)

// RandomProgram builds a program by walking the mutator from the zero
// program for steps moves — the same move distribution the search
// proposes from, so fuzz harnesses and benchmarks that need "random
// but realistic" programs sample the production distribution instead
// of a hand-rolled one. The walk is deterministic in seed.
func RandomProgram(seed uint64, numInputs, steps int) *prog.Program {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	suite := testcase.Generate(func(in []uint64) uint64 { return in[0] }, numInputs, 8, rng)
	m := New(prog.FullSet, suite, false)
	p := prog.NewZero(numInputs)
	for i := 0; i < steps; i++ {
		m.Apply(p, rng)
	}
	return p
}
