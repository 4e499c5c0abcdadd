package prog

import (
	"errors"
	"fmt"
	mathbits "math/bits"
)

// MaxBody is the maximum number of body nodes (instructions and
// constants) in a program, the size limit of Section 3.2. Moves that
// would grow a program past this limit are rejected, which bounds the
// per-iteration evaluation cost of the search.
const MaxBody = 16

// MaxInputs is the maximum number of program inputs. Input nodes are
// permanent — one per input, always present so that moves can wire
// operands to them — and do not count against MaxBody.
const MaxInputs = 8

// MaxNodes bounds the total node count (inputs plus body); fixed-size
// scratch buffers are dimensioned by it.
const MaxNodes = MaxInputs + MaxBody

// maxTransient bounds the node count of programs under construction by
// the parser, which may briefly exceed MaxBody before unused bindings
// are collected; the graph algorithms size their scratch space for it.
const maxTransient = 64

// Node is one vertex of the dataflow graph. For instruction nodes the
// first Op.Arity() entries of Args index the argument nodes; for
// OpInput nodes Val is the input index; for OpConst nodes Val is the
// constant value.
type Node struct {
	Op   Op
	Args [MaxArity]int32
	Val  uint64
}

// Program is a rooted dataflow DAG. The first NumInputs entries of
// Nodes are the permanent input nodes (input i at index i); the
// remaining body nodes (instructions and constants) are stored in
// arbitrary order. Root indexes the node whose value is the program's
// result. The exported invariants (checked by Validate) are:
//
//   - Nodes begins with the NumInputs input nodes in order,
//   - the body holds between 1 and MaxBody nodes,
//   - the graph is acyclic,
//   - every body node is reachable from the root (no dead code;
//     input nodes are exempt so that moves can always wire to them),
//   - argument indices are in range and argument counts match arity.
//
// Programs are mutable; the search edits its current program in place
// under an edit journal and rolls rejected proposals back (edit.go).
type Program struct {
	Nodes     []Node
	Root      int32
	NumInputs int

	// order caches a topological order (arguments before users),
	// recomputed lazily after structural changes. orderOK marks the
	// cache valid; the slice's backing array is retained across
	// invalidations so rebuilds are allocation-free.
	order   []int32
	orderOK bool

	// users caches, per node, the bitmask of nodes reading it through
	// an argument edge. Ancestors and UserClosure run as bitmask
	// worklists over these masks. Unlike order, the journaling mutators
	// (SetOp, SetArg, AppendNode) maintain the masks in place and
	// Rollback repairs them from the journal, so in the steady state of
	// the search loop (edit, query Ancestors, roll back, repeat) the
	// cache never rebuilds; only compaction and raw builders drop it.
	users   [MaxNodes]uint32
	usersOK bool

	// aritySum caches the total argument-slot count over all nodes
	// (the mutation layer's slot-enumeration denominator), maintained
	// through the journaling mutators like users and restored from the
	// journal on Rollback.
	aritySum   int
	aritySumOK bool

	// jr, when non-nil, is the active in-place edit journal (see
	// edit.go): mutating helpers and GC record undo and dirtiness
	// information into it. Clones never inherit an active edit.
	jr *Journal
}

// newBase returns a program containing only the permanent input nodes.
func newBase(numInputs int) *Program {
	if numInputs < 0 || numInputs > MaxInputs {
		panic("prog: input count out of range")
	}
	p := &Program{NumInputs: numInputs}
	for i := 0; i < numInputs; i++ {
		p.Nodes = append(p.Nodes, Node{Op: OpInput, Val: uint64(i)})
	}
	return p
}

// NewZero returns the constant-zero program with the given number of
// inputs; this is the initial state of every search.
func NewZero(numInputs int) *Program { return NewConst(numInputs, 0) }

// NewConst returns the program computing the constant v.
func NewConst(numInputs int, v uint64) *Program {
	p := newBase(numInputs)
	p.Nodes = append(p.Nodes, Node{Op: OpConst, Val: v})
	p.Root = int32(len(p.Nodes) - 1)
	return p
}

// NewInput returns the identity program over input i: the input node
// as root with an empty body.
func NewInput(numInputs, i int) *Program {
	if i < 0 || i >= numInputs {
		panic("prog: input index out of range")
	}
	p := newBase(numInputs)
	p.Root = int32(i)
	return p
}

// Len returns the total number of nodes, inputs included.
func (p *Program) Len() int { return len(p.Nodes) }

// BodyLen returns the number of body nodes (instructions and
// constants), the count limited by MaxBody. During an edit the nodes
// GC found dead are not counted: EndEdit removes them.
func (p *Program) BodyLen() int {
	n := len(p.Nodes) - p.NumInputs
	if p.jr != nil {
		n -= mathbits.OnesCount32(p.jr.dead)
	}
	return n
}

// Clone returns a deep copy of p.
func (p *Program) Clone() *Program {
	q := &Program{
		Nodes:     append([]Node(nil), p.Nodes...),
		Root:      p.Root,
		NumInputs: p.NumInputs,
	}
	if p.orderOK {
		q.order = append([]int32(nil), p.order...)
		q.orderOK = true
	}
	return q
}

// Invalidate drops the cached topological order, user masks, and
// arity sum. Mutators must call it after any structural change. The
// slices' backing memory is retained for the next rebuild.
func (p *Program) Invalidate() {
	p.orderOK = false
	p.usersOK = false
	p.aritySumOK = false
}

// ArityTotal returns the total number of argument slots across all
// nodes, rebuilding the cached sum if needed. The mutation layer uses
// it as the denominator of uniform slot selection.
func (p *Program) ArityTotal() int {
	if !p.aritySumOK {
		s := 0
		for i := range p.Nodes {
			s += p.Nodes[i].Op.Arity()
		}
		p.aritySum = s
		p.aritySumOK = true
	}
	return p.aritySum
}

// userMasks returns the per-node user bitmasks, rebuilding the cache
// if a structural change invalidated it.
func (p *Program) userMasks() *[MaxNodes]uint32 {
	if !p.usersOK {
		p.users = [MaxNodes]uint32{}
		for i := range p.Nodes {
			nd := &p.Nodes[i]
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] |= 1 << uint(i)
			}
		}
		p.usersOK = true
	}
	return &p.users
}

// TopoOrder returns a topological order of the node indices with
// arguments ordered before their users. The returned slice is owned by
// p and valid until the next structural change. It panics if the graph
// contains a cycle (which Validate reports as an error instead).
func (p *Program) TopoOrder() []int32 {
	if p.orderOK {
		return p.order
	}
	// With at most MaxNodes (16) nodes, a quadratic ready-scan is both
	// simpler and faster than Kahn's algorithm, and allocation-free
	// once the order slice has been grown.
	n := len(p.Nodes)
	order := p.order
	if cap(order) < n {
		order = make([]int32, 0, MaxNodes)
	}
	order = order[:0]
	var placed uint64 // bitmask of nodes already in the order
	for len(order) < n {
		progress := false
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if placed&bit != 0 {
				continue
			}
			nd := &p.Nodes[i]
			ready := true
			for a := 0; a < nd.Op.Arity(); a++ {
				if placed&(uint64(1)<<uint(nd.Args[a])) == 0 {
					ready = false
					break
				}
			}
			if ready {
				order = append(order, int32(i))
				placed |= bit
				progress = true
			}
		}
		if !progress {
			panic("prog: cycle in program graph")
		}
	}
	p.order = order
	p.orderOK = true
	return order
}

// Eval evaluates the program on one input vector, writing every node's
// value into vals (which must have length >= Len()) and returning the
// root value. It performs no heap allocation once the topological
// order is cached.
func (p *Program) Eval(inputs []uint64, vals []uint64) uint64 {
	return p.evalChecked(inputs, vals)
}

// evalChecked is the single shared evaluation body behind Program.Eval
// and EvalInto: every non-engine evaluation, hot or fallback, goes
// through the same explicit bounds validation so a short buffer fails
// loudly at the seam instead of as an index panic mid-loop (or, worse,
// silently when a longer backing array happens to absorb the write).
func (p *Program) evalChecked(inputs, vals []uint64) uint64 {
	if len(inputs) < p.NumInputs {
		panic("prog: Eval input vector shorter than the program's input arity")
	}
	if len(vals) < len(p.Nodes) {
		panic("prog: Eval value buffer shorter than the program's node count")
	}
	order := p.TopoOrder()
	for _, i := range order {
		nd := &p.Nodes[i]
		switch nd.Op {
		case OpInput:
			vals[i] = inputs[nd.Val]
		case OpConst:
			vals[i] = nd.Val
		default:
			var a, b uint64
			a = vals[nd.Args[0]]
			if nd.Op.Arity() == 2 {
				b = vals[nd.Args[1]]
			}
			vals[i] = evalOp(nd.Op, a, b)
		}
	}
	return vals[p.Root]
}

// Output evaluates the program on one input vector and returns only
// the root value, allocating a scratch buffer internally. Convenient
// for non-hot-path callers.
func (p *Program) Output(inputs []uint64) uint64 {
	var vals [MaxNodes]uint64
	return p.Eval(inputs, vals[:])
}

// Reachable computes the set of nodes reachable from the root as a
// bitmask (bit i set means node i is reachable).
func (p *Program) Reachable() uint64 {
	return p.reachableFrom(p.Root)
}

// reachableFrom computes the set of nodes reachable from start
// (inclusive) following argument edges, as a bitmask.
func (p *Program) reachableFrom(start int32) uint64 {
	var mask uint64
	var stack [maxTransient]int32
	sp := 0
	stack[sp] = start
	sp++
	for sp > 0 {
		sp--
		v := stack[sp]
		bit := uint64(1) << uint(v)
		if mask&bit != 0 {
			continue
		}
		mask |= bit
		nd := &p.Nodes[v]
		for a := 0; a < nd.Op.Arity(); a++ {
			stack[sp] = nd.Args[a]
			sp++
		}
	}
	return mask
}

// ReachesFrom reports whether node to is reachable from node from by
// following argument edges (including from == to). Redirecting an
// argument of node u to point at node v creates a cycle exactly when u
// is reachable from v.
func (p *Program) ReachesFrom(from, to int32) bool {
	return p.reachableFrom(from)&(uint64(1)<<uint(to)) != 0
}

// ReachableFrom computes the set of nodes reachable from start
// (inclusive) following argument edges, as a bitmask. It is the
// exported form of reachableFrom for callers that test many
// memberships against one source (one DFS instead of one per test).
func (p *Program) ReachableFrom(start int32) uint64 {
	return p.reachableFrom(start)
}

// Ancestors returns the bitmask of nodes from which node to is
// reachable along argument edges (including to itself) — exactly the
// set {u : ReachesFrom(u, to)} — as the transitive-user closure of to
// over the cached user masks. The bitmask worklist touches only the
// ancestors themselves instead of scanning the whole program (or
// running one DFS per node). The mutator's cycle-avoidance checks use
// it to classify every node at once.
func (p *Program) Ancestors(to int32) uint64 {
	return uint64(p.UserClosure(1<<uint(to), 0))
}

// UserClosure returns seeds closed over transitive users, as a bitmask
// worklist over the cached user masks that never enters a node in
// skip. The evaluation engines close a journal's dirty nodes with it,
// skipping the nodes the edit's GC found dead.
func (p *Program) UserClosure(seeds, skip uint32) uint32 {
	users := p.userMasks()
	mask := seeds
	for work := seeds; work != 0; {
		i := mathbits.TrailingZeros32(work)
		work &^= 1 << uint(i)
		nu := users[i] &^ (mask | skip)
		mask |= nu
		work |= nu
	}
	return mask
}

// GC removes body nodes unreachable from the root; the permanent input
// nodes are always kept. It returns the number of dead nodes found.
// Mutators call it after redirecting edges so the no-dead-code
// invariant holds.
//
// Outside an edit GC compacts at once: survivors move down in order and
// indices are remapped. With an active edit journal it renumbers
// nothing: it peels the dead set into the journal (Journal.Dead) and
// EndEdit compacts, so a rejected proposal never pays for a compaction
// and its rollback never undoes one.
func (p *Program) GC() int {
	if j := p.jr; j != nil {
		j.dead = p.peelDead()
		return mathbits.OnesCount32(j.dead)
	}
	n := len(p.Nodes)
	if p.usersOK {
		// Exact no-dead-code test, no graph walk: in a DAG, a nonempty
		// dead set always contains a topologically maximal node, and
		// nothing at all reads that node (a reader would be dead and
		// later), so its user mask is empty. Conversely an unread
		// non-root body node is trivially dead. Most moves leave no
		// dead nodes, so this skips the reachability DFS entirely.
		hasDead := false
		for i := p.NumInputs; i < n; i++ {
			if p.users[i] == 0 && int32(i) != p.Root {
				hasDead = true
				break
			}
		}
		if !hasDead {
			return 0
		}
	}
	full := (uint64(1) << uint(n)) - 1
	live := p.Reachable() | (uint64(1)<<uint(p.NumInputs) - 1) // inputs are permanent
	if live == full {
		return 0
	}
	return p.compact(full &^ live)
}

// Remap fills remap (one entry per node) with the index each node takes
// once the nodes in dead are compacted away, -1 for a dead node, and
// returns the number of survivors. Survivors keep their order and move
// down. This is the one numbering rule of compaction: Program.compact
// and the evaluation engines that re-home their columns at Commit all
// follow it.
func Remap(dead uint64, remap []int32) int {
	w := 0
	for i := range remap {
		if dead&(uint64(1)<<uint(i)) != 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(w)
		w++
	}
	return w
}

// compact removes the nodes in dead (never an input), moving the
// survivors down in order and remapping argument indices and the root.
// It returns the number of nodes removed.
func (p *Program) compact(dead uint64) int {
	var remap [maxTransient]int32
	w := Remap(dead, remap[:len(p.Nodes)])
	for i, to := range remap[:len(p.Nodes)] {
		if to >= 0 {
			p.Nodes[to] = p.Nodes[i]
		}
	}
	removed := len(p.Nodes) - w
	p.Nodes = p.Nodes[:w]
	for i := range p.Nodes {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			nd.Args[a] = remap[nd.Args[a]]
		}
	}
	p.Root = remap[p.Root]
	p.Invalidate()
	return removed
}

// Compacted returns the program as it will be once the active edit
// ends: p itself outside an edit or when the edit's GC found nothing
// dead, otherwise a clone without the journal's dead nodes. Consumers
// that read a proposal whole (the debug invariant gate, the
// rewrite-equivalence memo) take this form; the evaluation engines read
// p and skip the dead nodes.
func (p *Program) Compacted() *Program {
	if p.jr == nil || p.jr.dead == 0 {
		return p
	}
	q := p.Clone()
	q.compact(uint64(p.jr.dead))
	return q
}

// Validate checks all structural invariants and returns a descriptive
// error for the first violation found.
func (p *Program) Validate() error {
	n := len(p.Nodes)
	if p.NumInputs < 0 || p.NumInputs > MaxInputs {
		return fmt.Errorf("prog: input count %d out of range [0, %d]", p.NumInputs, MaxInputs)
	}
	if n < p.NumInputs {
		return errors.New("prog: missing permanent input nodes")
	}
	if body := n - p.NumInputs; body > MaxBody {
		return fmt.Errorf("prog: %d body nodes exceeds limit %d", body, MaxBody)
	}
	if p.Root < 0 || int(p.Root) >= n {
		return fmt.Errorf("prog: root index %d out of range", p.Root)
	}
	for i, nd := range p.Nodes {
		switch {
		case i < p.NumInputs:
			if nd.Op != OpInput || nd.Val != uint64(i) {
				return fmt.Errorf("prog: node %d must be the permanent input %d node", i, i)
			}
			continue
		case nd.Op == OpInput:
			return fmt.Errorf("prog: body node %d duplicates input %d", i, nd.Val)
		case nd.Op == OpInvalid || int(nd.Op) >= NumOps:
			return fmt.Errorf("prog: node %d has invalid opcode %d", i, nd.Op)
		}
		for a := 0; a < nd.Op.Arity(); a++ {
			if nd.Args[a] < 0 || int(nd.Args[a]) >= n {
				return fmt.Errorf("prog: node %d argument %d index %d out of range", i, a, nd.Args[a])
			}
		}
		// Unused operand slots must stay zero so that structural
		// comparison and hashing never observe stale wiring left
		// behind by a mutator that shrank a node's arity.
		for a := nd.Op.Arity(); a < MaxArity; a++ {
			if nd.Args[a] != 0 {
				return fmt.Errorf("prog: node %d (%s) has stale operand index %d in unused slot %d", i, nd.Op, nd.Args[a], a)
			}
		}
	}
	// Acyclicity: topological sort must cover all nodes.
	if err := p.checkAcyclic(); err != nil {
		return err
	}
	// No dead code among body nodes.
	mask := p.Reachable() | (uint64(1)<<uint(p.NumInputs) - 1)
	if full := (uint64(1) << uint(n)) - 1; mask != full {
		return fmt.Errorf("prog: dead body nodes present (reachable mask %#x of %#x)", mask, full)
	}
	return nil
}

// checkAcyclic is a non-panicking cycle check.
func (p *Program) checkAcyclic() error {
	n := len(p.Nodes)
	var state [maxTransient]uint8 // 0 unvisited, 1 on stack, 2 done
	var visit func(int32) error
	visit = func(v int32) error {
		switch state[v] {
		case 1:
			return fmt.Errorf("prog: cycle through node %d", v)
		case 2:
			return nil
		}
		state[v] = 1
		nd := &p.Nodes[v]
		for a := 0; a < nd.Op.Arity(); a++ {
			if err := visit(nd.Args[a]); err != nil {
				return err
			}
		}
		state[v] = 2
		return nil
	}
	for i := 0; i < n; i++ {
		if err := visit(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports structural equality of two programs (same nodes in the
// same order with the same root). Semantically equal programs may
// compare unequal; use Canon for a structure-insensitive key.
func (p *Program) Equal(q *Program) bool {
	if p.Root != q.Root || p.NumInputs != q.NumInputs || len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		a, b := p.Nodes[i], q.Nodes[i]
		if a.Op != b.Op || a.Val != b.Val {
			return false
		}
		for k := 0; k < a.Op.Arity(); k++ {
			if a.Args[k] != b.Args[k] {
				return false
			}
		}
	}
	return true
}
