// Package eqsat is a small equality-saturation engine over the
// dataflow programs of internal/prog: a hashconsed e-graph with
// union-find e-classes and congruence closure, a budgeted saturation
// driver that reuses the exported algebraic rule table from
// internal/prog/analysis (plus associativity expansion rules of its
// own), and a cost-minimal, deterministic extraction.
//
// The package serves two consumers (DESIGN.md §12):
//
//   - EClassHash keys *rewrite equivalence*: programs that the rule
//     set can prove equal hash identically, strictly coarser than the
//     canonicalizer's syntactic hash (which cannot cross, e.g., an
//     associativity respelling). The synthd cache uses it as a
//     second-level key so rewrite-equivalent submissions hit
//     fleet-wide;
//   - Simplify (saturation plus extraction) is the size optimizer of
//     the eqsat experiment's eqsat and hybrid arms.
//
// Everything is deterministic: classes are stored in a slice and
// visited in id order, node lists are kept sorted, worklists are
// sorted before draining, and the only map (the hashcons) is used for
// lookup, never iterated. Saturation is budgeted by an e-node cap and
// an iteration cap; when the cap bites, the engine degrades to "fewer
// equalities discovered", never to nondeterminism or unsoundness.
package eqsat

import (
	"sort"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis/absint"
)

// classID identifies an e-class. It aliases the rule table's Ref type
// (int32) so e-classes can be fed to analysis.Rule matchers directly.
type classID = int32

// enode is one operator application over e-classes: op applied to the
// classes a and b (b unused below arity 2, always zero there so enode
// stays a well-behaved comparable map key). For OpInput val is the
// input index; for OpConst it is the constant value.
type enode struct {
	op   prog.Op
	a, b classID
	val  uint64
}

// parentEdge records that enode n (a member of class c) uses the class
// the edge is stored on as an argument; congruence repair
// re-canonicalizes these after merges.
type parentEdge struct {
	n enode
	c classID
}

// eclass is the data of one representative class: its member enodes
// (kept sorted between saturation passes), the parent edges of classes
// that use it, the class's constant value once one is known, and the
// class's abstract value (the e-class analysis).
//
// fact is maintained as the MEET over every member's transfer result:
// all members of a class compute the same value on every input, and
// each member's abstract value contains that value, so the
// intersection still does — merging classes can only tighten facts,
// never lose soundness. An Empty fact is therefore a contradiction:
// no value can inhabit the class, which (for classes built from real
// programs) can only mean an unsound rule or transfer function. Such
// classes are counted and cut before extraction.
type eclass struct {
	nodes    []enode
	parents  []parentEdge
	cval     uint64
	hasConst bool
	fact     absint.Value
}

// EGraph is a hashconsed e-graph. The zero value is not usable; call
// New.
type EGraph struct {
	budget Budget
	// uf is the union-find forest over class ids; the representative
	// of a merged set is always its minimum id, so determinism never
	// depends on merge order.
	uf []classID
	// classes is indexed by class id; absorbed (non-representative)
	// ids hold nil. Iterating this slice in index order is the
	// deterministic replacement for iterating a map.
	classes []*eclass
	// memo is the hashcons: canonical enode → class id (possibly
	// stale; resolve through find). Lookup-only — never iterated.
	memo map[enode]classID
	// worklist holds classes whose parents need congruence repair.
	worklist []classID
	// capped records that Add refused an enode on the node budget;
	// the graph is still sound, just less saturated.
	capped    bool
	saturated bool
	stats     Stats
}

// New returns an empty e-graph operating under b (normalized; zero
// fields get defaults).
func New(b Budget) *EGraph {
	return &EGraph{
		budget: b.normalized(),
		memo:   make(map[enode]classID),
	}
}

// find returns the representative of c, compressing paths as it goes.
func (g *EGraph) find(c classID) classID {
	for g.uf[c] != c {
		g.uf[c] = g.uf[g.uf[c]]
		c = g.uf[c]
	}
	return c
}

// canonicalize rewrites n's argument classes to their representatives
// and sorts the arguments of commutative operators by class id.
func (g *EGraph) canonicalize(n enode) enode {
	if !n.op.IsInstruction() {
		return n
	}
	n.a = g.find(n.a)
	if n.op.Arity() == 2 {
		n.b = g.find(n.b)
		if prog.Commutative(n.op) && n.a > n.b {
			n.a, n.b = n.b, n.a
		}
	}
	return n
}

// Add inserts n (hashconsed: an existing equal enode returns its
// class). It reports false — without modifying the graph — when the
// node budget is exhausted; saturation rules treat that as "rule does
// not fire", keeping budgeted runs deterministic and sound.
func (g *EGraph) Add(n enode) (classID, bool) {
	n = g.canonicalize(n)
	if id, ok := g.memo[n]; ok {
		return g.find(id), true
	}
	if len(g.classes) >= g.budget.MaxNodes {
		g.capped = true
		return -1, false
	}
	id := classID(len(g.classes))
	cls := &eclass{nodes: []enode{n}, fact: g.nodeFact(n)}
	if n.op == prog.OpConst {
		cls.cval, cls.hasConst = n.val, true
	}
	g.classes = append(g.classes, cls)
	g.uf = append(g.uf, id)
	g.memo[n] = id
	if n.op.IsInstruction() {
		g.classes[n.a].parents = append(g.classes[n.a].parents, parentEdge{n: n, c: id})
		if n.op.Arity() == 2 && n.b != n.a {
			g.classes[n.b].parents = append(g.classes[n.b].parents, parentEdge{n: n, c: id})
		}
	}
	return id, true
}

// union merges the classes of x and y, keeping the smaller id as
// representative, and queues the merged class for congruence repair.
// It reports whether a merge actually happened.
func (g *EGraph) union(x, y classID) bool {
	rx, ry := g.find(x), g.find(y)
	if rx == ry {
		return false
	}
	if rx > ry {
		rx, ry = ry, rx
	}
	g.uf[ry] = rx
	cx, cy := g.classes[rx], g.classes[ry]
	cx.nodes = append(cx.nodes, cy.nodes...)
	cx.parents = append(cx.parents, cy.parents...)
	if cy.hasConst {
		if !cx.hasConst {
			cx.cval, cx.hasConst = cy.cval, true
		} else if cx.cval != cy.cval {
			// Two distinct constants proved equal would mean an
			// unsound rule; record it (extraction's Eval-equality
			// check is the safety net) rather than panicking in
			// production paths.
			g.stats.ConstConflicts++
		}
	}
	// Members of a merged class are provably equal, so the class value
	// lies in both facts: meet them. An empty meet is the abstract
	// analogue of a constant conflict — count it, never panic.
	if m := cx.fact.Meet(cy.fact); m.Empty() && !cx.fact.Empty() && !cy.fact.Empty() {
		g.stats.FactConflicts++
		cx.fact = m
	} else {
		cx.fact = m
	}
	g.classes[ry] = nil
	g.worklist = append(g.worklist, rx)
	g.stats.Merges++
	return true
}

// rebuild restores the congruence invariant after a batch of unions:
// parents of merged classes are re-canonicalized through the hashcons,
// and colliding parents are themselves unioned, to a fixpoint. The
// worklist is sorted and deduplicated before each drain so repair
// order is a function of graph content only.
func (g *EGraph) rebuild() {
	for len(g.worklist) > 0 {
		todo := g.worklist
		g.worklist = nil
		for i := range todo {
			todo[i] = g.find(todo[i])
		}
		sort.Slice(todo, func(i, j int) bool { return todo[i] < todo[j] })
		prev := classID(-1)
		for _, c := range todo {
			if c == prev {
				continue
			}
			prev = c
			g.repair(c)
		}
	}
	g.normalize()
	g.refineFacts()
}

// repair re-canonicalizes every parent of class c. Parents whose
// canonical form now collides in the hashcons are congruent — their
// classes are unioned (which may grow the worklist).
func (g *EGraph) repair(c classID) {
	rep := g.find(c)
	cls := g.classes[rep]
	if cls == nil {
		return
	}
	parents := cls.parents
	cls.parents = nil
	fresh := make([]parentEdge, 0, len(parents))
	for _, pe := range parents {
		delete(g.memo, pe.n)
		pn := g.canonicalize(pe.n)
		pc := g.find(pe.c)
		if existing, ok := g.memo[pn]; ok {
			g.union(pc, existing)
			pc = g.find(pc)
		}
		g.memo[pn] = pc
		fresh = append(fresh, parentEdge{n: pn, c: pc})
	}
	// The repairs above may have merged rep itself into a smaller
	// class; reattach the rebuilt parent list wherever it lives now.
	target := g.classes[g.find(rep)]
	target.parents = append(target.parents, fresh...)
}

// normalize re-canonicalizes, sorts, and dedupes every class's node
// list so that rule matching and extraction iterate identical
// sequences regardless of the union history that produced the class.
func (g *EGraph) normalize() {
	for id := range g.classes {
		cls := g.classes[id]
		if cls == nil || g.find(classID(id)) != classID(id) {
			continue
		}
		for i, n := range cls.nodes {
			cls.nodes[i] = g.canonicalize(n)
		}
		sort.Slice(cls.nodes, func(i, j int) bool { return lessNode(cls.nodes[i], cls.nodes[j]) })
		w := 0
		for i, n := range cls.nodes {
			if i == 0 || n != cls.nodes[i-1] {
				cls.nodes[w] = n
				w++
			}
		}
		cls.nodes = cls.nodes[:w]
	}
}

func lessNode(x, y enode) bool {
	if x.op != y.op {
		return x.op < y.op
	}
	if x.a != y.a {
		return x.a < y.a
	}
	if x.b != y.b {
		return x.b < y.b
	}
	return x.val < y.val
}

// nodeFact computes one enode's abstract value from its argument
// classes' facts: exact for constants, Top for inputs (e-graph facts
// must hold for every input vector — the rules consume them), and the
// absint transfer function for instructions.
func (g *EGraph) nodeFact(n enode) absint.Value {
	switch n.op {
	case prog.OpConst:
		return absint.Exact(n.val)
	case prog.OpInput:
		return absint.Top()
	}
	a := g.classes[g.find(n.a)].fact
	b := absint.Top()
	if n.op.Arity() == 2 {
		b = g.classes[g.find(n.b)].fact
	}
	return absint.Transfer(n.op, a, b)
}

// refineFacts re-meets every class's fact with its members' transfer
// results until nothing changes — the e-class analysis fixpoint run
// after congruence repair, where merges may have tightened argument
// facts. Facts only descend in the lattice, so the loop terminates;
// the pass cap is a belt-and-suspenders bound against slow interval
// narrowing (any sound intermediate value is a valid stopping point).
func (g *EGraph) refineFacts() {
	for pass := 0; pass < 8; pass++ {
		changed := false
		for id := range g.classes {
			cls := g.classes[id]
			if cls == nil || g.find(classID(id)) != classID(id) {
				continue
			}
			for _, n := range cls.nodes {
				m := cls.fact.Meet(g.nodeFact(n))
				if m != cls.fact {
					if m.Empty() && !cls.fact.Empty() {
						g.stats.FactConflicts++
					}
					cls.fact = m
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// factConst merges c with the constant class its fact pins down: the
// analysis can decide a value from partial knowledge of the member
// arguments (e.g. ranges deciding a comparison through an unknown
// operand), which the all-constant-arguments folder can never reach.
func (g *EGraph) factConst(c classID) bool {
	cls := g.classes[g.find(c)]
	if cls.hasConst {
		return false
	}
	v, ok := cls.fact.Exact()
	if !ok {
		return false
	}
	id, added := g.Add(enode{op: prog.OpConst, val: v})
	if !added {
		return false
	}
	g.stats.FactConsts++
	return g.union(c, id)
}

// classConst resolves class c to a constant value when one is known.
func (g *EGraph) classConst(c classID) (uint64, bool) {
	cls := g.classes[g.find(c)]
	return cls.cval, cls.hasConst
}

// AddProgram inserts every node of p, returning the class of p's root.
// It reports false only when the node budget cannot even hold the
// program itself (callers should then fall back to the program as-is).
func (g *EGraph) AddProgram(p *prog.Program) (classID, bool) {
	cls := make([]classID, len(p.Nodes))
	for _, i := range p.TopoOrder() {
		nd := &p.Nodes[i]
		var n enode
		switch {
		case nd.Op == prog.OpInput:
			n = enode{op: prog.OpInput, val: nd.Val}
		case nd.Op == prog.OpConst:
			n = enode{op: prog.OpConst, val: nd.Val}
		default:
			n = enode{op: nd.Op, a: cls[nd.Args[0]]}
			if nd.Op.Arity() == 2 {
				n.b = cls[nd.Args[1]]
			}
		}
		id, ok := g.Add(n)
		if !ok {
			return -1, false
		}
		cls[i] = id
	}
	g.rebuild()
	return g.find(cls[p.Root]), true
}

// Stats returns the graph's counters plus the current live class and
// e-node totals.
func (g *EGraph) Stats() Stats {
	st := g.stats
	for id, cls := range g.classes {
		if cls == nil || g.find(classID(id)) != classID(id) {
			continue
		}
		st.Classes++
		st.Nodes += len(cls.nodes)
	}
	st.Saturated = g.saturated && !g.capped
	return st
}

// Stats are the observable counters of one e-graph's lifetime.
type Stats struct {
	// Saturations counts Saturate calls (one per EClassHash).
	Saturations int
	// Iters counts saturation passes actually run.
	Iters int
	// Merges counts e-class unions.
	Merges int
	// Extractions counts cost-minimal extractions performed.
	Extractions int
	// Fallbacks counts extractions that failed validation or the
	// Eval-equality check and fell back to the input program.
	Fallbacks int
	// Nodes and Classes are the live totals at Stats() time.
	Nodes   int
	Classes int
	// ConstConflicts counts two distinct constants proved equal — an
	// unsound rule; always zero unless a rule is broken.
	ConstConflicts int
	// FactConsts counts classes proved constant by the e-class
	// analysis alone (fact narrowed to a singleton with non-constant
	// member arguments — out of the constant folder's reach).
	FactConsts int
	// FactConflicts counts class merges or refinements whose fact meet
	// came out empty — the abstract analogue of ConstConflicts; always
	// zero unless a rule or transfer function is unsound.
	FactConflicts int
	// EmptyClasses counts classes cut before extraction because their
	// fact was empty (uninhabitable); always zero when FactConflicts
	// is.
	EmptyClasses int
	// Saturated reports that saturation reached a fixpoint without
	// the node budget refusing any addition.
	Saturated bool
}
