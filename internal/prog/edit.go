package prog

import mathbits "math/bits"

// This file implements in-place program editing with undo: the core of
// the incremental evaluation engine. A Journal attached to a Program
// (BeginEdit) records, for every node the edit overwrites, the node's
// original contents the first time it is touched (copy-on-write), plus
// the original root and length. Rollback restores the pre-edit program
// exactly; commit-side consumers (plan.State) use the journal's dirty
// and dead masks to know which value columns survived the edit
// unchanged and where they move when the edit ends.
//
// The journal replaces a double-buffered proposal scheme (copy the
// current program, mutate the copy, swap on acceptance): a move edits
// the current program directly and is reverted on rejection.
// Because the journal only observes writes — it never reorders them,
// and reverting reproduces the exact pre-edit node array — a
// journaled apply/rollback sequence is bit-identical to the
// copy-and-discard sequence: the oracle tables pin it, and
// TestJournaledEditMatchesCopyEdit compares every move both ways.
//
// Compaction is deferred to the end of a kept edit. Under a journal GC
// renumbers nothing: it records the set of body nodes the edit left
// unreachable from the root (Dead). Node indices therefore stay stable
// for the whole edit, so the proposal is evaluated on the uncompacted
// program (dead nodes are never dirty and never on the root's path,
// and the plan engine skips them) and a rejected proposal is undone by
// Rollback alone. EndEdit compacts: dead nodes are removed and the
// survivors move down in order.
//
// Discipline (asserted, documented here for editors):
//
//   - All writes during an edit must go through the journaling
//     mutators (SetOp, SetArg, SetRoot, AppendNode) or through GC.
//   - No content writes after a GC that found dead nodes. Every mutate
//     move satisfies this: moves write first and garbage-collect last.
//   - Engines bound to the program Commit before EndEdit: Commit
//     re-homes their columns by the dead mask, in the uncompacted
//     numbering.

// Journal records the undo and dirtiness information of one in-place
// edit. The zero value is ready for use; a single Journal is reused
// across iterations by the search loop (BeginEdit resets it in O(1)).
// Its masks are over the edit's node indices, which nothing renumbers
// before EndEdit.
type Journal struct {
	saved    [MaxNodes]Node
	savedSet uint32 // bitmask over pre-edit indices with an entry in saved
	oldLen   int
	oldRoot  int32

	// dirty is the bitmask of nodes whose own content the edit changed:
	// content-written nodes and appended nodes. Nodes outside the mask
	// hold the same op, val, and argument indices as before the edit —
	// but their *values* may still change when a transitive argument is
	// dirty, so value consumers must close the mask over users
	// (Program.UserClosure).
	dirty uint32

	// dead is the set of body nodes the edit's GC found unreachable
	// from the root; EndEdit removes them.
	dead uint32

	// savedOrder snapshots the program's topological-order cache at
	// BeginEdit. Rollback restores the exact pre-edit program, for
	// which the pre-edit order is again valid, so restoring the cache
	// saves a rebuild on every rejected proposal.
	savedOrder    [MaxNodes]int32
	savedOrderLen int
	savedOrderOK  bool

	// savedAritySum snapshots the arity-sum cache at BeginEdit;
	// Rollback restores it (the restored program is exactly the
	// pre-edit one, for which the snapshot is exact).
	savedAritySum   int
	savedAritySumOK bool
}

// BeginEdit attaches j to p and resets it. Subsequent journaling
// mutator calls and GC record into j until EndEdit or Rollback.
// Nested edits are not supported.
func (p *Program) BeginEdit(j *Journal) {
	if p.jr != nil {
		panic("prog: BeginEdit with an edit already active")
	}
	j.savedSet = 0
	j.dirty = 0
	j.dead = 0
	j.oldLen = len(p.Nodes)
	j.oldRoot = p.Root
	j.savedOrderOK = p.orderOK
	if p.orderOK {
		j.savedOrderLen = copy(j.savedOrder[:], p.order)
	}
	j.savedAritySum = p.aritySum
	j.savedAritySumOK = p.aritySumOK
	p.jr = j
}

// EndEdit detaches the journal, keeping the edit's effects, and
// compacts away the nodes the edit's GC found dead. Engines bound to p
// must Commit first. The journal's masks remain readable until the
// next BeginEdit, in the uncompacted numbering.
func (p *Program) EndEdit() {
	j := p.jr
	p.jr = nil
	if j != nil && j.dead != 0 {
		p.compact(uint64(j.dead))
	}
}

// Journal returns the active edit journal, or nil outside an edit.
func (p *Program) Journal() *Journal { return p.jr }

// Mutated reports whether the edit changed anything: any node written
// or appended, or the root moved. A move that returned invalid leaves
// the program untouched and Mutated false.
func (j *Journal) Mutated(p *Program) bool {
	return j.savedSet != 0 || j.dirty != 0 ||
		len(p.Nodes) != j.oldLen || p.Root != j.oldRoot
}

// Dirty returns the bitmask of nodes whose own content the edit
// changed (written or appended).
func (j *Journal) Dirty() uint32 { return j.dirty }

// Dead returns the bitmask of body nodes the edit's GC found
// unreachable from the root; EndEdit removes them.
func (j *Journal) Dead() uint32 { return j.dead }

// Rollback restores the exact pre-edit program and detaches the
// journal. The cached topological order is dropped only when the edit
// actually changed something, so rejected invalid proposals keep the
// order cache warm.
func (p *Program) Rollback() {
	j := p.jr
	if j == nil {
		panic("prog: Rollback without an active edit")
	}
	p.jr = nil
	if !j.Mutated(p) {
		return
	}
	if p.usersOK {
		// The masks describe the current (end-of-edit) program — the
		// journaling mutators maintain them through every write, and GC
		// never renumbers under a journal — so they can be repaired
		// instead of rebuilt: remove every edge the edit's surviving
		// nodes own (appended nodes and overwritten nodes), restore the
		// nodes, then re-add the restored edges. Untouched nodes' edges
		// were never disturbed.
		for i := j.oldLen; i < len(p.Nodes); i++ {
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] &^= bit
			}
		}
		for mask := j.savedSet; mask != 0; {
			i := mathbits.TrailingZeros32(mask)
			mask &^= 1 << uint(i)
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] &^= bit
			}
		}
		// Keep the invariant that mask slots at or past the node count
		// are zero (AppendNode relies on it).
		for i := j.oldLen; i < len(p.Nodes); i++ {
			p.users[i] = 0
		}
	}
	p.Nodes = p.Nodes[:j.oldLen]
	for mask := j.savedSet; mask != 0; {
		i := mathbits.TrailingZeros32(mask)
		mask &^= 1 << uint(i)
		p.Nodes[i] = j.saved[i]
	}
	p.Root = j.oldRoot
	if p.usersOK {
		for mask := j.savedSet; mask != 0; {
			i := mathbits.TrailingZeros32(mask)
			mask &^= 1 << uint(i)
			nd := &p.Nodes[i]
			bit := uint32(1) << uint(i)
			for a := 0; a < nd.Op.Arity(); a++ {
				p.users[nd.Args[a]] |= bit
			}
		}
	}
	if j.savedOrderOK {
		// The restored program is bit-identical to the pre-edit one, so
		// its cached topological order is valid again.
		p.order = append(p.order[:0], j.savedOrder[:j.savedOrderLen]...)
		p.orderOK = true
	} else {
		p.orderOK = false
	}
	p.aritySum = j.savedAritySum
	p.aritySumOK = j.savedAritySumOK
}

// noteWrite records a content write to node i: journal the original
// the first time a pre-edit node is touched (truncation undoes
// appended ones) and mark the node dirty. Must not be called after a
// GC that found dead nodes (mutate moves write first, collect last).
func (j *Journal) noteWrite(p *Program, i int32) {
	if j.dead != 0 {
		panic("prog: content write after GC in the same edit")
	}
	bit := uint32(1) << uint(i)
	if i < int32(j.oldLen) && j.savedSet&bit == 0 {
		j.savedSet |= bit
		j.saved[i] = p.Nodes[i]
	}
	j.dirty |= bit
}

// SetOp replaces node i's opcode. With an active journal the original
// node is saved and the node marked dirty. The cached topological
// order survives a same-arity swap (the edge set is unchanged) and is
// invalidated otherwise — a grown arity exposes an Args slot the
// cached order never accounted for. The cached user masks are
// maintained in place: an arity change adds or removes exactly node
// i's edges through the slots it exposes or hides.
func (p *Program) SetOp(i int32, op Op) {
	if p.jr != nil {
		p.jr.noteWrite(p, i)
	}
	nd := &p.Nodes[i]
	oldAr, newAr := nd.Op.Arity(), op.Arity()
	if oldAr != newAr {
		p.orderOK = false
		p.aritySum += newAr - oldAr
		if p.usersOK {
			bit := uint32(1) << uint(i)
			for a := newAr; a < oldAr; a++ { // edges the shrink hides
				t := nd.Args[a]
				keep := false
				for s := 0; s < newAr; s++ {
					if nd.Args[s] == t {
						keep = true
					}
				}
				if !keep {
					p.users[t] &^= bit
				}
			}
			for a := oldAr; a < newAr; a++ { // edges the growth exposes
				p.users[nd.Args[a]] |= bit
			}
		}
	}
	nd.Op = op
}

// SetArg repoints argument slot a of node i at node v and invalidates
// the cached topological order (the edge set changed; the caller's
// acyclicity is its own responsibility). The cached user masks are
// maintained in place — node i stops using the old target (unless
// another live slot still reads it) and starts using v — so the
// mutation layer's per-proposal Ancestors queries never trigger a
// full mask rebuild.
func (p *Program) SetArg(i int32, a int, v int32) {
	if p.jr != nil {
		p.jr.noteWrite(p, i)
	}
	nd := &p.Nodes[i]
	old := nd.Args[a]
	nd.Args[a] = v
	if p.usersOK && a < nd.Op.Arity() {
		bit := uint32(1) << uint(i)
		keep := false
		for s := 0; s < nd.Op.Arity(); s++ {
			if s != a && nd.Args[s] == old {
				keep = true
			}
		}
		if !keep {
			p.users[old] &^= bit
		}
		p.users[v] |= bit
	}
	p.orderOK = false
}

// SetRoot repoints the program root at node v. The root slot carries
// no value column of its own, so nothing is marked dirty, and the
// cached topological order (which covers every node regardless of the
// root) stays valid.
func (p *Program) SetRoot(v int32) { p.Root = v }

// AppendNode appends a body node and returns its index, invalidating
// the cached topological order (the new node is not in it). Appended
// nodes are dirty by construction and are undone by truncation. The
// cached user masks are maintained in place: the new node's slot is
// cleared (it may hold bits from a node truncated at that index) and
// its own edges added.
func (p *Program) AppendNode(n Node) int32 {
	i := int32(len(p.Nodes))
	if p.jr != nil {
		if p.jr.dead != 0 {
			panic("prog: append after GC in the same edit")
		}
		p.jr.dirty |= 1 << uint(i)
	}
	p.Nodes = append(p.Nodes, n)
	p.aritySum += n.Op.Arity()
	if p.usersOK {
		// users[i] needs no clearing: mask slots past the node count are
		// zero by invariant (full rebuilds zero the whole array and
		// Rollback zeroes the slots it truncates). It may legitimately
		// be non-zero already — the instruction move appends nodes whose
		// arguments point forward at constants it appends right after.
		bit := uint32(1) << uint(i)
		for a := 0; a < n.Op.Arity(); a++ {
			p.users[n.Args[a]] |= bit
		}
	}
	p.orderOK = false
	return i
}

// peelDead returns the set of body nodes unreachable from the root,
// found over the cached user masks instead of a reachability walk: a
// non-root body node is dead once all of its users are, so the
// worklist starts from the unread nodes and revisits the arguments of
// every node it peels. In a DAG the peeled set is exactly the body's
// complement of Reachable, and most moves leave no unread node, so the
// common case is one scan of the masks.
func (p *Program) peelDead() uint32 {
	users := p.userMasks()
	n := len(p.Nodes)
	cand := (uint32(1)<<uint(n) - 1) &^ (uint32(1)<<uint(p.NumInputs) - 1) &^ (1 << uint(p.Root))
	var work uint32
	for m := cand; m != 0; m &= m - 1 {
		if i := mathbits.TrailingZeros32(m); users[i] == 0 {
			work |= 1 << uint(i)
		}
	}
	var dead uint32
	for work != 0 {
		i := mathbits.TrailingZeros32(work)
		bit := uint32(1) << uint(i)
		work &^= bit
		if dead&bit != 0 || users[i]&^dead != 0 {
			continue
		}
		dead |= bit
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			work |= 1 << uint(nd.Args[a])
		}
		work &= cand
	}
	return dead
}
