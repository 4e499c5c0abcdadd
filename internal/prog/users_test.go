package prog_test

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
)

// refAncestors recomputes Ancestors(to) from the node array alone: the
// fixpoint of "a node is an ancestor if it is to or reads an ancestor
// through a live argument slot". It is the specification the cached
// user masks must agree with at every point of an edit's lifecycle.
func refAncestors(p *prog.Program, to int32) uint64 {
	mask := uint64(1) << uint(to)
	for changed := true; changed; {
		changed = false
		for i := range p.Nodes {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			nd := &p.Nodes[i]
			for a := 0; a < nd.Op.Arity(); a++ {
				if mask&(1<<uint(nd.Args[a])) != 0 {
					mask |= 1 << uint(i)
					changed = true
					break
				}
			}
		}
	}
	return mask
}

func checkAncestors(t *testing.T, p *prog.Program, where string) {
	t.Helper()
	for to := int32(0); to < int32(p.Len()); to++ {
		if got, want := p.Ancestors(to), refAncestors(p, to); got != want {
			t.Fatalf("%s: Ancestors(%d) = %#x, want %#x\nprogram: %s",
				where, to, got, want, p)
		}
	}
}

// TestAncestorsMaintainedAcrossEdits drives random journaled edit
// sequences — opcode swaps (including arity changes), operand moves,
// appends, GC — through random mixes of mid-edit queries, rollbacks,
// and commits, checking after every step that the incrementally
// maintained user masks still answer Ancestors exactly like a from-
// scratch recomputation. This pins the in-place maintenance in SetOp/
// SetArg/AppendNode and the journal-driven repair in Rollback.
func TestAncestorsMaintainedAcrossEdits(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	set := prog.FullSet
	for trial := 0; trial < 200; trial++ {
		p := mutate.RandomProgram(uint64(trial)+1, 2, 10+rng.IntN(30))
		checkAncestors(t, p, "fresh")
		var j prog.Journal
		for step := 0; step < 40; step++ {
			// Warm the cache outside the edit half the time, so both the
			// maintained-through-edit and built-mid-edit paths run.
			if rng.IntN(2) == 0 {
				p.Ancestors(int32(rng.IntN(p.Len())))
			}
			p.BeginEdit(&j)
			nEdits := 1 + rng.IntN(3)
			for k := 0; k < nEdits; k++ {
				move := rng.IntN(4)
				if p.BodyLen() == 0 && move < 2 {
					move = 2 // nothing to rewrite yet; append instead
				}
				var i int32
				if p.BodyLen() > 0 {
					i = int32(p.NumInputs + rng.IntN(p.BodyLen()))
				}
				switch move {
				case 0:
					// A grown arity exposes whatever the hidden slot holds;
					// mutate only grows arity on slots it immediately
					// repoints, so mirror that contract here and skip swaps
					// whose stale slot would close a cycle.
					op := set.RandomOp(rng)
					nd := p.Nodes[i]
					ok := true
					for a := nd.Op.Arity(); a < op.Arity(); a++ {
						if refAncestors(p, i)&(1<<uint(nd.Args[a])) != 0 {
							ok = false
						}
					}
					if ok {
						p.SetOp(i, op)
					}
				case 1:
					nd := p.Nodes[i]
					if ar := nd.Op.Arity(); ar > 0 {
						slot := rng.IntN(ar)
						// Stay acyclic: only retarget at non-ancestors. Use the
						// reference closure, not the cache under test, so a
						// maintenance bug cannot corrupt the walk itself.
						anc := refAncestors(p, i)
						var cands []int32
						for v := int32(0); v < int32(p.Len()); v++ {
							if anc&(1<<uint(v)) == 0 {
								cands = append(cands, v)
							}
						}
						if len(cands) > 0 {
							p.SetArg(i, slot, cands[rng.IntN(len(cands))])
						}
					}
				case 2:
					if p.BodyLen() < prog.MaxBody {
						op := set.RandomOp(rng)
						var nd prog.Node
						nd.Op = op
						for a := 0; a < op.Arity(); a++ {
							nd.Args[a] = int32(rng.IntN(p.Len()))
						}
						p.AppendNode(nd)
					}
				case 3:
					p.SetRoot(int32(rng.IntN(p.Len())))
				}
				if rng.IntN(2) == 0 {
					checkAncestors(t, p, "mid-edit")
				}
			}
			if rng.IntN(4) == 0 {
				// Under the journal GC only records the dead set: the
				// masks keep describing the uncompacted proposal, which
				// both Rollback and EndEdit's compaction start from.
				n := p.Len()
				p.GC()
				if p.Len() != n {
					t.Fatalf("GC renumbered the program mid-edit: %d -> %d nodes", n, p.Len())
				}
				checkAncestors(t, p, "after GC")
			}
			if rng.IntN(2) == 0 {
				p.Rollback()
				checkAncestors(t, p, "after rollback")
			} else {
				p.EndEdit()
				checkAncestors(t, p, "after commit")
			}
		}
	}
}
