package prog_test

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// checkOrder asserts that the program's (possibly cached) topological
// order covers every node and places arguments before their users.
// After a Rollback this validates the journal's restored order cache.
func checkOrder(t *testing.T, p *prog.Program) {
	t.Helper()
	order := p.TopoOrder()
	if len(order) != p.Len() {
		t.Fatalf("topo order covers %d of %d nodes", len(order), p.Len())
	}
	var pos [prog.MaxNodes]int
	for k, i := range order {
		pos[i] = k
	}
	for _, i := range order {
		nd := &p.Nodes[i]
		for a := 0; a < nd.Op.Arity(); a++ {
			if pos[nd.Args[a]] >= pos[i] {
				t.Fatalf("node %d ordered before its argument %d", i, nd.Args[a])
			}
		}
	}
}

// TestJournalRollbackUnderMoves drives the real mutation moves through
// journaled in-place edits, accepting a third of the valid proposals
// (so the walk explores program space) and rejecting the rest: after
// every Rollback the program must be bit-identical to its pre-edit
// snapshot and its restored topological-order cache must still be a
// valid order; after every accept the program must still Validate.
func TestJournalRollbackUnderMoves(t *testing.T) {
	dialects := []struct {
		name       string
		set        *prog.OpSet
		redundancy bool
	}{
		{"full", prog.FullSet, false},
		{"model", prog.ModelSet, true},
	}
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(42, 0xed17))
			suite := testcase.Generate(func(in []uint64) uint64 { return in[0] &^ in[1] }, 2, 33, rng)
			mut := mutate.New(d.set, suite, d.redundancy)
			p := prog.NewZero(2)
			var j prog.Journal
			accepted := 0
			for iter := 0; iter < 2000; iter++ {
				snap := p.Clone()
				p.BeginEdit(&j)
				_, ok := mut.Apply(p, rng)
				if ok && rng.IntN(3) == 0 {
					p.EndEdit()
					accepted++
					if err := p.Validate(); err != nil {
						t.Fatalf("iter %d: accepted program invalid: %v\n%s", iter, err, p)
					}
					continue
				}
				p.Rollback()
				if !p.Equal(snap) {
					t.Fatalf("iter %d: rollback diverged:\n got %s\nwant %s", iter, p, snap)
				}
				checkOrder(t, p)
			}
			if accepted == 0 {
				t.Fatal("no proposal was ever accepted; the walk never moved")
			}
		})
	}
}

// TestJournalDirtyMaskSoundness pins the contract the evaluation
// engines build on: after a move, the journal's dirty mask closed over
// transitive users, skipping the nodes GC found dead (exactly what
// plan.State.Begin does), covers every node whose value can change.
// Every other node keeps its index until EndEdit and computes exactly
// what it computed before the edit, on every suite input. Dead nodes
// are never dirty.
func TestJournalDirtyMaskSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xd127))
	suite := testcase.Generate(func(in []uint64) uint64 { return in[0] * in[1] }, 2, 9, rng)
	mut := mutate.New(prog.FullSet, suite, false)
	p := prog.NewZero(2)
	var j prog.Journal
	var valsNew, valsOld [prog.MaxNodes]uint64
	for iter := 0; iter < 2000; iter++ {
		snap := p.Clone()
		p.BeginEdit(&j)
		if _, ok := mut.Apply(p, rng); !ok {
			p.Rollback()
			continue
		}
		dead := j.Dead()
		if j.Dirty()&dead != 0 {
			t.Fatalf("iter %d: dirty nodes %#x found dead %#x", iter, j.Dirty(), dead)
		}
		dirty := p.UserClosure(j.Dirty(), dead)
		for _, tc := range suite.Cases {
			p.Eval(tc.Inputs, valsNew[:])
			snap.Eval(tc.Inputs, valsOld[:])
			for i := 0; i < snap.Len(); i++ {
				if (dirty|dead)&(1<<uint(i)) != 0 {
					continue
				}
				if valsNew[i] != valsOld[i] {
					t.Fatalf("iter %d inputs %v: clean node %d changed value: %#x -> %#x",
						iter, tc.Inputs, i, valsOld[i], valsNew[i])
				}
			}
		}
		p.EndEdit()
	}
}

// TestGCDeadSetIsComplementOfReachable pins deferred GC: under a
// journal GC renumbers nothing, and the dead set it peels over the
// user masks is exactly the body nodes Reachable does not reach. The
// walk mixes every mutate move, including the model dialect's
// redundancy merges, with raw appends and root moves. A kept edit must
// compact to a valid program that computes what the proposal did.
func TestGCDeadSetIsComplementOfReachable(t *testing.T) {
	for _, d := range []struct {
		name       string
		set        *prog.OpSet
		redundancy bool
	}{{"full", prog.FullSet, false}, {"model", prog.ModelSet, true}} {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 0x9c))
			suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1]>>2 }, 2, 16, rng)
			mut := mutate.New(d.set, suite, d.redundancy)
			p := prog.NewZero(2)
			var j prog.Journal
			in := suite.Cases[0].Inputs
			peeled := 0
			for iter := 0; iter < 3000; iter++ {
				p.BeginEdit(&j)
				n := p.Len()
				if rng.IntN(4) == 0 {
					if p.BodyLen() < prog.MaxBody {
						nd := prog.Node{Op: prog.OpConst, Val: rng.Uint64()}
						if op := d.set.RandomOp(rng); rng.IntN(2) == 0 {
							nd = prog.Node{Op: op}
							for a := 0; a < op.Arity(); a++ {
								nd.Args[a] = int32(rng.IntN(p.Len()))
							}
						}
						p.AppendNode(nd)
					}
					p.SetRoot(int32(rng.IntN(p.Len())))
					p.GC()
				} else if _, ok := mut.Apply(p, rng); !ok {
					p.Rollback()
					continue
				}
				if p.Len() < n {
					t.Fatalf("iter %d: GC renumbered the program mid-edit (%d -> %d nodes)", iter, n, p.Len())
				}
				body := (uint32(1)<<uint(p.Len()) - 1) &^ (uint32(1)<<uint(p.NumInputs) - 1)
				if want := body &^ uint32(p.Reachable()); j.Dead() != want {
					t.Fatalf("iter %d: dead set %#x, unreachable body %#x\nprogram: %s", iter, j.Dead(), want, p)
				}
				if j.Dead() != 0 {
					peeled++
				}
				want := p.Output(in)
				if rng.IntN(2) == 0 {
					p.Rollback()
					continue
				}
				p.EndEdit()
				if err := p.Validate(); err != nil {
					t.Fatalf("iter %d: kept edit compacted to an invalid program: %v\n%s", iter, err, p)
				}
				if got := p.Output(in); got != want {
					t.Fatalf("iter %d: compaction changed the output: %#x -> %#x", iter, want, got)
				}
			}
			if peeled == 0 {
				t.Fatal("no edit left dead nodes; the peel path never ran")
			}
		})
	}
}

// TestJournalNoopEdit checks the cheap-detach path: an edit that never
// writes (an invalid proposal) rolls back for free, leaving both the
// program and its cached order untouched.
func TestJournalNoopEdit(t *testing.T) {
	p := prog.MustParse("andq(x, subq(x, 1))", 1)
	snap := p.Clone()
	p.TopoOrder() // warm the cache
	var j prog.Journal
	p.BeginEdit(&j)
	if j.Mutated(p) {
		t.Fatal("fresh journal reports a mutation")
	}
	p.Rollback()
	if !p.Equal(snap) {
		t.Fatalf("no-op rollback changed the program: %s", p)
	}
	checkOrder(t, p)
}
