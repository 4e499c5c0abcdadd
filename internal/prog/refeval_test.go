package prog

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/testcase"
)

// randInstOp returns a uniformly random instruction opcode.
func randInstOp(rng *rand.Rand) Op {
	return Op(int(OpConst) + 1 + rng.IntN(NumOps-int(OpConst)-1))
}

// randBodyNode returns a random body node for index idx whose
// arguments point at strictly lower indices, so index order is a
// topological order by construction and every random edit below keeps
// the graph acyclic.
func randBodyNode(rng *rand.Rand, idx int) Node {
	if rng.IntN(4) == 0 {
		return Node{Op: OpConst, Val: rng.Uint64()}
	}
	nd := Node{Op: randInstOp(rng)}
	nd.Args[0] = int32(rng.IntN(idx))
	nd.Args[1] = int32(rng.IntN(idx))
	return nd
}

// randProgram builds a random acyclic program with the given body
// size, rooted at the last node.
func randProgram(rng *rand.Rand, numInputs, body int) *Program {
	p := newBase(numInputs)
	for k := 0; k < body; k++ {
		p.Nodes = append(p.Nodes, randBodyNode(rng, len(p.Nodes)))
	}
	p.Root = int32(len(p.Nodes) - 1)
	return p
}

// checkTopoOrder asserts that the program's (possibly cached)
// topological order covers every node and places arguments before
// their users. After Rollback this validates the journal's restored
// order cache against the restored program.
func checkTopoOrder(t *testing.T, p *Program) {
	t.Helper()
	order := p.TopoOrder()
	if len(order) != len(p.Nodes) {
		t.Fatalf("topo order covers %d of %d nodes", len(order), len(p.Nodes))
	}
	var pos [MaxNodes]int
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

// TestRefEvalRandomEdits drives the reference engine through a long
// random walk of journaled in-place edits — opcode and argument
// rewrites, appends, root moves, and GCs. Every proposal's EvalRange
// output is checked against the program EndEdit would leave (compacted,
// so dead nodes cannot leak into the root), every Abort+Rollback must
// restore the pre-edit program and a valid cached topological order,
// and the committed root column must describe the current program
// after either branch.
func TestRefEvalRandomEdits(t *testing.T) {
	const numInputs = 2
	const ncases = 19 // not a multiple of EvalChunk: exercises the tail block
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xe17))
		suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1] },
			numInputs, ncases, rng)
		p := randProgram(rng, numInputs, 6)
		e := NewRefEval(suite)
		e.Reset(p)
		var j Journal
		got := make([]uint64, ncases)
		var vals [MaxNodes]uint64
		for iter := 0; iter < 300; iter++ {
			snap := p.Clone()
			p.BeginEdit(&j)
			for w, nwrites := 0, 1+rng.IntN(3); w < nwrites; w++ {
				switch k := rng.IntN(3); {
				case k == 0 && p.BodyLen() > 0:
					// Arity-preserving opcode swap, like the real opcode
					// move: a grown arity would expose a stale Args slot
					// that GC never remapped.
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					if op, ok := FullSet.RandomOpArity(rng, p.Nodes[i].Op.Arity()); ok {
						p.SetOp(i, op)
					}
				case k == 1 && p.BodyLen() > 0:
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					p.SetArg(i, rng.IntN(MaxArity), int32(rng.IntN(int(i))))
				case len(p.Nodes) < MaxNodes:
					p.AppendNode(randBodyNode(rng, len(p.Nodes)))
				}
			}
			// Occasionally move the root and collect (writes first,
			// collect last — the journaling discipline). GC only marks
			// the dead nodes; EndEdit compacts.
			if rng.IntN(4) == 0 {
				p.SetRoot(int32(rng.IntN(len(p.Nodes))))
				if n := len(p.Nodes); p.GC() > 0 && len(p.Nodes) != n {
					t.Fatalf("seed %d iter %d: GC renumbered the program mid-edit", seed, iter)
				}
			}
			e.Begin(&j)
			for c0 := 0; c0 < ncases; c0 += EvalChunk {
				c1 := c0 + EvalChunk
				if c1 > ncases {
					c1 = ncases
				}
				copy(got[c0:c1], e.EvalRange(c0, c1))
			}
			// Proposal root values vs the edited program as EndEdit
			// would compact it.
			q := p.Compacted()
			for c, tc := range suite.Cases {
				if want := q.Eval(tc.Inputs, vals[:]); got[c] != want {
					t.Fatalf("seed %d iter %d case %d: EvalRange %#x, fresh eval %#x",
						seed, iter, c, got[c], want)
				}
			}
			if rng.IntN(2) == 0 {
				e.Commit()
				p.EndEdit()
			} else {
				e.Abort()
				p.Rollback()
				if !p.Equal(snap) {
					t.Fatalf("seed %d iter %d: rollback diverged", seed, iter)
				}
			}
			// The committed root column must describe the current
			// program exactly, whichever branch was taken.
			for c, tc := range suite.Cases {
				if want := p.Eval(tc.Inputs, vals[:]); e.RootColumn()[c] != want {
					t.Fatalf("seed %d iter %d case %d: root column %#x, eval %#x",
						seed, iter, c, e.RootColumn()[c], want)
				}
			}
			checkTopoOrder(t, p)
		}
		if st := e.Stats(); st.NodesReevaluated > st.NodesTotal ||
			st.CasesEvaluated > st.CasesTotal || st.NodesTotal == 0 {
			t.Fatalf("seed %d: implausible stats: %+v", seed, st)
		}
	}
}
