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

// TestFillColumnMatchesEvalOp pins the engine's op-specialized column
// loops to the per-case evalOp reference for every instruction opcode,
// including a split-range fill (the chunked path must be seamless) and
// boundary shift amounts.
func TestFillColumnMatchesEvalOp(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewPCG(1, 2))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for c := 0; c < n; c++ {
		a[c], b[c] = rng.Uint64(), rng.Uint64()
	}
	// Boundary shift/rotate amounts at the front of the b column.
	copy(b, []uint64{0, 1, 31, 32, 63, 64, 65, ^uint64(0)})
	e := &EvalState{}
	dst := make([]uint64, n)
	ab := [2][]uint64{a, b}
	for op := OpConst + 1; op < numOps; op++ {
		nd := &Node{Op: op}
		for c := range dst {
			dst[c] = 0xdeadbeefdeadbeef // poison
		}
		// Two ranges: chunked fills must compose to the full column.
		e.fillColumn(nd, dst, ab, 0, 17)
		e.fillColumn(nd, dst, ab, 17, n)
		for c := 0; c < n; c++ {
			bv := uint64(0)
			if op.Arity() == 2 {
				bv = b[c]
			}
			if want := evalOp(op, a[c], bv); dst[c] != want {
				t.Fatalf("%v case %d: fillColumn %#x, evalOp %#x", op, c, dst[c], want)
			}
		}
	}
	// OpConst broadcasts the node's literal.
	nd := &Node{Op: OpConst, Val: 0x123456789abcdef}
	e.fillColumn(nd, dst, ab, 0, n)
	for c := 0; c < n; c++ {
		if dst[c] != nd.Val {
			t.Fatalf("const case %d: %#x", c, dst[c])
		}
	}
}

// TestEvalStateResetMatchesEval checks that a full Reset reproduces,
// column for column, the values the per-case evaluator computes.
func TestEvalStateResetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0x5eed))
	suite := testcase.Generate(func(in []uint64) uint64 { return in[0] + in[2] }, 3, 29, rng)
	e := NewEvalState(suite)
	var vals, cv [MaxNodes]uint64
	for trial := 0; trial < 50; trial++ {
		p := randProgram(rng, 3, 1+rng.IntN(MaxBody))
		e.Reset(p)
		for c, tc := range suite.Cases {
			root := p.Eval(tc.Inputs, vals[:])
			if e.RootColumn()[c] != root {
				t.Fatalf("trial %d case %d: root column %#x, eval %#x",
					trial, c, e.RootColumn()[c], root)
			}
			e.CaseValues(c, cv[:])
			for i := range p.Nodes {
				if e.cols[i][c] != vals[i] || cv[i] != vals[i] {
					t.Fatalf("trial %d node %d case %d: col %#x, CaseValues %#x, eval %#x",
						trial, i, c, e.cols[i][c], cv[i], vals[i])
				}
			}
		}
	}
}

// TestEvalStateIncrementalRandomEdits is the engine's core property
// test: a long random walk of journaled in-place edits — opcode and
// argument rewrites, appends, root moves, and GCs — with
// every proposal's EvalRange output checked against a from-scratch
// evaluation of the edited program, and the committed matrix checked
// against the current program after every Commit and every
// Abort+Rollback.
func TestEvalStateIncrementalRandomEdits(t *testing.T) {
	const numInputs = 2
	const ncases = 19 // not a multiple of EvalChunk: exercises the tail block
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xe17))
		suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1] },
			numInputs, ncases, rng)
		p := randProgram(rng, numInputs, 6)
		e := NewEvalState(suite)
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
			// the dead nodes: Commit re-homes the columns by that mask
			// and EndEdit compacts.
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
			// Proposal root values vs from-scratch evaluation of the
			// edited program (cloned: clones never inherit the edit).
			q := p.Clone()
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
			// The committed matrix must describe the current program
			// exactly, whichever branch was taken.
			for c, tc := range suite.Cases {
				p.Eval(tc.Inputs, vals[:])
				for i := range p.Nodes {
					if e.cols[i][c] != vals[i] {
						t.Fatalf("seed %d iter %d node %d case %d: col %#x, eval %#x",
							seed, iter, i, c, e.cols[i][c], vals[i])
					}
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
