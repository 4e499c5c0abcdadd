package plan

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// randInstOp returns a uniformly random instruction opcode.
func randInstOp(rng *rand.Rand) prog.Op {
	return prog.Op(int(prog.OpConst) + 1 + rng.IntN(prog.NumOps-int(prog.OpConst)-1))
}

// randBodyNode returns a random body node for index idx whose
// arguments point at strictly lower indices (index order is a
// topological order by construction). A quarter of the nodes are
// constants, which exercises the compiler's immediate-folding paths.
func randBodyNode(rng *rand.Rand, idx int) prog.Node {
	if rng.IntN(4) == 0 {
		return prog.Node{Op: prog.OpConst, Val: rng.Uint64()}
	}
	nd := prog.Node{Op: randInstOp(rng)}
	nd.Args[0] = int32(rng.IntN(idx))
	nd.Args[1] = int32(rng.IntN(idx))
	return nd
}

// randProgram builds a random acyclic program with the given body
// size, rooted at the last node. Earlier body nodes the root does not
// reach are dead — exactly the shape that exercises the deferral
// path.
func randProgram(rng *rand.Rand, numInputs, body int) *prog.Program {
	p := prog.NewConst(numInputs, rng.Uint64())
	for k := 1; k < body; k++ {
		p.AppendNode(randBodyNode(rng, p.Len()))
	}
	p.SetRoot(int32(p.Len() - 1))
	return p
}

// TestKernelsMatchEvalOp pins every fusion-table kernel — VV, VI, and
// IV variants — to the per-case EvalOp reference for every
// instruction opcode, called the way tapes call them (one bound entry
// and a range), including split ranges not aligned to EvalChunk
// (blocked execution must be seamless) and boundary shift amounts in
// both column and immediate positions.
func TestKernelsMatchEvalOp(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewPCG(1, 2))
	a := make([]uint64, n)
	b := make([]uint64, n)
	for c := 0; c < n; c++ {
		a[c], b[c] = rng.Uint64(), rng.Uint64()
	}
	boundary := []uint64{0, 1, 31, 32, 63, 64, 65, ^uint64(0),
		uint64(1) << 63, ^uint64(0) - 1, 2}
	// Boundary shift/rotate/divisor amounts at the front of both
	// operand columns.
	copy(a, boundary)
	copy(b, boundary)
	a[0] = uint64(1) << 63 // MinInt64 over a -1 divisor in early cases
	dst := make([]uint64, n)
	run := func(k kernel, av, bv []uint64, imm uint64) {
		for c := range dst {
			dst[c] = 0xdeadbeefdeadbeef // poison
		}
		t := &tapeEntry{kern: k, dst: dst, a: av, b: bv, imm: imm}
		t.kern(t, 0, 17)
		t.kern(t, 17, n)
	}
	for op := prog.OpConst + 1; op < prog.Op(prog.NumOps); op++ {
		ks := &fusion[op]
		if ks.VV == nil {
			t.Fatalf("%v: no VV kernel", op)
		}
		if op.Arity() == 1 {
			if ks.VI != nil || ks.IV != nil {
				t.Fatalf("%v: unary opcode with immediate kernel variants", op)
			}
			run(ks.VV, a, nil, 0)
			for c := 0; c < n; c++ {
				if want := prog.EvalOp(op, a[c], 0); dst[c] != want {
					t.Fatalf("%v VV case %d: kernel %#x, EvalOp %#x", op, c, dst[c], want)
				}
			}
			continue
		}
		run(ks.VV, a, b, 0)
		for c := 0; c < n; c++ {
			if want := prog.EvalOp(op, a[c], b[c]); dst[c] != want {
				t.Fatalf("%v VV case %d: kernel %#x, EvalOp %#x", op, c, dst[c], want)
			}
		}
		if ks.VI != nil {
			for _, imm := range boundary {
				run(ks.VI, a, nil, imm)
				for c := 0; c < n; c++ {
					if want := prog.EvalOp(op, a[c], imm); dst[c] != want {
						t.Fatalf("%v VI imm=%#x case %d: kernel %#x, EvalOp %#x",
							op, imm, c, dst[c], want)
					}
				}
			}
		}
		if ks.IV != nil {
			for _, imm := range boundary {
				run(ks.IV, nil, b, imm)
				for c := 0; c < n; c++ {
					if want := prog.EvalOp(op, imm, b[c]); dst[c] != want {
						t.Fatalf("%v IV imm=%#x case %d: kernel %#x, EvalOp %#x",
							op, imm, c, dst[c], want)
					}
				}
			}
		}
	}
}

// TestCommutativeTable verifies the operand-swap fusion premise: every
// opcode the compiler serves immediate-left through the VI kernel
// must actually be commutative under EvalOp, and must be binary.
func TestCommutativeTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for op := prog.Op(0); op < prog.Op(prog.NumOps); op++ {
		if !commutative[op] {
			continue
		}
		if op.Arity() != 2 {
			t.Fatalf("%v: commutative entry on non-binary opcode", op)
		}
		for trial := 0; trial < 256; trial++ {
			a, b := rng.Uint64(), rng.Uint64()
			if prog.EvalOp(op, a, b) != prog.EvalOp(op, b, a) {
				t.Fatalf("%v: not commutative on %#x, %#x", op, a, b)
			}
		}
	}
}

// constInputSuite builds a suite whose input 1 is the same value on
// every case, so absint's input facts pin it exactly and the full
// compiler folds everything downstream of it.
func constInputSuite(rng *rand.Rand, ncases int, fixed uint64) *testcase.Suite {
	s := &testcase.Suite{NumInputs: 2}
	for c := 0; c < ncases; c++ {
		in := []uint64{rng.Uint64(), fixed}
		s.Cases = append(s.Cases, testcase.Case{Inputs: in, Output: in[0] ^ fixed})
	}
	return s
}

// TestResetMatchesEval checks that a full compile-and-run reproduces,
// column for column, the values the per-case evaluator computes —
// over a suite with one constant input, so the absint folding paths
// (whole-node fills and immediate operands) are actually taken.
func TestResetMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0x5eed))
	suite := constInputSuite(rng, 29, 0x1234)
	e := New(suite)
	var vals, cv [prog.MaxNodes]uint64
	for trial := 0; trial < 100; trial++ {
		p := randProgram(rng, 2, 1+rng.IntN(prog.MaxBody))
		e.Reset(p)
		for c, tc := range suite.Cases {
			root := p.Eval(tc.Inputs, vals[:])
			if e.RootColumn()[c] != root {
				t.Fatalf("trial %d case %d: root column %#x, eval %#x",
					trial, c, e.RootColumn()[c], root)
			}
			e.CaseValues(c, cv[:])
			for i := range p.Nodes {
				if cv[i] != vals[i] {
					t.Fatalf("trial %d node %d case %d: CaseValues %#x, eval %#x",
						trial, i, c, cv[i], vals[i])
				}
			}
		}
	}
	st := e.PlanStats()
	if st.Compiles == 0 || st.FusedNodes == 0 {
		t.Fatalf("folding paths not exercised: %+v", st)
	}
}

// TestRecipeCache checks that Reset with a previously seen shape is
// served from the cache and still yields exact columns, and that a
// hash-colliding-but-different shape never reuses a wrong recipe
// (structural verification on hit).
func TestRecipeCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0xcafe))
	suite := constInputSuite(rng, 17, 42)
	e := New(suite)
	progs := make([]*prog.Program, 8)
	for i := range progs {
		progs[i] = randProgram(rng, 2, 1+rng.IntN(prog.MaxBody))
	}
	var vals [prog.MaxNodes]uint64
	base := e.PlanStats()
	for round := 0; round < 3; round++ {
		for _, p := range progs {
			e.Reset(p)
			for c, tc := range suite.Cases {
				if want := p.Eval(tc.Inputs, vals[:]); e.RootColumn()[c] != want {
					t.Fatalf("round %d case %d: root %#x, eval %#x",
						round, c, e.RootColumn()[c], want)
				}
			}
		}
	}
	d := e.PlanStats().Sub(base)
	if d.CacheHits < int64(2*len(progs)) {
		t.Fatalf("cache hits = %d, want >= %d (stats %+v)", d.CacheHits, 2*len(progs), d)
	}
	// A second State on the same suite shares the published recipes.
	e2 := New(suite)
	e2.Reset(progs[0])
	if st := e2.PlanStats(); st.CacheHits != 1 || st.Compiles != 0 {
		t.Fatalf("shared cache not hit from a fresh State: %+v", st)
	}
}

// checkPatchCache asserts that the patch cache Begin and Commit
// maintain incrementally (pops, pargs, popsFused) equals a rebuild from
// the committed program: after a GC that removed nodes, Commit must
// have renumbered every cached lowering exactly.
func checkPatchCache(t *testing.T, e *State) {
	t.Helper()
	ref := *e
	ref.rebuildPops()
	for i := e.p.NumInputs; i < e.p.Len(); i++ {
		got, want := e.pops[i], ref.pops[i]
		if got.argA != want.argA || got.argB != want.argB || got.imm != want.imm ||
			reflect.ValueOf(got.kern).Pointer() != reflect.ValueOf(want.kern).Pointer() ||
			e.pargs[i] != ref.pargs[i] || (e.popsFused^ref.popsFused)&(1<<uint(i)) != 0 {
			t.Fatalf("patch cache slot %d: %+v args %#x, rebuild %+v args %#x\nprogram: %s",
				i, got, e.pargs[i], want, ref.pargs[i], e.p)
		}
	}
}

// TestPlanIncrementalRandomEdits is the plan engine's core property
// test, run in lockstep with the interpreted engine: a long random
// walk of journaled in-place edits — opcode and argument rewrites,
// appends, root moves, and GCs — with both engines
// consuming the same journal. Every proposal's EvalRange output is
// checked against the interpreted engine and a from-scratch
// evaluation, and the committed matrices are compared node for node
// after every Commit and every Abort+Rollback.
func TestPlanIncrementalRandomEdits(t *testing.T) {
	const numInputs = 2
	const ncases = 19 // not a multiple of EvalChunk: exercises the tail block
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xe17))
		suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1] },
			numInputs, ncases, rng)
		p := randProgram(rng, numInputs, 6)
		ref := prog.NewEvalState(suite)
		ref.Reset(p)
		e := New(suite)
		e.Reset(p)
		var j prog.Journal
		got := make([]uint64, ncases)
		want := make([]uint64, ncases)
		var vals, cvPlan, cvRef [prog.MaxNodes]uint64
		for iter := 0; iter < 300; iter++ {
			p.BeginEdit(&j)
			for w, nwrites := 0, 1+rng.IntN(3); w < nwrites; w++ {
				switch k := rng.IntN(3); {
				case k == 0 && p.BodyLen() > 0:
					// Arity-preserving opcode swap, like the real opcode
					// move.
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					if op, ok := prog.FullSet.RandomOpArity(rng, p.Nodes[i].Op.Arity()); ok {
						p.SetOp(i, op)
					}
				case k == 1 && p.BodyLen() > 0:
					i := int32(numInputs + rng.IntN(p.BodyLen()))
					p.SetArg(i, rng.IntN(prog.MaxArity), int32(rng.IntN(int(i))))
				case p.Len() < prog.MaxNodes:
					p.AppendNode(randBodyNode(rng, p.Len()))
				}
			}
			// Occasionally move the root and collect (writes first,
			// collect last — the journaling discipline). GC only marks
			// the dead nodes: Commit re-homes the columns and the patch
			// cache by that mask and EndEdit compacts.
			if rng.IntN(4) == 0 {
				p.SetRoot(int32(rng.IntN(p.Len())))
				if n := p.Len(); p.GC() > 0 && p.Len() != n {
					t.Fatalf("seed %d iter %d: GC renumbered the program mid-edit", seed, iter)
				}
			}
			ref.Begin(&j)
			e.Begin(&j)
			for c0 := 0; c0 < ncases; c0 += prog.EvalChunk {
				c1 := c0 + prog.EvalChunk
				if c1 > ncases {
					c1 = ncases
				}
				copy(got[c0:c1], e.EvalRange(c0, c1))
				copy(want[c0:c1], ref.EvalRange(c0, c1))
			}
			q := p.Clone()
			for c, tc := range suite.Cases {
				fresh := q.Eval(tc.Inputs, vals[:])
				if got[c] != fresh || got[c] != want[c] {
					t.Fatalf("seed %d iter %d case %d: plan %#x, engine %#x, fresh %#x",
						seed, iter, c, got[c], want[c], fresh)
				}
			}
			if rng.IntN(2) == 0 {
				ref.Commit()
				e.Commit()
				p.EndEdit()
			} else {
				ref.Abort()
				e.Abort()
				p.Rollback()
			}
			checkPatchCache(t, e)
			// Both committed matrices must describe the current program
			// exactly, whichever branch was taken.
			for c, tc := range suite.Cases {
				p.Eval(tc.Inputs, vals[:])
				e.CaseValues(c, cvPlan[:])
				ref.CaseValues(c, cvRef[:])
				for i := range p.Nodes {
					if cvPlan[i] != vals[i] || cvPlan[i] != cvRef[i] {
						t.Fatalf("seed %d iter %d node %d case %d: plan %#x, engine %#x, eval %#x",
							seed, iter, i, c, cvPlan[i], cvRef[i], vals[i])
					}
				}
			}
		}
		est, rst := e.Stats(), ref.Stats()
		if est != rst {
			t.Fatalf("seed %d: eval stats diverged: plan %+v, engine %+v", seed, est, rst)
		}
		if pst := e.PlanStats(); pst.Patches == 0 || pst.Patches != est.NodesReevaluated {
			t.Fatalf("seed %d: implausible plan stats %+v (eval %+v)", seed, pst, est)
		}
	}
}
