package plan

import (
	"fmt"
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

// kernelSet is one complete kernel table and its fill kernel.
type kernelSetCase struct {
	name  string
	table *[prog.NumOps]Kernels
	fill  kernel
}

// kernelSets returns the scalar kernels and, where this build and CPU
// run them, the vector kernels installed at init.
func kernelSets(t testing.TB) []kernelSetCase {
	sets := []kernelSetCase{{"scalar", &scalar, kFill}}
	if vector != nil {
		sets = append(sets, kernelSetCase{KernelSet(), vector, vectorFill})
	} else {
		t.Logf("no vector kernels on this build or CPU: scalar only")
	}
	return sets
}

// TestKernelsMatchEvalOp pins every kernel of both tables, scalar and
// vector — VV, VI, and IV variants, and the fill kernel — to the
// per-case EvalOp reference for every instruction opcode, called the
// way tapes call them (one bound entry and a range). Ranges start at
// unaligned c0 and run 0 to 33 cases, so every vector kernel's masked
// tail runs at every length; the words before c0 and from c1 on hold
// a sentinel that must survive. Operand columns mix random words with
// boundary values (shift and rotate counts around 31/32/63/64,
// MinInt64 over a -1 divisor) in both column and immediate positions.
func TestKernelsMatchEvalOp(t *testing.T) {
	const maxLen, pad = 33, 8
	const sentinel = 0xdeadbeefdeadbeef
	rng := rand.New(rand.NewPCG(1, 2))
	boundary := []uint64{0, 1, 31, 32, 63, 64, 65, ^uint64(0),
		uint64(1) << 63, ^uint64(0) - 1, 2, 0x80, 0x8000, 0x80000000, 0xffffffff}
	const n = pad + maxLen + pad
	col := func() []uint64 {
		c := make([]uint64, n)
		for i := range c {
			if rng.IntN(2) == 0 {
				c[i] = boundary[rng.IntN(len(boundary))]
			} else {
				c[i] = rng.Uint64() >> (rng.IntN(4) * 16)
			}
		}
		return c
	}
	a, b := col(), col()
	dst := make([]uint64, n)
	// check runs kern on [c0, c0+m) for every length m and the offsets
	// below, and compares each case with want(c) and every other word
	// with the sentinel.
	check := func(set, what string, kern kernel, av, bv []uint64, imm uint64, want func(c int) uint64) {
		t.Helper()
		for _, c0 := range []int{0, 1, 3, 7, pad} {
			for m := 0; m <= maxLen; m++ {
				for c := range dst {
					dst[c] = sentinel
				}
				e := &tapeEntry{kern: kern, dst: dst, a: av, b: bv, imm: imm}
				e.kern(e, c0, c0+m)
				for c := range dst {
					w := uint64(sentinel)
					if c >= c0 && c < c0+m {
						w = want(c)
					}
					if dst[c] != w {
						t.Fatalf("%s %s c0=%d len=%d case %d: kernel %#x, want %#x",
							set, what, c0, m, c, dst[c], w)
					}
				}
			}
		}
	}
	for _, ks := range kernelSets(t) {
		for _, imm := range boundary {
			check(ks.name, fmt.Sprintf("fill imm=%#x", imm), ks.fill, nil, nil, imm,
				func(int) uint64 { return imm })
		}
		for op := prog.OpConst + 1; op < prog.Op(prog.NumOps); op++ {
			row := &ks.table[op]
			if row.VV != nil {
				if op.Arity() == 1 {
					check(ks.name, op.String()+" VV", row.VV, a, nil, 0,
						func(c int) uint64 { return prog.EvalOp(op, a[c], 0) })
				} else {
					check(ks.name, op.String()+" VV", row.VV, a, b, 0,
						func(c int) uint64 { return prog.EvalOp(op, a[c], b[c]) })
				}
			}
			for _, imm := range boundary {
				if row.VI != nil {
					check(ks.name, fmt.Sprintf("%v VI imm=%#x", op, imm), row.VI, a, nil, imm,
						func(c int) uint64 { return prog.EvalOp(op, a[c], imm) })
				}
				if row.IV != nil {
					check(ks.name, fmt.Sprintf("%v IV imm=%#x", op, imm), row.IV, nil, b, imm,
						func(c int) uint64 { return prog.EvalOp(op, imm, b[c]) })
				}
			}
		}
	}
}

// TestKernelTables checks the shape of both tables: every instruction
// opcode has a scalar VV kernel, unary opcodes have no immediate forms,
// and a vector row has exactly its scalar row's forms, except that the
// division and remainder rows (AVX-512 has no integer divide) are zero
// and keep the scalar kernels.
func TestKernelTables(t *testing.T) {
	scalarOnly := map[prog.Op]bool{prog.OpDivU: true, prog.OpRemU: true, prog.OpDivS: true, prog.OpRemS: true}
	for _, ks := range kernelSets(t) {
		for op := prog.Op(0); op < prog.Op(prog.NumOps); op++ {
			row := &ks.table[op]
			if op <= prog.OpConst || ks.table != &scalar && scalarOnly[op] {
				if row.VV != nil || row.VI != nil || row.IV != nil {
					t.Errorf("%s %v: want a zero row", ks.name, op)
				}
				continue
			}
			s := &scalar[op]
			if row.VV == nil || (row.VI == nil) != (s.VI == nil) || (row.IV == nil) != (s.IV == nil) {
				t.Errorf("%s %v: forms VV=%t VI=%t IV=%t, scalar VV=%t VI=%t IV=%t", ks.name, op,
					row.VV != nil, row.VI != nil, row.IV != nil, s.VV != nil, s.VI != nil, s.IV != nil)
			}
			if op.Arity() == 1 && (row.VI != nil || row.IV != nil) {
				t.Errorf("%s %v: unary opcode with immediate kernel variants", ks.name, op)
			}
		}
	}
}

// TestBindingsAndRangesChecked pins the checks that stand in for the
// bounds checks the vector kernels do not make: a tape entry bound to
// a column without one word per case, and a RunTape range outside the
// suite, panic before any kernel runs.
func TestBindingsAndRangesChecked(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewPCG(9, 9))
	e := New(constInputSuite(rng, n, 7))
	e.Reset(randProgram(rng, 2, 4))
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	col, short := make([]uint64, n), make([]uint64, n-1)
	e.checkBinding(&tapeEntry{dst: col, a: col, b: col})
	e.checkBinding(&tapeEntry{dst: col})
	mustPanic("short dst", func() { e.checkBinding(&tapeEntry{dst: short}) })
	mustPanic("short a", func() { e.checkBinding(&tapeEntry{dst: col, a: short}) })
	mustPanic("short b", func() { e.checkBinding(&tapeEntry{dst: col, a: col, b: short}) })
	e.RunTape(0, n)
	e.RunTape(3, 3)
	mustPanic("range past the suite", func() { e.RunTape(0, n+1) })
	mustPanic("negative start", func() { e.RunTape(-1, 4) })
	mustPanic("reversed range", func() { e.RunTape(5, 4) })
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
// test, run in lockstep with the reference engine (prog.RefEval): a
// long random walk of journaled in-place edits — opcode and argument
// rewrites, appends, root moves, and GCs — with both engines consuming
// the same journal. Every proposal's EvalRange output is checked
// against the reference engine and a from-scratch evaluation, the
// committed matrix is compared node for node with the current program
// after every Commit and every Abort+Rollback, and the two engines must
// report identical EvalStats.
func TestPlanIncrementalRandomEdits(t *testing.T) {
	const numInputs = 2
	const ncases = 19 // not a multiple of EvalChunk: exercises the tail block
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xe17))
		suite := testcase.Generate(func(in []uint64) uint64 { return in[0] ^ in[1] },
			numInputs, ncases, rng)
		p := randProgram(rng, numInputs, 6)
		ref := prog.NewRefEval(suite)
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
					t.Fatalf("seed %d iter %d case %d: plan %#x, reference %#x, fresh %#x",
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
						t.Fatalf("seed %d iter %d node %d case %d: plan %#x, reference %#x, eval %#x",
							seed, iter, i, c, cvPlan[i], cvRef[i], vals[i])
					}
				}
			}
		}
		est, rst := e.Stats(), ref.Stats()
		if est != rst {
			t.Fatalf("seed %d: eval stats diverged: plan %+v, reference %+v", seed, est, rst)
		}
		if pst := e.PlanStats(); pst.Patches == 0 || pst.Patches != est.NodesReevaluated {
			t.Fatalf("seed %d: implausible plan stats %+v (eval %+v)", seed, pst, est)
		}
	}
}
