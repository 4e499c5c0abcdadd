package prog

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	p := NewZero(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Output([]uint64{5, 6}); got != 0 {
		t.Errorf("zero program returned %d", got)
	}
	if p.BodyLen() != 1 {
		t.Errorf("BodyLen = %d, want 1", p.BodyLen())
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3 (2 inputs + 1 const)", p.Len())
	}
}

func TestNewConst(t *testing.T) {
	p := NewConst(1, 42)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Output([]uint64{7}); got != 42 {
		t.Errorf("const program returned %d, want 42", got)
	}
}

func TestNewInput(t *testing.T) {
	p := NewInput(3, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Output([]uint64{10, 20, 30}); got != 20 {
		t.Errorf("input program returned %d, want 20", got)
	}
}

func TestNewInputPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range input index")
		}
	}()
	NewInput(2, 2)
}

func TestNewBasePanicsTooManyInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for too many inputs")
		}
	}()
	NewZero(MaxInputs + 1)
}

// TestRemap pins compaction's numbering rule: survivors keep their
// order and move down, dead nodes map to -1.
func TestRemap(t *testing.T) {
	var remap [6]int32
	n := Remap(0b010110, remap[:])
	if want := [6]int32{0, -1, -1, 1, -1, 2}; n != 3 || remap != want {
		t.Errorf("Remap = %d, %v; want 3, %v", n, remap, want)
	}
}

// build constructs a program from a textual expression and fails the
// test on error.
func build(t *testing.T, src string, numInputs int) *Program {
	t.Helper()
	p, err := Parse(src, numInputs)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func TestEvalFigure2(t *testing.T) {
	// The paper's Figure 2 example: orq(andq(x, y), andq(notq(x), z)).
	p := build(t, "orq(andq(x, y), andq(notq(x), z))", 3)
	for _, tc := range []struct{ x, y, z, want uint64 }{
		{0, 1, 2, 2},
		{^uint64(0), 5, 9, 5},
		{0xFF00, 0x1234, 0x5678, 0x1278},
	} {
		if got := p.Output([]uint64{tc.x, tc.y, tc.z}); got != tc.want {
			t.Errorf("select(%#x,%#x,%#x) = %#x, want %#x", tc.x, tc.y, tc.z, got, tc.want)
		}
	}
}

func TestEvalSharing(t *testing.T) {
	// a = notq(x); addq(a, a) evaluates the shared node once.
	p := build(t, "a = notq(x); addq(a, a)", 1)
	x := uint64(10)
	want := (^x) + (^x)
	if got := p.Output([]uint64{x}); got != want {
		t.Errorf("got %#x, want %#x", got, want)
	}
	// The shared node must appear only once in the graph.
	if p.BodyLen() != 2 {
		t.Errorf("BodyLen = %d, want 2 (not, add)", p.BodyLen())
	}
}

func TestTopoOrderArgsFirst(t *testing.T) {
	p := build(t, "orq(andq(x, y), andq(notq(x), z))", 3)
	pos := make(map[int32]int)
	for i, n := range p.TopoOrder() {
		pos[n] = i
	}
	for i, nd := range p.Nodes {
		for a := 0; a < nd.Op.Arity(); a++ {
			if pos[nd.Args[a]] >= pos[int32(i)] {
				t.Errorf("node %d's argument %d ordered after it", i, nd.Args[a])
			}
		}
	}
}

func TestTopoOrderPanicsOnCycle(t *testing.T) {
	p := NewZero(1)
	// Manufacture a cycle: two instruction nodes pointing at each
	// other.
	p.Nodes = append(p.Nodes, Node{Op: OpAdd, Args: [MaxArity]int32{3, 0}})
	p.Nodes = append(p.Nodes, Node{Op: OpAdd, Args: [MaxArity]int32{2, 0}})
	p.Root = 2
	p.Invalidate()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cyclic graph")
		}
	}()
	p.TopoOrder()
}

func TestValidateRejectsCycle(t *testing.T) {
	p := NewZero(1)
	p.Nodes = append(p.Nodes, Node{Op: OpAdd, Args: [MaxArity]int32{3, 0}})
	p.Nodes = append(p.Nodes, Node{Op: OpAdd, Args: [MaxArity]int32{2, 0}})
	p.Root = 2
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a cyclic program")
	}
}

func TestValidateRejectsDeadCode(t *testing.T) {
	p := NewZero(1)
	// Unreachable extra const node.
	p.Nodes = append(p.Nodes, Node{Op: OpConst, Val: 7})
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted dead body node")
	}
}

func TestValidateRejectsDuplicateInputNode(t *testing.T) {
	p := NewZero(1)
	p.Nodes = append(p.Nodes, Node{Op: OpInput, Val: 0})
	p.Root = int32(len(p.Nodes) - 1)
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a duplicate input node in the body")
	}
}

func TestValidateRejectsStaleOperandSlots(t *testing.T) {
	// A const node whose unused Args carry a leftover index: this is
	// "dangling wiring" that structural comparison and hashing would
	// otherwise silently observe.
	p := NewConst(1, 7)
	p.Nodes[p.Root].Args[0] = 1
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a const node with a stale operand slot")
	}

	// Same for the unused second slot of a unary instruction.
	q := build(t, "notq(x)", 1)
	for i := range q.Nodes {
		if q.Nodes[i].Op == OpNot {
			q.Nodes[i].Args[1] = 1
		}
	}
	q.Invalidate()
	if err := q.Validate(); err == nil {
		t.Error("Validate accepted a unary node with a stale second operand")
	}
}

func TestValidateRejectsOversizedBody(t *testing.T) {
	p := NewZero(1)
	for i := 0; i < MaxBody; i++ {
		p.Nodes = append(p.Nodes, Node{Op: OpNot, Args: [MaxArity]int32{int32(len(p.Nodes) - 1)}})
	}
	p.Root = int32(len(p.Nodes) - 1)
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a body over the size limit")
	}
}

func TestGCKeepsInputs(t *testing.T) {
	p := build(t, "notq(x)", 2) // input y unused
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (x, y, notq)", p.Len())
	}
	removed := p.GC()
	if removed != 0 {
		t.Errorf("GC removed %d nodes from a clean program", removed)
	}
	if p.NumInputs != 2 || p.Nodes[1].Op != OpInput {
		t.Error("GC dropped a permanent input node")
	}
}

func TestGCRemovesDeadBody(t *testing.T) {
	p := build(t, "addq(x, 1)", 1)
	// Point the root at the input, orphaning the add and const.
	p.Root = 0
	p.Invalidate()
	if removed := p.GC(); removed != 2 {
		t.Errorf("GC removed %d nodes, want 2", removed)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Output([]uint64{9}); got != 9 {
		t.Errorf("after GC got %d, want identity 9", got)
	}
}

func TestReachesFrom(t *testing.T) {
	p := build(t, "addq(notq(x), 1)", 1)
	// Find node indices.
	var addIdx, notIdx, constIdx int32 = -1, -1, -1
	for i, nd := range p.Nodes {
		switch nd.Op {
		case OpAdd:
			addIdx = int32(i)
		case OpNot:
			notIdx = int32(i)
		case OpConst:
			constIdx = int32(i)
		}
	}
	if !p.ReachesFrom(addIdx, notIdx) {
		t.Error("add should reach not")
	}
	if !p.ReachesFrom(notIdx, 0) {
		t.Error("not should reach input x")
	}
	if p.ReachesFrom(notIdx, addIdx) {
		t.Error("not should not reach add")
	}
	if p.ReachesFrom(constIdx, notIdx) {
		t.Error("const should not reach not")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := build(t, "addq(x, 1)", 1)
	q := p.Clone()
	q.Nodes[q.Root].Op = OpSub
	q.Invalidate()
	if p.Output([]uint64{5}) != 6 {
		t.Error("mutating clone affected original")
	}
	if q.Output([]uint64{5}) != 4 {
		t.Error("clone mutation had no effect")
	}
}

func TestEqual(t *testing.T) {
	p := build(t, "addq(x, 1)", 1)
	q := build(t, "addq(x, 1)", 1)
	if !p.Equal(q) {
		t.Error("identical parses compare unequal")
	}
	r := build(t, "addq(x, 2)", 1)
	if p.Equal(r) {
		t.Error("different constants compare equal")
	}
}

// randomValidProgram builds a random valid program for property tests.
func randomValidProgram(rng *rand.Rand, numInputs int) *Program {
	p := NewZero(numInputs)
	n := rng.IntN(MaxBody - 1)
	for i := 0; i < n; i++ {
		op := FullSet.RandomOp(rng)
		nd := Node{Op: op}
		for a := 0; a < op.Arity(); a++ {
			nd.Args[a] = int32(rng.IntN(len(p.Nodes)))
		}
		p.Nodes = append(p.Nodes, nd)
	}
	p.Root = int32(len(p.Nodes) - 1)
	p.Invalidate()
	p.GC()
	return p
}

func TestPropertyRandomProgramsValid(t *testing.T) {
	f := func(seed uint64, nInputsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		numInputs := 1 + int(nInputsRaw)%MaxInputs
		p := randomValidProgram(rng, numInputs)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEvalDeterministic(t *testing.T) {
	f := func(seed uint64, x, y uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		p := randomValidProgram(rng, 2)
		in := []uint64{x, y}
		return p.Output(in) == p.Output(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGCPreservesSemantics(t *testing.T) {
	f := func(seed uint64, x uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		p := randomValidProgram(rng, 1)
		before := p.Output([]uint64{x})
		q := p.Clone()
		q.GC()
		return q.Output([]uint64{x}) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvalOpSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpAdd, 3, 4, 7},
		{OpSub, 3, 4, ^uint64(0)}, // -1
		{OpMul, 1 << 32, 1 << 32, 0},
		{OpDivU, 7, 2, 3},
		{OpDivU, 7, 0, 0}, // trap -> 0
		{OpRemU, 7, 2, 1},
		{OpRemU, 7, 0, 0},
		{OpDivS, ^uint64(0) - 6, 2, ^uint64(0) - 2}, // -7 / 2 = -3
		{OpDivS, 1 << 63, ^uint64(0), 0},            // MinInt64 / -1 -> 0
		{OpRemS, ^uint64(0) - 6, 2, ^uint64(0)},     // -7 % 2 = -1
		{OpRemS, 1 << 63, ^uint64(0), 0},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 65, 2}, // x86 count masking (65 & 63 = 1)
		{OpShr, 8, 2, 2},
		{OpSar, 1 << 63, 1, 3 << 62},
		{OpRol, 1 << 63, 1, 1},
		{OpRor, 1, 1, 1 << 63},
		{OpEq, 5, 5, 1},
		{OpEq, 5, 6, 0},
		{OpUlt, 1, 2, 1},
		{OpUlt, ^uint64(0), 1, 0},
		{OpSlt, ^uint64(0), 1, 1}, // -1 < 1 signed
		{OpNot, 0, 0, ^uint64(0)},
		{OpNeg, 1, 0, ^uint64(0)},
		{OpBswap, 0x0102030405060708, 0, 0x0807060504030201},
		{OpPopcnt, 0xFF, 0, 8},
		{OpClz, 1, 0, 63},
		{OpClz, 0, 0, 64},
		{OpCtz, 8, 0, 3},
		{OpCtz, 0, 0, 64},
		{OpSext8, 0x80, 0, 0xFFFFFFFFFFFFFF80},
		{OpSext16, 0x8000, 0, 0xFFFFFFFFFFFF8000},
		{OpSext32, 0x80000000, 0, 0xFFFFFFFF80000000},
		{OpZext8, 0x1FF, 0, 0xFF},
		{OpZext16, 0x1FFFF, 0, 0xFFFF},
		{OpZext32, 0x1FFFFFFFF, 0, 0xFFFFFFFF},
		{OpAdd32, 0xFFFFFFFF, 1, 0}, // wraps at 32 bits, zero-extends
		{OpSub32, 0, 1, 0xFFFFFFFF},
		{OpMul32, 1 << 31, 2, 0},
		{OpShl32, 1, 33, 2}, // 32-bit count masking
		{OpShr32, 0x80000000, 31, 1},
		{OpSar32, 0x80000000, 31, 0xFFFFFFFF},
		{OpNot32, 0, 0, 0xFFFFFFFF},
		{OpNeg32, 1, 0, 0xFFFFFFFF},
		{OpMAnd, 0b1100, 0b1010, 0b1000},
		{OpMOr, 0b1100, 0b1010, 0b1110},
		{OpMXor, 0b1100, 0b1010, 0b0110},
		{OpMNot, 0, 0, ^uint64(0)},
		{OpMShl, 1 << 63, 0, 0}, // shifts out
		{OpMShr, 1, 0, 0},
	}
	for _, tc := range cases {
		if got := EvalOp(tc.op, tc.a, tc.b); got != tc.want {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPropertyShiftMasking(t *testing.T) {
	// Shl/Shr/Sar must follow x86 masking semantics for all counts.
	f := func(a, b uint64) bool {
		return EvalOp(OpShl, a, b) == a<<(b&63) &&
			EvalOp(OpShr, a, b) == a>>(b&63) &&
			EvalOp(OpSar, a, b) == uint64(int64(a)>>(b&63))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDivNeverTraps(t *testing.T) {
	f := func(a, b uint64) bool {
		// Must not panic for any input, including b == 0 and the
		// MinInt64 / -1 overflow case.
		for _, op := range []Op{OpDivU, OpRemU, OpDivS, OpRemS} {
			EvalOp(op, a, b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Spot-check that the sentinel results are finite (not math.NaN
	// via conversion paths).
	if r := EvalOp(OpDivS, 1<<63, math.MaxUint64); r != 0 {
		t.Errorf("MinInt64 / -1 = %d, want 0", r)
	}
}
