// Package prog defines the program representation used throughout the
// system: rooted, directed, acyclic dataflow graphs whose nodes are
// instructions, 64-bit constants, or inputs (Section 3.1 of the
// paper). The root node is the program's result. The package provides
// the opcode table (both the full x86-flavoured operation set and the
// reduced model set of Section 4), an allocation-free evaluator, the
// structural invariants (acyclicity, no dead code, size limit), a
// canonical textual form, and a parser for that form.
package prog

//go:generate go run stochsyn/cmd/genkernels

import "fmt"

// Op identifies an operation. The zero value is OpInvalid so that
// uninitialized nodes are detectably broken.
type Op uint8

// Pseudo-ops for non-instruction nodes, followed by the real
// instruction opcodes. Binary operations come first, then unary ones;
// arity is recorded in the opcode table rather than implied by order.
const (
	OpInvalid Op = iota

	// Pseudo-ops: the node kinds that are not instructions.
	OpInput // node.Val is the input index
	OpConst // node.Val is the constant value

	// 64-bit binary operations (x86-flavoured, q suffix elided).
	OpAdd  // a + b
	OpSub  // a - b
	OpMul  // a * b (low 64 bits)
	OpDivU // a / b unsigned; 0 when b == 0
	OpRemU // a % b unsigned; 0 when b == 0
	OpDivS // a / b signed; 0 on divide-by-zero or MinInt64 / -1
	OpRemS // a % b signed; 0 on divide-by-zero or MinInt64 % -1
	OpAnd  // a & b
	OpOr   // a | b
	OpXor  // a ^ b
	OpShl  // a << (b & 63), x86 count masking
	OpShr  // a >> (b & 63) logical
	OpSar  // a >> (b & 63) arithmetic
	OpRol  // rotate left by b & 63
	OpRor  // rotate right by b & 63
	OpEq   // 1 if a == b else 0
	OpUlt  // 1 if a < b unsigned else 0
	OpSlt  // 1 if a < b signed else 0

	// 64-bit unary operations.
	OpNot    // ^a
	OpNeg    // -a
	OpBswap  // byte swap
	OpPopcnt // number of set bits
	OpClz    // leading zero count (64 when a == 0)
	OpCtz    // trailing zero count (64 when a == 0)
	OpSext8  // sign-extend low 8 bits
	OpSext16 // sign-extend low 16 bits
	OpSext32 // sign-extend low 32 bits
	OpZext8  // zero-extend low 8 bits
	OpZext16 // zero-extend low 16 bits
	OpZext32 // zero-extend low 32 bits

	// 32-bit binary variants. As with x86 l-suffix instructions, the
	// operation is performed on the low 32 bits and the result is
	// zero-extended to 64 bits.
	OpAdd32
	OpSub32
	OpMul32
	OpAnd32
	OpOr32
	OpXor32
	OpShl32 // count masked to & 31
	OpShr32
	OpSar32

	// 32-bit unary variants.
	OpNot32
	OpNeg32

	// Model operations (the reduced set of Section 4). The bitwise
	// model ops are distinct opcodes from their full-set counterparts
	// so the two dialects stay cleanly separated; the shifts move by
	// exactly one bit, shifting in zero.
	OpMAnd
	OpMOr
	OpMXor
	OpMNot
	OpMShl // a << 1
	OpMShr // a >> 1 (logical)

	numOps // sentinel; must stay last
)

// NumOps is the number of defined opcodes including pseudo-ops.
const NumOps = int(numOps)

// MaxArity is the largest arity of any operation.
const MaxArity = 2

// opInfo describes one opcode. The table of them, opTable, and the
// opcodes' semantics, evalOp, are generated from one row per opcode by
// cmd/genkernels, which also writes the plan compiler's kernels.
type opInfo struct {
	name        string
	arity       int
	commutative bool
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if int(op) >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// Arity returns the number of arguments the opcode takes. Pseudo-ops
// (inputs and constants) have arity 0.
func (op Op) Arity() int {
	if int(op) >= NumOps {
		return 0
	}
	return opTable[op].arity
}

// Commutative reports whether op(a, b) == op(b, a) for all values:
// Canon and the analysis canonicalizer sort the arguments of such
// operations, and the plan compiler serves an immediate left operand
// through the right-immediate kernel with the operands swapped.
func Commutative(op Op) bool {
	return int(op) < NumOps && opTable[op].commutative
}

// EvalOp applies an instruction opcode to its (up to two) argument
// values, as Program.Eval and the plan kernels do. Constant folding
// calls it (the plan compiler's, absint's, the simplifier's and
// eqsat's), and internal/asm's tests check their x86 oracle against it.
func EvalOp(op Op, a, b uint64) uint64 { return evalOp(op, a, b) }

// IsInstruction reports whether op is a real instruction opcode rather
// than a pseudo-op or the invalid sentinel.
func (op Op) IsInstruction() bool {
	return op > OpConst && op < numOps
}

// opByName maps mnemonics to opcodes for the parser. Model op names
// (and, or, ...) and full-set names (andq, orq, ...) are disjoint.
var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(1); op < numOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// OpByName returns the opcode with the given mnemonic, or OpInvalid
// and false if no such opcode exists.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
