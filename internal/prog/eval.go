package prog

import mathbits "math/bits"

// evalOp applies an instruction opcode to its (up to two) argument
// values. Unary operations ignore b. Per the paper, operations that
// would trap at runtime (division or modulus with undefined results)
// produce zero instead.
func evalOp(op Op, a, b uint64) uint64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDivU:
		if b == 0 {
			return 0
		}
		return a / b
	case OpRemU:
		if b == 0 {
			return 0
		}
		return a % b
	case OpDivS:
		sb := int64(b)
		sa := int64(a)
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			return 0
		}
		return uint64(sa / sb)
	case OpRemS:
		sb := int64(b)
		sa := int64(a)
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			return 0
		}
		return uint64(sa % sb)
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (b & 63)
	case OpShr:
		return a >> (b & 63)
	case OpSar:
		return uint64(int64(a) >> (b & 63))
	case OpRol:
		return mathbits.RotateLeft64(a, int(b&63))
	case OpRor:
		return mathbits.RotateLeft64(a, -int(b&63))
	case OpEq:
		v := uint64(0)
		if a == b {
			v = 1
		}
		return v
	case OpUlt:
		v := uint64(0)
		if a < b {
			v = 1
		}
		return v
	case OpSlt:
		v := uint64(0)
		if int64(a) < int64(b) {
			v = 1
		}
		return v

	case OpNot:
		return ^a
	case OpNeg:
		return -a
	case OpBswap:
		return mathbits.ReverseBytes64(a)
	case OpPopcnt:
		return uint64(mathbits.OnesCount64(a))
	case OpClz:
		return uint64(mathbits.LeadingZeros64(a))
	case OpCtz:
		return uint64(mathbits.TrailingZeros64(a))
	case OpSext8:
		return uint64(int64(int8(a)))
	case OpSext16:
		return uint64(int64(int16(a)))
	case OpSext32:
		return uint64(int64(int32(a)))
	case OpZext8:
		return uint64(uint8(a))
	case OpZext16:
		return uint64(uint16(a))
	case OpZext32:
		return uint64(uint32(a))

	case OpAdd32:
		return uint64(uint32(a) + uint32(b))
	case OpSub32:
		return uint64(uint32(a) - uint32(b))
	case OpMul32:
		return uint64(uint32(a) * uint32(b))
	case OpAnd32:
		return uint64(uint32(a) & uint32(b))
	case OpOr32:
		return uint64(uint32(a) | uint32(b))
	case OpXor32:
		return uint64(uint32(a) ^ uint32(b))
	case OpShl32:
		return uint64(uint32(a) << (b & 31))
	case OpShr32:
		return uint64(uint32(a) >> (b & 31))
	case OpSar32:
		return uint64(uint32(int32(a) >> (b & 31)))

	case OpNot32:
		return uint64(^uint32(a))
	case OpNeg32:
		return uint64(-uint32(a))

	case OpMAnd:
		return a & b
	case OpMOr:
		return a | b
	case OpMXor:
		return a ^ b
	case OpMNot:
		return ^a
	case OpMShl:
		return a << 1
	case OpMShr:
		return a >> 1
	}
	return 0
}

// EvalOp exposes single-operation evaluation, primarily for tests and
// for the assembly-to-dataflow translator.
func EvalOp(op Op, a, b uint64) uint64 { return evalOp(op, a, b) }

// EvalInto is the sanctioned non-engine evaluation door for the
// legacy (copy-based) reference path: it evaluates p on one input
// vector, filling every node's value into vals, exactly like
// Program.Eval — both routes share the bounds-checked evalChecked
// body, so the fallback seam validates its buffers the same way the
// primary path does. Direct Program.Eval calls are confined to
// internal/prog, internal/cost, and internal/prog/analysis by
// cmd/repolint so that hot paths flow through the evaluation engine
// or the cost layer; EvalInto exists for internal/mutate's
// differential-testing fallback and is likewise linted against use
// anywhere else.
func EvalInto(p *Program, inputs, vals []uint64) uint64 { return p.evalChecked(inputs, vals) }
