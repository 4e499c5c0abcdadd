package plan

//go:generate go run stochsyn/cmd/genkernels

import (
	mathbits "math/bits"

	"stochsyn/internal/prog"
)

// A kernel computes one node's value column for suite cases [c0, c1)
// from the bound tape entry t: t.dst is the destination column; t.a
// and t.b are the resolved operand columns (b is nil for unary and
// immediate forms, a is nil for immediate-left forms); t.imm carries a
// constant operand folded at compile time. The call passes one pointer
// and the range, and each kernel loads only the fields it reads, into
// locals before its case loop (a store to dst could otherwise alias
// them and force a reload per case). Every kernel body is the
// corresponding evalOp arm applied per case in case order, so a
// compiled tape is bit-identical to the interpreted engine by
// construction (TestKernelsMatchEvalOp pins this for every opcode and
// operand shape). The compare kernels use evalOp's select form
// (v := 0; if cond { v = 1 }), which compiles to a flag set instead of
// a data-dependent branch.
//
// Kernels come in up to three fusion variants per opcode, selected by
// the compiler from the fusion table (scalar below, with the vector
// kernels of kernels_amd64.s installed over it where the CPU runs
// them):
//
//	VV — both operands read from columns (the general form)
//	VI — right operand is a compile-time constant (imm); invariant
//	     work such as shift-count masking and divide-by-zero checks is
//	     hoisted out of the case loop
//	IV — left operand is a compile-time constant; commutative opcodes
//	     have no IV entry because the compiler swaps them into VI form
type kernel func(t *tapeEntry, c0, c1 int)

// Kernels is one fusion-table row: the kernel variants of a single
// opcode. The zero value (pseudo-ops) compiles through dedicated
// fill/copy kernels instead. cmd/repolint check 6 requires every
// prog.Op to appear as an explicit key in each [prog.NumOps]Kernels
// table, scalar and vector, so adding an opcode without deciding its
// kernels is a lint failure, not a latent nil-kernel panic.
type Kernels struct {
	VV kernel
	VI kernel
	IV kernel
}

// commutative marks opcodes for which op(a, b) == op(b, a) for all
// values, letting the compiler serve an immediate left operand with
// the VI kernel (operands swapped) instead of a dedicated IV one.
var commutative = [prog.NumOps]bool{
	prog.OpAdd: true, prog.OpMul: true, prog.OpAnd: true, prog.OpOr: true,
	prog.OpXor: true, prog.OpEq: true,
	prog.OpAdd32: true, prog.OpMul32: true, prog.OpAnd32: true,
	prog.OpOr32: true, prog.OpXor32: true,
	prog.OpMAnd: true, prog.OpMOr: true, prog.OpMXor: true,
}

// kFill broadcasts a compile-time constant: constant nodes, fully
// folded operands, and absint-proven singleton nodes.
func kFill(t *tapeEntry, c0, c1 int) {
	d, imm := t.dst[c0:c1], t.imm
	for c := range d {
		d[c] = imm
	}
}

// kCopy copies from a source column. Defensive only: body nodes are
// never inputs (Validate forbids it), but a program that carries one
// anyway compiles to a copy of the precomputed input column, matching
// the interpreted engine's fallback.
func kCopy(t *tapeEntry, c0, c1 int) {
	copy(t.dst[c0:c1], t.a[c0:c1])
}

// 64-bit binary, VV forms.

func vvAdd(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] + bv[c]
	}
}

func vvSub(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] - bv[c]
	}
}

func vvMul(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] * bv[c]
	}
}

func vvDivU(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		if bv[c] == 0 {
			d[c] = 0
		} else {
			d[c] = av[c] / bv[c]
		}
	}
}

func vvRemU(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		if bv[c] == 0 {
			d[c] = 0
		} else {
			d[c] = av[c] % bv[c]
		}
	}
}

func vvDivS(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		sa, sb := int64(av[c]), int64(bv[c])
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			d[c] = 0
		} else {
			d[c] = uint64(sa / sb)
		}
	}
}

func vvRemS(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		sa, sb := int64(av[c]), int64(bv[c])
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			d[c] = 0
		} else {
			d[c] = uint64(sa % sb)
		}
	}
}

func vvAnd(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] & bv[c]
	}
}

func vvOr(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] | bv[c]
	}
}

func vvXor(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = av[c] ^ bv[c]
	}
}

func vvShl(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	av, bv = av[:len(d)], bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = av[c+0] << (bv[c+0] & 63)
		d[c+1] = av[c+1] << (bv[c+1] & 63)
		d[c+2] = av[c+2] << (bv[c+2] & 63)
		d[c+3] = av[c+3] << (bv[c+3] & 63)
	}
	for ; c < len(d); c++ {
		d[c] = av[c] << (bv[c] & 63)
	}
}

func vvShr(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	av, bv = av[:len(d)], bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = av[c+0] >> (bv[c+0] & 63)
		d[c+1] = av[c+1] >> (bv[c+1] & 63)
		d[c+2] = av[c+2] >> (bv[c+2] & 63)
		d[c+3] = av[c+3] >> (bv[c+3] & 63)
	}
	for ; c < len(d); c++ {
		d[c] = av[c] >> (bv[c] & 63)
	}
}

func vvSar(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	av, bv = av[:len(d)], bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = uint64(int64(av[c+0]) >> (bv[c+0] & 63))
		d[c+1] = uint64(int64(av[c+1]) >> (bv[c+1] & 63))
		d[c+2] = uint64(int64(av[c+2]) >> (bv[c+2] & 63))
		d[c+3] = uint64(int64(av[c+3]) >> (bv[c+3] & 63))
	}
	for ; c < len(d); c++ {
		d[c] = uint64(int64(av[c]) >> (bv[c] & 63))
	}
}

func vvRol(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	av, bv = av[:len(d)], bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = mathbits.RotateLeft64(av[c+0], int(bv[c+0]&63))
		d[c+1] = mathbits.RotateLeft64(av[c+1], int(bv[c+1]&63))
		d[c+2] = mathbits.RotateLeft64(av[c+2], int(bv[c+2]&63))
		d[c+3] = mathbits.RotateLeft64(av[c+3], int(bv[c+3]&63))
	}
	for ; c < len(d); c++ {
		d[c] = mathbits.RotateLeft64(av[c], int(bv[c]&63))
	}
}

func vvRor(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	av, bv = av[:len(d)], bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = mathbits.RotateLeft64(av[c+0], -int(bv[c+0]&63))
		d[c+1] = mathbits.RotateLeft64(av[c+1], -int(bv[c+1]&63))
		d[c+2] = mathbits.RotateLeft64(av[c+2], -int(bv[c+2]&63))
		d[c+3] = mathbits.RotateLeft64(av[c+3], -int(bv[c+3]&63))
	}
	for ; c < len(d); c++ {
		d[c] = mathbits.RotateLeft64(av[c], -int(bv[c]&63))
	}
}

func vvEq(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		v := uint64(0)
		if av[c] == bv[c] {
			v = 1
		}
		d[c] = v
	}
}

func vvUlt(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		v := uint64(0)
		if av[c] < bv[c] {
			v = 1
		}
		d[c] = v
	}
}

func vvSlt(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		v := uint64(0)
		if int64(av[c]) < int64(bv[c]) {
			v = 1
		}
		d[c] = v
	}
}

// 64-bit binary, VI forms (right operand folded to imm).

func viAdd(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] + imm
	}
}

func viSub(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] - imm
	}
}

func viMul(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] * imm
	}
}

func viDivU(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	if imm == 0 {
		for c := range d {
			d[c] = 0
		}
		return
	}
	for c := range d {
		d[c] = av[c] / imm
	}
}

func viRemU(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	if imm == 0 {
		for c := range d {
			d[c] = 0
		}
		return
	}
	for c := range d {
		d[c] = av[c] % imm
	}
}

func viDivS(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	sb := int64(imm)
	switch {
	case sb == 0:
		for c := range d {
			d[c] = 0
		}
	case sb == -1:
		// a / -1 == -a, except MinInt64 / -1 which traps (-> 0).
		for c := range d {
			if sa := int64(av[c]); sa == -1<<63 {
				d[c] = 0
			} else {
				d[c] = uint64(-sa)
			}
		}
	default:
		for c := range d {
			d[c] = uint64(int64(av[c]) / sb)
		}
	}
}

func viRemS(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	sb := int64(imm)
	if sb == 0 || sb == -1 {
		// a % -1 == 0 for every a, including the trapping MinInt64 case
		// (which evalOp also defines as 0).
		for c := range d {
			d[c] = 0
		}
		return
	}
	for c := range d {
		d[c] = uint64(int64(av[c]) % sb)
	}
}

func viAnd(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] & imm
	}
}

func viOr(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] | imm
	}
}

func viXor(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		d[c] = av[c] ^ imm
	}
}

func viShl(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 63
	for c := range d {
		d[c] = av[c] << s
	}
}

func viShr(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 63
	for c := range d {
		d[c] = av[c] >> s
	}
}

func viSar(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 63
	for c := range d {
		d[c] = uint64(int64(av[c]) >> s)
	}
}

func viRol(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := int(imm & 63)
	for c := range d {
		d[c] = mathbits.RotateLeft64(av[c], s)
	}
}

func viRor(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := -int(imm & 63)
	for c := range d {
		d[c] = mathbits.RotateLeft64(av[c], s)
	}
}

func viEq(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		v := uint64(0)
		if av[c] == imm {
			v = 1
		}
		d[c] = v
	}
}

func viUlt(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	for c := range d {
		v := uint64(0)
		if av[c] < imm {
			v = 1
		}
		d[c] = v
	}
}

func viSlt(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	sb := int64(imm)
	for c := range d {
		v := uint64(0)
		if int64(av[c]) < sb {
			v = 1
		}
		d[c] = v
	}
}

// 64-bit binary, IV forms (left operand folded to imm; commutative
// opcodes instead swap into the VI kernel).

func ivSub(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	for c := range d {
		d[c] = imm - bv[c]
	}
}

func ivDivU(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	for c := range d {
		if bv[c] == 0 {
			d[c] = 0
		} else {
			d[c] = imm / bv[c]
		}
	}
}

func ivRemU(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	for c := range d {
		if bv[c] == 0 {
			d[c] = 0
		} else {
			d[c] = imm % bv[c]
		}
	}
}

func ivDivS(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	sa := int64(imm)
	for c := range d {
		sb := int64(bv[c])
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			d[c] = 0
		} else {
			d[c] = uint64(sa / sb)
		}
	}
}

func ivRemS(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	sa := int64(imm)
	for c := range d {
		sb := int64(bv[c])
		if sb == 0 || (sa == -1<<63 && sb == -1) {
			d[c] = 0
		} else {
			d[c] = uint64(sa % sb)
		}
	}
}

func ivShl(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	bv = bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = imm << (bv[c+0] & 63)
		d[c+1] = imm << (bv[c+1] & 63)
		d[c+2] = imm << (bv[c+2] & 63)
		d[c+3] = imm << (bv[c+3] & 63)
	}
	for ; c < len(d); c++ {
		d[c] = imm << (bv[c] & 63)
	}
}

func ivShr(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	bv = bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = imm >> (bv[c+0] & 63)
		d[c+1] = imm >> (bv[c+1] & 63)
		d[c+2] = imm >> (bv[c+2] & 63)
		d[c+3] = imm >> (bv[c+3] & 63)
	}
	for ; c < len(d); c++ {
		d[c] = imm >> (bv[c] & 63)
	}
}

func ivSar(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	bv = bv[:len(d)]
	sa := int64(imm)
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = uint64(sa >> (bv[c+0] & 63))
		d[c+1] = uint64(sa >> (bv[c+1] & 63))
		d[c+2] = uint64(sa >> (bv[c+2] & 63))
		d[c+3] = uint64(sa >> (bv[c+3] & 63))
	}
	for ; c < len(d); c++ {
		d[c] = uint64(sa >> (bv[c] & 63))
	}
}

func ivRol(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	bv = bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = mathbits.RotateLeft64(imm, int(bv[c+0]&63))
		d[c+1] = mathbits.RotateLeft64(imm, int(bv[c+1]&63))
		d[c+2] = mathbits.RotateLeft64(imm, int(bv[c+2]&63))
		d[c+3] = mathbits.RotateLeft64(imm, int(bv[c+3]&63))
	}
	for ; c < len(d); c++ {
		d[c] = mathbits.RotateLeft64(imm, int(bv[c]&63))
	}
}

func ivRor(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	bv = bv[:len(d)]
	c := 0
	for ; c+4 <= len(d); c += 4 {
		d[c+0] = mathbits.RotateLeft64(imm, -int(bv[c+0]&63))
		d[c+1] = mathbits.RotateLeft64(imm, -int(bv[c+1]&63))
		d[c+2] = mathbits.RotateLeft64(imm, -int(bv[c+2]&63))
		d[c+3] = mathbits.RotateLeft64(imm, -int(bv[c+3]&63))
	}
	for ; c < len(d); c++ {
		d[c] = mathbits.RotateLeft64(imm, -int(bv[c]&63))
	}
}

func ivUlt(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	for c := range d {
		v := uint64(0)
		if imm < bv[c] {
			v = 1
		}
		d[c] = v
	}
}

func ivSlt(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	sa := int64(imm)
	for c := range d {
		v := uint64(0)
		if sa < int64(bv[c]) {
			v = 1
		}
		d[c] = v
	}
}

// 64-bit unary.

func vvNot(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = ^av[c]
	}
}

func vvNeg(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = -av[c]
	}
}

func vvBswap(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = mathbits.ReverseBytes64(av[c])
	}
}

func vvPopcnt(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(mathbits.OnesCount64(av[c]))
	}
}

func vvClz(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(mathbits.LeadingZeros64(av[c]))
	}
}

func vvCtz(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(mathbits.TrailingZeros64(av[c]))
	}
}

func vvSext8(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(int64(int8(av[c])))
	}
}

func vvSext16(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(int64(int16(av[c])))
	}
}

func vvSext32(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(int64(int32(av[c])))
	}
}

func vvZext8(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(uint8(av[c]))
	}
}

func vvZext16(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(uint16(av[c]))
	}
}

func vvZext32(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]))
	}
}

// 32-bit binary, VV forms.

func vvAdd32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) + uint32(bv[c]))
	}
}

func vvSub32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) - uint32(bv[c]))
	}
}

func vvMul32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) * uint32(bv[c]))
	}
}

func vvAnd32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) & uint32(bv[c]))
	}
}

func vvOr32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) | uint32(bv[c]))
	}
}

func vvXor32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) ^ uint32(bv[c]))
	}
}

func vvShl32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) << (bv[c] & 31))
	}
}

func vvShr32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(av[c]) >> (bv[c] & 31))
	}
}

func vvSar32(t *tapeEntry, c0, c1 int) {
	d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]
	for c := range d {
		d[c] = uint64(uint32(int32(av[c]) >> (bv[c] & 31)))
	}
}

// 32-bit binary, VI forms.

func viAdd32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) + i32)
	}
}

func viSub32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) - i32)
	}
}

func viMul32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) * i32)
	}
}

func viAnd32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) & i32)
	}
}

func viOr32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) | i32)
	}
}

func viXor32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(uint32(av[c]) ^ i32)
	}
}

func viShl32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 31
	for c := range d {
		d[c] = uint64(uint32(av[c]) << s)
	}
}

func viShr32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 31
	for c := range d {
		d[c] = uint64(uint32(av[c]) >> s)
	}
}

func viSar32(t *tapeEntry, c0, c1 int) {
	d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm
	s := imm & 31
	for c := range d {
		d[c] = uint64(uint32(int32(av[c]) >> s))
	}
}

// 32-bit binary, IV forms.

func ivSub32(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(i32 - uint32(bv[c]))
	}
}

func ivShl32(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(i32 << (bv[c] & 31))
	}
}

func ivShr32(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	i32 := uint32(imm)
	for c := range d {
		d[c] = uint64(i32 >> (bv[c] & 31))
	}
}

func ivSar32(t *tapeEntry, c0, c1 int) {
	d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm
	i32 := int32(imm)
	for c := range d {
		d[c] = uint64(uint32(i32 >> (bv[c] & 31)))
	}
}

// 32-bit unary.

func vvNot32(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(^uint32(av[c]))
	}
}

func vvNeg32(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = uint64(-uint32(av[c]))
	}
}

// Model-dialect shifts (shift by exactly one bit).

func vvMShl(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = av[c] << 1
	}
}

func vvMShr(t *tapeEntry, c0, c1 int) {
	d, av := t.dst[c0:c1], t.a[c0:c1]
	for c := range d {
		d[c] = av[c] >> 1
	}
}

// scalar is the portable kernel table, indexed by opcode: the
// reference every vector kernel is tested against, and the only table
// on CPUs and builds without one. Every prog.Op must appear as an
// explicit key — cmd/repolint check 6 enforces totality exactly as
// check 5 does for the absint transfer tables — so a new opcode cannot
// silently compile to a nil kernel. Pseudo-ops take the zero row: the
// compiler routes them through the dedicated fill/copy kernels before
// consulting the table. The model bitwise ops share kernels with their
// full-set counterparts (their evalOp arms are identical); the model
// shifts are unary.
var scalar = [prog.NumOps]Kernels{
	prog.OpInvalid: {},
	prog.OpInput:   {},
	prog.OpConst:   {},

	prog.OpAdd:  {VV: vvAdd, VI: viAdd},
	prog.OpSub:  {VV: vvSub, VI: viSub, IV: ivSub},
	prog.OpMul:  {VV: vvMul, VI: viMul},
	prog.OpDivU: {VV: vvDivU, VI: viDivU, IV: ivDivU},
	prog.OpRemU: {VV: vvRemU, VI: viRemU, IV: ivRemU},
	prog.OpDivS: {VV: vvDivS, VI: viDivS, IV: ivDivS},
	prog.OpRemS: {VV: vvRemS, VI: viRemS, IV: ivRemS},
	prog.OpAnd:  {VV: vvAnd, VI: viAnd},
	prog.OpOr:   {VV: vvOr, VI: viOr},
	prog.OpXor:  {VV: vvXor, VI: viXor},
	prog.OpShl:  {VV: vvShl, VI: viShl, IV: ivShl},
	prog.OpShr:  {VV: vvShr, VI: viShr, IV: ivShr},
	prog.OpSar:  {VV: vvSar, VI: viSar, IV: ivSar},
	prog.OpRol:  {VV: vvRol, VI: viRol, IV: ivRol},
	prog.OpRor:  {VV: vvRor, VI: viRor, IV: ivRor},
	prog.OpEq:   {VV: vvEq, VI: viEq},
	prog.OpUlt:  {VV: vvUlt, VI: viUlt, IV: ivUlt},
	prog.OpSlt:  {VV: vvSlt, VI: viSlt, IV: ivSlt},

	prog.OpNot:    {VV: vvNot},
	prog.OpNeg:    {VV: vvNeg},
	prog.OpBswap:  {VV: vvBswap},
	prog.OpPopcnt: {VV: vvPopcnt},
	prog.OpClz:    {VV: vvClz},
	prog.OpCtz:    {VV: vvCtz},
	prog.OpSext8:  {VV: vvSext8},
	prog.OpSext16: {VV: vvSext16},
	prog.OpSext32: {VV: vvSext32},
	prog.OpZext8:  {VV: vvZext8},
	prog.OpZext16: {VV: vvZext16},
	prog.OpZext32: {VV: vvZext32},

	prog.OpAdd32: {VV: vvAdd32, VI: viAdd32},
	prog.OpSub32: {VV: vvSub32, VI: viSub32, IV: ivSub32},
	prog.OpMul32: {VV: vvMul32, VI: viMul32},
	prog.OpAnd32: {VV: vvAnd32, VI: viAnd32},
	prog.OpOr32:  {VV: vvOr32, VI: viOr32},
	prog.OpXor32: {VV: vvXor32, VI: viXor32},
	prog.OpShl32: {VV: vvShl32, VI: viShl32, IV: ivShl32},
	prog.OpShr32: {VV: vvShr32, VI: viShr32, IV: ivShr32},
	prog.OpSar32: {VV: vvSar32, VI: viSar32, IV: ivSar32},

	prog.OpNot32: {VV: vvNot32},
	prog.OpNeg32: {VV: vvNeg32},

	prog.OpMAnd: {VV: vvAnd, VI: viAnd},
	prog.OpMOr:  {VV: vvOr, VI: viOr},
	prog.OpMXor: {VV: vvXor, VI: viXor},
	prog.OpMNot: {VV: vvNot},
	prog.OpMShl: {VV: vvMShl},
	prog.OpMShr: {VV: vvMShr},
}

// fusion is the table the compiler reads and fill the kernel it
// broadcasts constants with. Both start as the scalar kernels; at init,
// a build with a vector table installs every vector form its CPU can
// run (useVector, called from vector_amd64.go) before any State exists.
// kernelSet names the result; vector and vectorFill are the installed
// vector table and fill kernel, nil when only the scalar kernels run.
var (
	fusion     = scalar
	fill       = kernel(kFill)
	kernelSet  = "scalar"
	vector     *[prog.NumOps]Kernels
	vectorFill kernel
)

// useVector installs table and vfill over the scalar kernels: a form
// the scalar row has and the vector row provides is replaced, a nil
// form or a zero row keeps the scalar kernel, and no form is added, so
// the compiler picks the same forms on either kernel set.
func useVector(name string, table *[prog.NumOps]Kernels, vfill kernel) {
	for op := range fusion {
		s, v := &fusion[op], &table[op]
		if s.VV != nil && v.VV != nil {
			s.VV = v.VV
		}
		if s.VI != nil && v.VI != nil {
			s.VI = v.VI
		}
		if s.IV != nil && v.IV != nil {
			s.IV = v.IV
		}
	}
	fill = vfill
	kernelSet = name
	vector, vectorFill = table, vfill
}

// KernelSet names the kernels this process's tapes run: "avx512" when
// the AVX-512 kernels were installed at init, "scalar" for the portable
// Go kernels (other CPUs, other GOARCH values, and the purego build
// tag). The choice is made once, from the CPU alone, and never changes
// a value, only how fast the values are computed.
func KernelSet() string { return kernelSet }
