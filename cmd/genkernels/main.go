// Command genkernels writes, from one row per opcode, every file that
// says what an opcode computes:
//
//   - internal/prog/ops_gen.go: opTable (each opcode's mnemonic, arity
//     and commutativity) and evalOp, the value of an instruction on
//     one pair of operands;
//   - internal/prog/plan/kernels_gen.go: the plan compiler's scalar
//     column kernels and their fusion table, scalar;
//   - internal/prog/plan/kernels_amd64.s and kernels_amd64.go: the
//     kernels' AVX-512 twins, one TEXT block per kernel, their Go
//     declarations and the avx512 fusion table.
//
// Each opcode is one row of the ops table below: its mnemonic, arity
// and commutativity, its semantics as Go, and its vector body. The
// arity and commutativity decide the operand forms the row's kernels
// serve: VV for a unary row; VV and VI for a commutative binary row,
// whose immediate left operand the compiler swaps into VI; VV, VI and
// IV for any other binary row. evalOp's arm and every Go kernel are
// the same Go text with the operands bound differently, so the scalar
// kernels agree with evalOp by construction, and the vector kernels
// are tested against it.
//
// A row's Go body is Go over {a} and {b}: either an expression for
// the value, or statements that end each path by assigning the value
// with "{d} = ". In evalOp "{d} = " becomes "return "; in a kernel
// {d} is the case's destination word. Statements are separated by ";"
// and may declare locals other than a, b, c, d, t, av, bv and imm.
//
// Each operand shape's loop (fill, VV, VI, IV) is written once per
// kernel set. A vector kernel runs 8 cases per iteration, then one
// masked iteration for the last 0-7 cases of any [c0, c1); a Go kernel
// runs one case per iteration, or four where the row sets unroll. VI
// binds the body's right operand to the immediate and IV its left, so
// an opcode's forms share one body. A row may also name the work that
// reads only its right operand (perB) or only its left (perA), in Go
// and in its vector body alike: VI runs perB once per call, before the
// loop, and IV runs perA there; every other form, and evalOp, runs them
// ahead of the body.
//
// Vector bodies use these placeholders:
//
//	{a} {b}  left and right operand, 8 cases of each
//	{d}      the result, stored to the destination column
//	{t} {u} {s0}..{s7}
//	         vector scratch registers
//	{k} {k3}..{k6}
//	         opmask scratch registers
//	{m63} {m31} {lo32} {lo16} {lo8} {one} {ones} {zero} {fone} {min}
//	         broadcast constants: 63, 31, 0xffffffff, 0xffff, 0xff, 1,
//	         all ones, zero, the float64 1.0 and MinInt64
//	{bswap}  the VPSHUFB control that reverses the bytes of each word
//
// The kernel loads a constant only when its row names it.
//
// The generator refuses a row list that misses a prog.Op constant of
// internal/prog/opcode.go or names one twice, a row with no Go body and
// no earlier row of its name to reuse, a row whose reuse would change
// the forms, and an operand-only part that reads the other operand.
//
// Usage, from internal/prog (go generate ./internal/prog/...):
//
//	go run stochsyn/cmd/genkernels [-dir .]
//
// TestGeneratedFilesUpToDate fails when a committed file differs from
// what this writes.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// An op is one row of the table: everything the generated files say
// about one opcode.
type op struct {
	op    string // the prog.Op constant
	mnem  string // the mnemonic that Op.String prints and the parser reads
	arity int    // 0 for a pseudo-op, which has no evalOp arm and no kernels
	comm  bool   // op(a, b) == op(b, a) for every a and b
	// name is the kernel name suffix: by default the constant's, less
	// "Op". A row that takes the name of an earlier row has no bodies
	// of its own and reuses that row's semantics and kernels.
	name string
	// goBody, goPerA and goPerB are the Go semantics (see the package
	// doc); goPerA and goPerB read only {a} or only {b}.
	goBody, goPerA, goPerB string
	// unroll makes the Go kernels whose {b} is a column (VV and IV) run
	// 4 cases per loop iteration.
	unroll bool
	// body is the vector body, instructions separated by ";". perA and
	// perB are instructions that read only {a} or only {b} (and
	// constants), hoisted out of the IV or VI loop; the registers they
	// write must survive the body.
	body, perA, perB string
}

// ops lists every prog.Op in opcode order. Each vector body is the
// Go body applied per lane: shift counts masked to 63 (31 for the
// 32-bit ops), rotate counts taken mod 64 by VPROLVQ/VPRORVQ
// themselves, compares producing 0 or 1, 32-bit results zero-extended,
// and clz(0) = ctz(0) = 64 (VPLZCNTQ's and popcount(^x & (x-1))'s
// values at zero). The compares' Go bodies use the select form
// (v := 0; if cond { v = 1 }), which compiles to a flag set instead of
// a data-dependent branch. Only the variable shifts and rotates unroll:
// it measured faster for them and slower for the one-instruction
// bodies (DESIGN.md §15.1).
var ops = []op{
	// The pseudo-ops: the compiler broadcasts a constant with its fill
	// kernel and copies an input column with its copy kernel.
	{op: "OpInvalid", mnem: "invalid"},
	{op: "OpInput", mnem: "input"},
	{op: "OpConst", mnem: "const"},

	{op: "OpAdd", mnem: "addq", arity: 2, comm: true, goBody: "{a} + {b}", body: "VPADDQ {b}, {a}, {d}"},
	{op: "OpSub", mnem: "subq", arity: 2, goBody: "{a} - {b}", body: "VPSUBQ {b}, {a}, {d}"},
	// lo(a)·lo(b) + (lo(a)·hi(b) + hi(a)·lo(b))·2^32 mod 2^64, from
	// VPMULUDQ's 32×32→64 products: VPMULLQ computes the same low word
	// but measured about 4× slower per case.
	{op: "OpMul", mnem: "mulq", arity: 2, comm: true, goBody: "{a} * {b}",
		body: "VPMULUDQ {b}, {a}, {d}; VPSRLQ $32, {a}, {t}; VPMULUDQ {b}, {t}, {t}; " +
			"VPSRLQ $32, {b}, {u}; VPMULUDQ {u}, {a}, {u}; VPADDQ {u}, {t}, {t}; VPSLLQ $32, {t}, {t}; VPADDQ {t}, {d}, {d}"},
	divide("OpDivU", "divq", false, false),
	divide("OpRemU", "remq", false, true),
	divide("OpDivS", "idivq", true, false),
	divide("OpRemS", "iremq", true, true),
	{op: "OpAnd", mnem: "andq", arity: 2, comm: true, goBody: "{a} & {b}", body: "VPANDQ {b}, {a}, {d}"},
	{op: "OpOr", mnem: "orq", arity: 2, comm: true, goBody: "{a} | {b}", body: "VPORQ {b}, {a}, {d}"},
	{op: "OpXor", mnem: "xorq", arity: 2, comm: true, goBody: "{a} ^ {b}", body: "VPXORQ {b}, {a}, {d}"},
	{op: "OpShl", mnem: "shlq", arity: 2, unroll: true, goPerB: "s := {b} & 63", goBody: "{a} << s",
		body: "VPANDQ {m63}, {b}, {t}; VPSLLVQ {t}, {a}, {d}"},
	{op: "OpShr", mnem: "shrq", arity: 2, unroll: true, goPerB: "s := {b} & 63", goBody: "{a} >> s",
		body: "VPANDQ {m63}, {b}, {t}; VPSRLVQ {t}, {a}, {d}"},
	{op: "OpSar", mnem: "sarq", arity: 2, unroll: true, goPerB: "s := {b} & 63", goBody: "uint64(int64({a}) >> s)",
		body: "VPANDQ {m63}, {b}, {t}; VPSRAVQ {t}, {a}, {d}"},
	{op: "OpRol", mnem: "rolq", arity: 2, unroll: true, goPerB: "s := int({b} & 63)", goBody: "mathbits.RotateLeft64({a}, s)",
		body: "VPROLVQ {b}, {a}, {d}"},
	{op: "OpRor", mnem: "rorq", arity: 2, unroll: true, goPerB: "s := -int({b} & 63)", goBody: "mathbits.RotateLeft64({a}, s)",
		body: "VPRORVQ {b}, {a}, {d}"},
	{op: "OpEq", mnem: "eqq", arity: 2, comm: true, goBody: "v := uint64(0); if {a} == {b} { v = 1 }; {d} = v",
		body: "VPCMPUQ $0, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},
	{op: "OpUlt", mnem: "ultq", arity: 2, goBody: "v := uint64(0); if {a} < {b} { v = 1 }; {d} = v",
		body: "VPCMPUQ $1, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},
	{op: "OpSlt", mnem: "sltq", arity: 2, goBody: "v := uint64(0); if int64({a}) < int64({b}) { v = 1 }; {d} = v",
		body: "VPCMPQ $1, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},

	{op: "OpNot", mnem: "notq", arity: 1, goBody: "^{a}", body: "VPXORQ {ones}, {a}, {d}"},
	{op: "OpNeg", mnem: "negq", arity: 1, goBody: "-{a}", body: "VPSUBQ {a}, {zero}, {d}"},
	{op: "OpBswap", mnem: "bswapq", arity: 1, goBody: "mathbits.ReverseBytes64({a})", body: "VPSHUFB {bswap}, {a}, {d}"},
	{op: "OpPopcnt", mnem: "popcntq", arity: 1, goBody: "uint64(mathbits.OnesCount64({a}))", body: "VPOPCNTQ {a}, {d}"},
	{op: "OpClz", mnem: "lzcntq", arity: 1, goBody: "uint64(mathbits.LeadingZeros64({a}))", body: "VPLZCNTQ {a}, {d}"},
	{op: "OpCtz", mnem: "tzcntq", arity: 1, goBody: "uint64(mathbits.TrailingZeros64({a}))",
		body: "VPADDQ {ones}, {a}, {t}; VPANDNQ {t}, {a}, {t}; VPOPCNTQ {t}, {d}"},
	{op: "OpSext8", mnem: "sextbq", arity: 1, goBody: "uint64(int64(int8({a})))", body: "VPSLLQ $56, {a}, {t}; VPSRAQ $56, {t}, {d}"},
	{op: "OpSext16", mnem: "sextwq", arity: 1, goBody: "uint64(int64(int16({a})))", body: "VPSLLQ $48, {a}, {t}; VPSRAQ $48, {t}, {d}"},
	{op: "OpSext32", mnem: "sextlq", arity: 1, goBody: "uint64(int64(int32({a})))", body: "VPSLLQ $32, {a}, {t}; VPSRAQ $32, {t}, {d}"},
	{op: "OpZext8", mnem: "zextbq", arity: 1, goBody: "uint64(uint8({a}))", body: "VPANDQ {lo8}, {a}, {d}"},
	{op: "OpZext16", mnem: "zextwq", arity: 1, goBody: "uint64(uint16({a}))", body: "VPANDQ {lo16}, {a}, {d}"},
	{op: "OpZext32", mnem: "zextlq", arity: 1, goBody: "uint64(uint32({a}))", body: "VPANDQ {lo32}, {a}, {d}"},

	// The 32-bit ops work on the low 32 bits and zero-extend the result.
	{op: "OpAdd32", mnem: "addl", arity: 2, comm: true, goBody: "uint64(uint32({a}) + uint32({b}))",
		body: "VPADDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpSub32", mnem: "subl", arity: 2, goBody: "uint64(uint32({a}) - uint32({b}))",
		body: "VPSUBQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpMul32", mnem: "mull", arity: 2, comm: true, goBody: "uint64(uint32({a}) * uint32({b}))",
		body: "VPMULUDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpAnd32", mnem: "andl", arity: 2, comm: true, goBody: "uint64(uint32({a}) & uint32({b}))",
		body: "VPANDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpOr32", mnem: "orl", arity: 2, comm: true, goBody: "uint64(uint32({a}) | uint32({b}))",
		body: "VPORQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpXor32", mnem: "xorl", arity: 2, comm: true, goBody: "uint64(uint32({a}) ^ uint32({b}))",
		body: "VPXORQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	// The vector 32-bit shifts run on dword lanes: the low dword of each
	// word is the result, and the high dword, shifted by the count's zero
	// high dword, is masked off.
	{op: "OpShl32", mnem: "shll", arity: 2, goPerB: "s := {b} & 31", goBody: "uint64(uint32({a}) << s)",
		body: "VPANDQ {m31}, {b}, {t}; VPSLLVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpShr32", mnem: "shrl", arity: 2, goPerB: "s := {b} & 31", goBody: "uint64(uint32({a}) >> s)",
		body: "VPANDQ {m31}, {b}, {t}; VPSRLVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpSar32", mnem: "sarl", arity: 2, goPerB: "s := {b} & 31", goBody: "uint64(uint32(int32({a}) >> s))",
		body: "VPANDQ {m31}, {b}, {t}; VPSRAVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},

	{op: "OpNot32", mnem: "notl", arity: 1, goBody: "uint64(^uint32({a}))", body: "VPANDNQ {lo32}, {a}, {d}"},
	{op: "OpNeg32", mnem: "negl", arity: 1, goBody: "uint64(-uint32({a}))", body: "VPSUBQ {a}, {zero}, {d}; VPANDQ {lo32}, {d}, {d}"},

	// The model dialect's bitwise ops compute what the full set's do;
	// its shifts move by exactly one bit, shifting in zero.
	{op: "OpMAnd", mnem: "and", arity: 2, comm: true, name: "And"},
	{op: "OpMOr", mnem: "or", arity: 2, comm: true, name: "Or"},
	{op: "OpMXor", mnem: "xor", arity: 2, comm: true, name: "Xor"},
	{op: "OpMNot", mnem: "not", arity: 1, name: "Not"},
	{op: "OpMShl", mnem: "shl", arity: 1, goBody: "{a} << 1", body: "VPSLLQ $1, {a}, {d}"},
	{op: "OpMShr", mnem: "shr", arity: 1, goBody: "{a} >> 1", body: "VPSRLQ $1, {a}, {d}"},
}

// The divide fragment computes the quotient and remainder of the
// magnitudes {am} / {bm}, 8 lanes of 64-bit words, from float64
// arithmetic with directed rounding (DESIGN.md §15.1 proves it exact):
//
//	rb = rz(1 / ru(bm))
//	q0 = trunc(rz(rd(am) · rb)) ≤ am/bm, so r = am − q0·bm < (2^14+1)·bm
//	q1 = trunc(rz(rd(r) · rb)) is ⌊r/bm⌋ or one less, so r − q1·bm < 2·bm
//	where r − q1·bm ≥ bm ({k}), the quotient is q0 + q1 + 1
//
// The 64-bit products are VPMULUDQ's 32×32→64 products, as in the Mul
// row; q1 < 2^15, so q1·bm needs two. divB reads only the divisor and
// divA only the dividend, so VI computes rb, and IV rd(am), once per
// call. Lanes with a zero divisor, and the zero-filled lanes of a
// masked tail, compute ±inf or NaN in between (Go runs with the
// floating-point exceptions masked); the final {nz} mask zeroes them.
const (
	divB    = "VCVTUQQ2PD.RU_SAE {bm}, {rb}; VDIVPD.RZ_SAE {rb}, {fone}, {rb}; VPSRLQ $32, {bm}, {hb}; VPTESTMQ {b}, {b}, {nz}"
	divA    = "VCVTUQQ2PD.RD_SAE {am}, {fa}"
	divCore = "VMULPD.RZ_SAE {rb}, {fa}, {q0}; VCVTTPD2UQQ {q0}, {q0}; " +
		"VPMULUDQ {bm}, {q0}, {t}; VPSRLQ $32, {q0}, {u}; VPMULUDQ {bm}, {u}, {u}; VPMULUDQ {hb}, {q0}, {r}; " +
		"VPADDQ {r}, {u}, {u}; VPSLLQ $32, {u}, {u}; VPADDQ {u}, {t}, {t}; VPSUBQ {t}, {am}, {r}; " +
		"VCVTUQQ2PD.RD_SAE {r}, {q1}; VMULPD.RZ_SAE {rb}, {q1}, {q1}; VCVTTPD2UQQ {q1}, {q1}; " +
		"VPMULUDQ {bm}, {q1}, {t}; VPMULUDQ {hb}, {q1}, {u}; VPSLLQ $32, {u}, {u}; VPADDQ {u}, {t}, {t}; VPSUBQ {t}, {r}, {r}; " +
		"VPCMPUQ $5, {bm}, {r}, {k}; "
	divQuot = "VPADDQ {q1}, {q0}, {q0}; VPADDQ {one}, {q0}, {k}, {q0}; "
	divRem  = "VPSUBQ {bm}, {r}, {k}, {r}; "
)

// divide returns the row of a division or remainder opcode: the
// quotient or remainder, 0 where the divisor is 0, and for DivS 0 for
// MinInt64 / −1, as x86 would trap there. The vector body divides the
// magnitudes when signed (VPABSQ maps MinInt64 to 2^63, its unsigned
// magnitude), then negates the quotient where the operands' signs
// differ ({k}, from a ^ b) and the remainder where a < 0 ({neg}).
// MinInt64 % −1 needs no special lane: 2^63 mod 1 = 0.
func divide(opName, mnem string, signed, rem bool) op {
	o := op{op: opName, mnem: mnem, arity: 2}
	div := " / "
	if rem {
		div = " % "
	}
	if signed {
		o.goPerA, o.goPerB = "sa := int64({a})", "sb := int64({b})"
		o.goBody = "if sb == 0 || (sa == -1<<63 && sb == -1) { {d} = 0 } else { {d} = uint64(sa" + div + "sb) }"
	} else {
		o.goBody = "if {b} == 0 { {d} = 0 } else { {d} = {a}" + div + "{b} }"
	}
	perA, perB, body := divA, divB, divCore
	am, bm := "{a}", "{b}"
	if signed {
		am, bm = "{s0}", "{s1}"
		perA, perB = "VPABSQ {a}, {am}; "+perA, "VPABSQ {b}, {bm}; "+perB
	}
	switch {
	case !signed && !rem:
		body += divQuot + "VMOVDQA64.Z {q0}, {nz}, {d}"
	case !signed && rem:
		body += divRem + "VMOVDQA64.Z {r}, {nz}, {d}"
	case !rem:
		perB += "; VPCMPQ $0, {ones}, {b}, {bm1}"
		body += divQuot + "VPXORQ {b}, {a}, {t}; VPMOVQ2M {t}, {k}; VPSUBQ {q0}, {zero}, {k}, {q0}; " +
			"VPCMPQ $0, {min}, {a}, {bm1}, {ovf}; KANDNW {nz}, {ovf}, {ovf}; VMOVDQA64.Z {q0}, {ovf}, {d}"
	default:
		perA += "; VPMOVQ2M {a}, {neg}"
		body += divRem + "VPSUBQ {r}, {zero}, {neg}, {r}; VMOVDQA64.Z {r}, {nz}, {d}"
	}
	// The fragment's names for its registers: b ≠ 0, b = −1, a < 0 and
	// MinInt64 / −1 are opmasks.
	rep := strings.NewReplacer("{am}", am, "{bm}", bm, "{rb}", "{s2}", "{hb}", "{s3}", "{fa}", "{s4}",
		"{q0}", "{s5}", "{r}", "{s6}", "{q1}", "{s7}", "{nz}", "{k3}", "{bm1}", "{k4}", "{neg}", "{k5}", "{ovf}", "{k6}")
	o.perA, o.perB, o.body = rep.Replace(perA), rep.Replace(perB), rep.Replace(body)
	return o
}

// consts are the constants a vector body may name, with the register
// each is loaded into. A broadcast constant is built from a general
// register; {bswap} is a 64-byte table (bswapIdx, emitted once).
var consts = []struct {
	name, reg, val string
}{
	{"{m63}", "Z16", "$63"},
	{"{m31}", "Z17", "$31"},
	{"{lo32}", "Z18", "$0xffffffff"},
	{"{lo16}", "Z19", "$0xffff"},
	{"{lo8}", "Z20", "$0xff"},
	{"{one}", "Z21", "$1"},
	{"{ones}", "Z22", "$-1"},
	{"{zero}", "Z23", "$0"},
	{"{bswap}", "Z24", ""},
	{"{fone}", "Z25", "$0x3ff0000000000000"},
	{"{min}", "Z26", "$0x8000000000000000"},
}

// Fixed registers of every vector kernel: DI the tape entry, AX the
// case index from 0, CX the case count, R9 the count less 8, R8/SI/BX
// the dst/a/b columns advanced to c0, DX scratch, Z31 the broadcast
// immediate, K1 the tail mask.
const (
	regA, regB, regD, regImm = "Z0", "Z1", "Z2", "Z31"
)

// scratch maps the scratch placeholders to their registers.
var scratch = []string{
	"{t}", "Z3", "{u}", "Z4", "{s0}", "Z5", "{s1}", "Z6", "{s2}", "Z7", "{s3}", "Z8", "{s4}", "Z9", "{s5}", "Z10", "{s6}", "Z11", "{s7}", "Z12",
	"{k}", "K2", "{k3}", "K3", "{k4}", "K4", "{k5}", "K5", "{k6}", "K6",
}

// forms returns the operand forms an instruction row's kernels serve.
func forms(o op) []string {
	switch {
	case o.arity == 1:
		return []string{"VV"}
	case o.comm:
		return []string{"VV", "VI"}
	}
	return []string{"VV", "VI", "IV"}
}

// instructions splits a vector body into its instructions.
func instructions(body string) []string {
	var lines []string
	for _, s := range strings.Split(body, ";") {
		if s = strings.TrimSpace(s); s != "" {
			lines = append(lines, s)
		}
	}
	return lines
}

// dst is the register an instruction writes: its last operand.
func dst(ins string) string {
	f := strings.Split(ins, ",")
	return strings.TrimSpace(f[len(f)-1])
}

// checkHoist reports a row whose perA or perB, Go or vector, could not
// run once per call: one that reads the other operand, or whose vector
// result the rest of the row overwrites.
func checkHoist(o op) error {
	for _, h := range []struct{ part, other string }{
		{o.goPerA, "{b}"}, {o.goPerB, "{a}"}, {o.perA, "{b}"}, {o.perB, "{a}"},
	} {
		if strings.Contains(h.part, h.other) {
			return fmt.Errorf("%s: an operand-only part reads %s", o.op, h.other)
		}
	}
	for _, h := range []struct{ part, rest string }{
		{o.perA, o.perB + ";" + o.body},
		{o.perB, o.perA + ";" + o.body},
	} {
		for _, hi := range instructions(h.part) {
			for _, ri := range instructions(h.rest) {
				if dst(hi) == dst(ri) {
					return fmt.Errorf("%s: %q overwrites %s, which %q computes once per call", o.op, ri, dst(hi), hi)
				}
			}
		}
	}
	return nil
}

// goCode returns row o's Go semantics as one statement list: the given
// operand-only parts, then the body, which assigns {d}.
func goCode(o op, perA, perB string) string {
	body := o.goBody
	if !strings.Contains(body, "{d}") {
		body = "{d} = " + body
	}
	return strings.Join(slices.DeleteFunc([]string{perA, perB, body}, func(s string) bool { return s == "" }), "; ")
}

// goKernel writes the Go kernel fn: row o's Go body applied to each
// case of [c0, c1) in operand shape form.
func goKernel(w *bytes.Buffer, fn, form string, o op) {
	a, b := "av", "bv"
	cols := "d, av, bv := t.dst[c0:c1], t.a[c0:c1], t.b[c0:c1]"
	perA, perB, pre := o.goPerA, o.goPerB, ""
	switch {
	case o.arity == 1:
		cols = "d, av := t.dst[c0:c1], t.a[c0:c1]"
	case form == "VI":
		b, cols, pre, perB = "imm", "d, av, imm := t.dst[c0:c1], t.a[c0:c1], t.imm", perB, ""
	case form == "IV":
		a, cols, pre, perA = "imm", "d, bv, imm := t.dst[c0:c1], t.b[c0:c1], t.imm", perA, ""
	}
	code := goCode(o, perA, perB)
	at := func(c string) string {
		word := func(col string) string {
			if col == "imm" {
				return col
			}
			return col + "[" + c + "]"
		}
		return strings.NewReplacer("{a}", word(a), "{b}", word(b), "{d}", "d["+c+"]").Replace(code)
	}
	fmt.Fprintf(w, "\nfunc %s(t *tapeEntry, c0, c1 int) {\n%s\n", fn, cols)
	if pre != "" {
		fmt.Fprintf(w, "%s\n", strings.NewReplacer("{a}", "imm", "{b}", "imm").Replace(pre))
	}
	if o.unroll && o.arity == 2 && form != "VI" {
		if a == "av" {
			w.WriteString("av, bv = av[:len(d)], bv[:len(d)]\n")
		} else {
			w.WriteString("bv = bv[:len(d)]\n")
		}
		w.WriteString("c := 0\nfor ; c+4 <= len(d); c += 4 {\n")
		for k := 0; k < 4; k++ {
			fmt.Fprintf(w, "{\n%s\n}\n", at(fmt.Sprintf("c+%d", k)))
		}
		fmt.Fprintf(w, "}\nfor ; c < len(d); c++ {\n%s\n}\n}\n", at("c"))
		return
	}
	fmt.Fprintf(w, "for c := range d {\n%s\n}\n}\n", at("c"))
}

// kernel writes one TEXT block: the skeleton of operand shape form
// ("fill", "VV", "VI" or "IV") around row o's vector instructions.
func kernel(w *bytes.Buffer, fn, form string, o op) {
	readA := form == "VV" || form == "VI"
	readB := (form == "VV" && o.arity == 2) || form == "IV"
	a, b, d := regA, regB, regD
	switch form {
	case "VI":
		b = regImm
	case "IV":
		a = regImm
	case "fill":
		d = regImm
	}
	fmt.Fprintf(w, "\n// func %s(t *tapeEntry, c0, c1 int)\n", fn)
	fmt.Fprintf(w, "TEXT ·%s(SB), NOSPLIT, $0-24\n", fn)
	ins := func(format string, args ...any) { fmt.Fprintf(w, "\t"+format+"\n", args...) }
	ins("MOVQ t+0(FP), DI")
	ins("MOVQ c0+8(FP), AX")
	ins("MOVQ c1+16(FP), CX")
	ins("SUBQ AX, CX")
	ins("JLE  done")
	ins("MOVQ tapeEntry_dst(DI), R8")
	ins("LEAQ (R8)(AX*8), R8")
	if readA {
		ins("MOVQ tapeEntry_a(DI), SI")
		ins("LEAQ (SI)(AX*8), SI")
	}
	if readB {
		ins("MOVQ tapeEntry_b(DI), BX")
		ins("LEAQ (BX)(AX*8), BX")
	}
	if form != "VV" {
		ins("VPBROADCASTQ tapeEntry_imm(DI), %s", regImm)
	}
	all := o.perA + ";" + o.perB + ";" + o.body
	for _, c := range consts {
		if !strings.Contains(all, c.name) {
			continue
		}
		if c.val == "" {
			ins("VMOVDQU64 bswapIdx<>(SB), %s", c.reg)
			continue
		}
		ins("MOVQ %s, DX", c.val)
		ins("VPBROADCASTQ DX, %s", c.reg)
	}
	r := append([]string{"{a}", a, "{b}", b, "{d}", d}, scratch...)
	for _, c := range consts {
		r = append(r, c.name, c.reg)
	}
	rep := strings.NewReplacer(r...)
	pre, loop := "", o.perA+";"+o.perB+";"+o.body
	switch form {
	case "VI":
		pre, loop = o.perB, o.perA+";"+o.body
	case "IV":
		pre, loop = o.perA, o.perB+";"+o.body
	}
	for _, l := range instructions(pre) {
		ins("%s", rep.Replace(l))
	}
	var lines []string
	for _, l := range instructions(loop) {
		lines = append(lines, rep.Replace(l))
	}
	step := func(mask string) {
		load, store := "VMOVDQU64 ", "VMOVDQU64 "+d+", "
		if mask != "" {
			load, store = "VMOVDQU64.Z ", "VMOVDQU64 "+d+", "+mask+", "
			mask += ", "
		}
		if readA {
			ins("%s(SI)(AX*8), %s%s", load, mask, regA)
		}
		if readB {
			ins("%s(BX)(AX*8), %s%s", load, mask, regB)
		}
		for _, l := range lines {
			ins("%s", l)
		}
		ins("%s(R8)(AX*8)", store)
	}
	ins("XORQ AX, AX")
	ins("MOVQ CX, R9")
	ins("SUBQ $8, R9")
	ins("JLT  tail")
	w.WriteString("\nloop:\n")
	step("")
	ins("ADDQ $8, AX")
	ins("CMPQ AX, R9")
	ins("JLE  loop")
	w.WriteString("\ntail:\n")
	ins("SUBQ AX, CX")
	ins("JEQ  done")
	ins("MOVL $1, DX")
	ins("SHLL CX, DX")
	ins("DECL DX")
	ins("KMOVB DX, K1")
	step("K1")
	w.WriteString("\ndone:\n")
	ins("VZEROUPPER")
	ins("RET")
}

// opConsts returns the exported constants of the Op const block of
// opcode.go, whose source is src, in declaration order.
func opConsts(src []byte) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), "opcode.go", src, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if t, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || t.Name != "Op" {
			continue
		}
		for _, s := range gd.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				if n.IsExported() {
					names = append(names, n.Name)
				}
			}
		}
	}
	if names == nil {
		return nil, fmt.Errorf("opcode.go: no const block of type Op")
	}
	return names, nil
}

// checkConsts reports a row list that is not one row per constant of
// names.
func checkConsts(rows []op, names []string) error {
	n := map[string]int{}
	for _, o := range rows {
		n[o.op]++
	}
	for _, c := range names {
		if n[c] != 1 {
			return fmt.Errorf("prog.%s has %d rows, want 1", c, n[c])
		}
	}
	for _, o := range rows {
		if !slices.Contains(names, o.op) {
			return fmt.Errorf("%s: not a prog.Op constant", o.op)
		}
	}
	return nil
}

// tableRow returns a fusion-table row naming kernel(form) for each
// form row o serves.
func tableRow(o op, kernel func(form string) string) string {
	var fields []string
	for _, f := range forms(o) {
		fields = append(fields, f+": "+kernel(f))
	}
	return "{" + strings.Join(fields, ", ") + "}"
}

// generate returns the generated files, keyed by their paths under
// internal/prog, for rows checked against the prog.Op constants names.
func generate(rows []op, names []string) (map[string][]byte, error) {
	if err := checkConsts(rows, names); err != nil {
		return nil, err
	}
	var s, vg, vtbl, pg, stbl, eg, arms bytes.Buffer
	const gen = "// Code generated by genkernels. DO NOT EDIT.\n\n"
	const header = gen + "//go:build !purego\n\n"
	s.WriteString(header)
	s.WriteString("#include \"go_asm.h\"\n#include \"textflag.h\"\n\n")
	s.WriteString("// bswapIdx is the VPSHUFB control that reverses the bytes of each word.\n")
	for i := 0; i < 8; i++ {
		lo := 16*(i/2) + 8*(i%2)
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(lo%16+7-j) << (8 * j)
		}
		fmt.Fprintf(&s, "DATA bswapIdx<>+%d(SB)/8, $%#016x\n", 8*i, v)
	}
	s.WriteString("GLOBL bswapIdx<>(SB), RODATA|NOPTR, $64\n")

	vg.WriteString(header)
	vg.WriteString("package plan\n\nimport \"stochsyn/internal/prog\"\n\n")
	vg.WriteString("// The AVX-512 kernels of kernels_amd64.s, 8 cases per instruction.\n")
	vg.WriteString("// Each is its scalar twin's evalOp arm applied per lane.\n")
	vg.WriteString("func avxFill(t *tapeEntry, c0, c1 int)\n")
	kernel(&s, "avxFill", "fill", op{})
	vtbl.WriteString("\n// avx512 is the vector fusion table: a row per prog.Op with the\n")
	vtbl.WriteString("// same forms as the scalar row. A zero row keeps the scalar kernels.\n")
	vtbl.WriteString("var avx512 = [prog.NumOps]Kernels{\n")

	pg.WriteString(gen)
	pg.WriteString("package plan\n\nimport (\nmathbits \"math/bits\"\n\n\"stochsyn/internal/prog\"\n)\n")
	stbl.WriteString(`
// scalar is the portable kernel table, indexed by opcode: the
// reference every vector kernel is tested against, and the only table
// on CPUs and builds without one. Pseudo-ops take the zero row: the
// compiler routes them through the fill and copy kernels before
// consulting the table.
var scalar = [prog.NumOps]Kernels{
`)
	eg.WriteString(gen)
	eg.WriteString("package prog\n\nimport mathbits \"math/bits\"\n\n")
	eg.WriteString("// opTable gives each opcode's mnemonic, arity and commutativity.\n")
	eg.WriteString("var opTable = [numOps]opInfo{\n")
	arms.WriteString(`
// evalOp applies an instruction opcode to its (up to two) argument
// values. Unary operations ignore b. Per the paper, operations that
// would trap at runtime (division or modulus with undefined results)
// produce zero instead.
func evalOp(op Op, a, b uint64) uint64 {
switch op {
`)

	defs := map[string]op{}
	for _, o := range rows {
		fmt.Fprintf(&eg, "%s: {%q, %d, %t},\n", o.op, o.mnem, o.arity, o.comm)
		if o.arity == 0 {
			fmt.Fprintf(&stbl, "prog.%s: {}, // pseudo-op\n", o.op)
			fmt.Fprintf(&vtbl, "prog.%s: {}, // pseudo-op\n", o.op)
			continue
		}
		name := o.name
		if name == "" {
			name = strings.TrimPrefix(o.op, "Op")
		}
		goName := func(form string) string { return strings.ToLower(form) + name }
		avxName := func(form string) string { return "avx" + form + name }
		def, reused := defs[name]
		switch {
		case reused && (o.goBody != "" || o.body != ""):
			return nil, fmt.Errorf("%s: kernel name %s used twice", o.op, name)
		case reused && !slices.Equal(forms(o), forms(def)):
			return nil, fmt.Errorf("%s: reuses %s, whose forms %v differ from its own %v", o.op, name, forms(def), forms(o))
		case !reused && o.goBody == "":
			return nil, fmt.Errorf("%s: no Go body, and no earlier row named %s to reuse", o.op, name)
		case !reused && o.body == "":
			return nil, fmt.Errorf("%s: no vector body", o.op)
		case !reused:
			if err := checkHoist(o); err != nil {
				return nil, err
			}
			def, defs[name] = o, o
			for _, f := range forms(o) {
				goKernel(&pg, goName(f), f, o)
				fmt.Fprintf(&vg, "func %s(t *tapeEntry, c0, c1 int)\n", avxName(f))
				kernel(&s, avxName(f), f, o)
			}
		}
		arm := strings.NewReplacer("{a}", "a", "{b}", "b", "{d} = ", "return ").Replace(goCode(def, def.goPerA, def.goPerB))
		fmt.Fprintf(&arms, "case %s:\n%s\n", o.op, arm)
		fmt.Fprintf(&stbl, "prog.%s: %s,\n", o.op, tableRow(o, goName))
		fmt.Fprintf(&vtbl, "prog.%s: %s,\n", o.op, tableRow(o, avxName))
	}
	eg.WriteString("}\n")
	eg.Write(arms.Bytes())
	eg.WriteString("}\nreturn 0\n}\n")
	pg.Write(stbl.Bytes())
	pg.WriteString("}\n")
	vg.Write(vtbl.Bytes())
	vg.WriteString("}\n")
	files := map[string][]byte{"plan/kernels_amd64.s": s.Bytes()}
	for name, src := range map[string][]byte{"ops_gen.go": eg.Bytes(), "plan/kernels_gen.go": pg.Bytes(), "plan/kernels_amd64.go": vg.Bytes()} {
		out, err := format.Source(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		files[name] = out
	}
	return files, nil
}

// generateIn returns the generated files of the internal/prog
// directory dir, checking the rows against its opcode.go.
func generateIn(dir string) (map[string][]byte, error) {
	src, err := os.ReadFile(filepath.Join(dir, "opcode.go"))
	if err != nil {
		return nil, err
	}
	names, err := opConsts(src)
	if err != nil {
		return nil, err
	}
	return generate(ops, names)
}

func main() {
	dir := flag.String("dir", ".", "the internal/prog directory: opcode.go is read there and the files are written under it")
	flag.Parse()
	files, err := generateIn(*dir)
	for name, src := range files {
		if err == nil {
			err = os.WriteFile(filepath.Join(*dir, name), src, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genkernels:", err)
		os.Exit(1)
	}
}
