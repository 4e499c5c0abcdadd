// Command genkernels writes the AVX-512 twins of the plan compiler's
// column kernels (package internal/prog/plan): kernels_amd64.s, one
// TEXT block per kernel, and kernels_amd64.go, the kernels' Go
// declarations and the avx512 fusion table.
//
// Each opcode is one row of the ops table below: its vector body,
// written once over symbolic registers, and the operand forms it
// serves. Each operand shape's loop skeleton (fill, VV, VI, IV; a unary
// opcode is a VV kernel with no right operand) is written once, in
// kernel: 8 cases per iteration, then one masked iteration for the last
// 0-7 cases of any [c0, c1). The VI skeleton binds the body's right
// operand to the broadcast immediate and the IV skeleton its left, so
// an opcode's three forms share one body. A row may also name the work
// that reads only its right operand (perB) or only its left (perA):
// VI runs perB once per call, before the loop, and IV runs perA there;
// every other form runs them in the loop, ahead of the body.
//
// Bodies use these placeholders:
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
// Usage, from internal/prog/plan (go generate ./internal/prog/plan):
//
//	go run stochsyn/cmd/genkernels [-dir .]
//
// TestGeneratedFilesUpToDate fails when the committed files differ from
// what this writes.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"path/filepath"
	"strings"
)

// An op is one row of the table: the fusion-table entry of one opcode.
type op struct {
	op    string // the prog.Op constant
	name  string // kernel name suffix; "" for a row with no vector kernels
	forms string // the forms served: "V" (unary), "VV", "VV VI", "VV VI IV"
	body  string // the vector body, instructions separated by ";"
	// perA and perB are instructions that read only {a} or only {b}
	// (and constants), hoisted out of the IV or VI loop. The registers
	// they write must survive the body.
	perA, perB string
	// A row with a name but no body reuses the kernels an earlier row
	// of that name emitted; a row with no name falls back to the scalar
	// kernels for the reason in note.
	note string
}

const (
	unary  = "V"
	vvVI   = "VV VI"
	vvVIIV = "VV VI IV"
)

// ops lists every prog.Op in opcode order. Each body is the opcode's
// evalOp arm applied per lane: shift counts masked to 63 (31 for the
// 32-bit ops), rotate counts taken mod 64 by VPROLVQ/VPRORVQ
// themselves, compares producing 0 or 1, 32-bit results zero-extended,
// and clz(0) = ctz(0) = 64 (VPLZCNTQ's and popcount(^x & (x-1))'s
// values at zero).
var ops = []op{
	{op: "OpInvalid", note: "pseudo-op"},
	{op: "OpInput", note: "pseudo-op: the compiler's copy kernel"},
	{op: "OpConst", note: "pseudo-op: the compiler's fill kernel"},

	{op: "OpAdd", name: "Add", forms: vvVI, body: "VPADDQ {b}, {a}, {d}"},
	{op: "OpSub", name: "Sub", forms: vvVIIV, body: "VPSUBQ {b}, {a}, {d}"},
	// lo(a)·lo(b) + (lo(a)·hi(b) + hi(a)·lo(b))·2^32 mod 2^64, from
	// VPMULUDQ's 32×32→64 products: VPMULLQ computes the same low word
	// but measured about 4× slower per case.
	{op: "OpMul", name: "Mul", forms: vvVI, body: "VPMULUDQ {b}, {a}, {d}; VPSRLQ $32, {a}, {t}; VPMULUDQ {b}, {t}, {t}; " +
		"VPSRLQ $32, {b}, {u}; VPMULUDQ {u}, {a}, {u}; VPADDQ {u}, {t}, {t}; VPSLLQ $32, {t}, {t}; VPADDQ {t}, {d}, {d}"},
	divide("OpDivU", "DivU", false, false),
	divide("OpRemU", "RemU", false, true),
	divide("OpDivS", "DivS", true, false),
	divide("OpRemS", "RemS", true, true),
	{op: "OpAnd", name: "And", forms: vvVI, body: "VPANDQ {b}, {a}, {d}"},
	{op: "OpOr", name: "Or", forms: vvVI, body: "VPORQ {b}, {a}, {d}"},
	{op: "OpXor", name: "Xor", forms: vvVI, body: "VPXORQ {b}, {a}, {d}"},
	{op: "OpShl", name: "Shl", forms: vvVIIV, body: "VPANDQ {m63}, {b}, {t}; VPSLLVQ {t}, {a}, {d}"},
	{op: "OpShr", name: "Shr", forms: vvVIIV, body: "VPANDQ {m63}, {b}, {t}; VPSRLVQ {t}, {a}, {d}"},
	{op: "OpSar", name: "Sar", forms: vvVIIV, body: "VPANDQ {m63}, {b}, {t}; VPSRAVQ {t}, {a}, {d}"},
	{op: "OpRol", name: "Rol", forms: vvVIIV, body: "VPROLVQ {b}, {a}, {d}"},
	{op: "OpRor", name: "Ror", forms: vvVIIV, body: "VPRORVQ {b}, {a}, {d}"},
	{op: "OpEq", name: "Eq", forms: vvVI, body: "VPCMPUQ $0, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},
	{op: "OpUlt", name: "Ult", forms: vvVIIV, body: "VPCMPUQ $1, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},
	{op: "OpSlt", name: "Slt", forms: vvVIIV, body: "VPCMPQ $1, {b}, {a}, {k}; VMOVDQA64.Z {one}, {k}, {d}"},

	{op: "OpNot", name: "Not", forms: unary, body: "VPXORQ {ones}, {a}, {d}"},
	{op: "OpNeg", name: "Neg", forms: unary, body: "VPSUBQ {a}, {zero}, {d}"},
	{op: "OpBswap", name: "Bswap", forms: unary, body: "VPSHUFB {bswap}, {a}, {d}"},
	{op: "OpPopcnt", name: "Popcnt", forms: unary, body: "VPOPCNTQ {a}, {d}"},
	{op: "OpClz", name: "Clz", forms: unary, body: "VPLZCNTQ {a}, {d}"},
	{op: "OpCtz", name: "Ctz", forms: unary, body: "VPADDQ {ones}, {a}, {t}; VPANDNQ {t}, {a}, {t}; VPOPCNTQ {t}, {d}"},
	{op: "OpSext8", name: "Sext8", forms: unary, body: "VPSLLQ $56, {a}, {t}; VPSRAQ $56, {t}, {d}"},
	{op: "OpSext16", name: "Sext16", forms: unary, body: "VPSLLQ $48, {a}, {t}; VPSRAQ $48, {t}, {d}"},
	{op: "OpSext32", name: "Sext32", forms: unary, body: "VPSLLQ $32, {a}, {t}; VPSRAQ $32, {t}, {d}"},
	{op: "OpZext8", name: "Zext8", forms: unary, body: "VPANDQ {lo8}, {a}, {d}"},
	{op: "OpZext16", name: "Zext16", forms: unary, body: "VPANDQ {lo16}, {a}, {d}"},
	{op: "OpZext32", name: "Zext32", forms: unary, body: "VPANDQ {lo32}, {a}, {d}"},

	{op: "OpAdd32", name: "Add32", forms: vvVI, body: "VPADDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpSub32", name: "Sub32", forms: vvVIIV, body: "VPSUBQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpMul32", name: "Mul32", forms: vvVI, body: "VPMULUDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpAnd32", name: "And32", forms: vvVI, body: "VPANDQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpOr32", name: "Or32", forms: vvVI, body: "VPORQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpXor32", name: "Xor32", forms: vvVI, body: "VPXORQ {b}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	// The 32-bit shifts run on dword lanes: the low dword of each word
	// is the result, and the high dword, shifted by the count's zero
	// high dword, is masked off.
	{op: "OpShl32", name: "Shl32", forms: vvVIIV, body: "VPANDQ {m31}, {b}, {t}; VPSLLVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpShr32", name: "Shr32", forms: vvVIIV, body: "VPANDQ {m31}, {b}, {t}; VPSRLVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},
	{op: "OpSar32", name: "Sar32", forms: vvVIIV, body: "VPANDQ {m31}, {b}, {t}; VPSRAVD {t}, {a}, {d}; VPANDQ {lo32}, {d}, {d}"},

	{op: "OpNot32", name: "Not32", forms: unary, body: "VPANDNQ {lo32}, {a}, {d}"},
	{op: "OpNeg32", name: "Neg32", forms: unary, body: "VPSUBQ {a}, {zero}, {d}; VPANDQ {lo32}, {d}, {d}"},

	{op: "OpMAnd", name: "And", forms: vvVI},
	{op: "OpMOr", name: "Or", forms: vvVI},
	{op: "OpMXor", name: "Xor", forms: vvVI},
	{op: "OpMNot", name: "Not", forms: unary},
	{op: "OpMShl", name: "MShl", forms: unary, body: "VPSLLQ $1, {a}, {d}"},
	{op: "OpMShr", name: "MShr", forms: unary, body: "VPSRLQ $1, {a}, {d}"},
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

// divide returns the row of a division or remainder opcode: evalOp's
// quotient or remainder per lane, 0 where the divisor is 0, and for
// DivS 0 for MinInt64 / −1. The signed ops divide the magnitudes
// (VPABSQ maps MinInt64 to 2^63, its unsigned magnitude), then negate
// the quotient where the operands' signs differ ({k}, from a ^ b) and
// the remainder where a < 0 ({neg}). MinInt64 % −1 needs no special
// lane: 2^63 mod 1 = 0.
func divide(opName, name string, signed, rem bool) op {
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
	return op{op: opName, name: name, forms: vvVIIV, perA: rep.Replace(perA), perB: rep.Replace(perB), body: rep.Replace(body)}
}

// consts are the constants a body may name, with the register each is
// loaded into. A broadcast constant is built from a general register;
// {bswap} is a 64-byte table (bswapIdx, emitted once).
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

// Fixed registers of every kernel: DI the tape entry, AX the case
// index from 0, CX the case count, R9 the count less 8, R8/SI/BX the
// dst/a/b columns advanced to c0, DX scratch, Z31 the broadcast
// immediate, K1 the tail mask.
const (
	regA, regB, regD, regImm = "Z0", "Z1", "Z2", "Z31"
)

// scratch maps the scratch placeholders to their registers.
var scratch = []string{
	"{t}", "Z3", "{u}", "Z4", "{s0}", "Z5", "{s1}", "Z6", "{s2}", "Z7", "{s3}", "Z8", "{s4}", "Z9", "{s5}", "Z10", "{s6}", "Z11", "{s7}", "Z12",
	"{k}", "K2", "{k3}", "K3", "{k4}", "K4", "{k5}", "K5", "{k6}", "K6",
}

// instructions splits a body into its instructions.
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

// checkHoist reports a row whose perA or perB could not run once per
// call: one that reads the other operand, or whose result the rest of
// the row overwrites.
func checkHoist(o op) error {
	for _, h := range []struct{ part, rest, other string }{
		{o.perA, o.perB + ";" + o.body, "{b}"},
		{o.perB, o.perA + ";" + o.body, "{a}"},
	} {
		if strings.Contains(h.part, h.other) {
			return fmt.Errorf("%s: an operand-only part reads %s", o.op, h.other)
		}
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

// kernel writes one TEXT block: the skeleton of operand shape form
// ("fill", "VV", "VI" or "IV") around row o's instructions.
func kernel(w *bytes.Buffer, fn, form string, o op) {
	readA := form == "VV" || form == "VI"
	readB := (form == "VV" && o.forms != unary) || form == "IV"
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

// generate returns the contents of kernels_amd64.s and kernels_amd64.go.
func generate() (asm, goSrc []byte, err error) {
	var s, g, tbl bytes.Buffer
	const header = "// Code generated by genkernels. DO NOT EDIT.\n\n//go:build !purego\n\n"
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

	g.WriteString(header)
	g.WriteString("package plan\n\nimport \"stochsyn/internal/prog\"\n\n")
	g.WriteString("// The AVX-512 kernels of kernels_amd64.s, 8 cases per instruction.\n")
	g.WriteString("// Each is its scalar twin's evalOp arm applied per lane.\n")
	g.WriteString("func avxFill(t *tapeEntry, c0, c1 int)\n")
	kernel(&s, "avxFill", "fill", op{})

	tbl.WriteString("\n// avx512 is the vector fusion table: a row per prog.Op with the\n")
	tbl.WriteString("// same forms as the scalar row. A zero row keeps the scalar kernels.\n")
	tbl.WriteString("var avx512 = [prog.NumOps]Kernels{\n")
	emitted := map[string]string{}
	for _, o := range ops {
		if o.name == "" {
			fmt.Fprintf(&tbl, "prog.%s: {}, // %s\n", o.op, o.note)
			continue
		}
		if o.body == "" {
			if emitted[o.name] != o.forms {
				return nil, nil, fmt.Errorf("%s: reuses %s, which has no kernels of forms %q", o.op, o.name, o.forms)
			}
		} else {
			if _, ok := emitted[o.name]; ok {
				return nil, nil, fmt.Errorf("%s: kernel name %s used twice", o.op, o.name)
			}
			if err := checkHoist(o); err != nil {
				return nil, nil, err
			}
			emitted[o.name] = o.forms
			for _, f := range strings.Fields(o.forms) {
				form := f
				if f == unary {
					form = "VV"
				}
				fn := "avx" + form + o.name
				fmt.Fprintf(&g, "func %s(t *tapeEntry, c0, c1 int)\n", fn)
				kernel(&s, fn, form, o)
			}
		}
		var fields []string
		for _, f := range strings.Fields(o.forms) {
			if f == unary {
				f = "VV"
			}
			fields = append(fields, fmt.Sprintf("%s: avx%s%s", f, f, o.name))
		}
		fmt.Fprintf(&tbl, "prog.%s: {%s},\n", o.op, strings.Join(fields, ", "))
	}
	tbl.WriteString("}\n")
	g.Write(tbl.Bytes())
	goSrc, err = format.Source(g.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return s.Bytes(), goSrc, nil
}

func main() {
	dir := flag.String("dir", ".", "directory to write kernels_amd64.s and kernels_amd64.go into")
	flag.Parse()
	asm, goSrc, err := generate()
	if err == nil {
		err = os.WriteFile(filepath.Join(*dir, "kernels_amd64.s"), asm, 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(*dir, "kernels_amd64.go"), goSrc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genkernels:", err)
		os.Exit(1)
	}
}
