package plan

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"stochsyn/internal/prog"
)

// BenchmarkKernels times one kernel per opcode family, and every
// division shape, on each kernel set (scalar, and the vector set where
// this build and CPU run it) over whole columns of 16, 100 and 1000
// cases, one call per column as a tape block makes it, and reports
// ns/case. Operands are random words shifted right by a random count,
// so quotients of every size occur; the immediate is 13, or a
// full-width dividend for the IV form.
//
//	go test ./internal/prog/plan -run '^$' -bench Kernels
func BenchmarkKernels(b *testing.B) {
	families := []struct {
		name string
		op   prog.Op
		form string
	}{
		{"add", prog.OpAdd, "VV"},
		{"mul", prog.OpMul, "VV"},
		{"and", prog.OpAnd, "VI"},
		{"shift", prog.OpShr, "VV"},
		{"shift-imm", prog.OpShl, "VI"},
		{"rotate", prog.OpRol, "VV"},
		{"compare", prog.OpUlt, "VV"},
		{"popcnt", prog.OpPopcnt, "VV"},
		{"clz", prog.OpClz, "VV"},
		{"ctz", prog.OpCtz, "VV"},
		{"bswap", prog.OpBswap, "VV"},
		{"extend", prog.OpSext16, "VV"},
		{"add32", prog.OpAdd32, "VV"},
		{"shift32", prog.OpSar32, "VV"},
		{"divide", prog.OpDivU, "VV"},
		{"remainder", prog.OpRemU, "VV"},
		{"sdivide", prog.OpDivS, "VV"},
		{"sremainder", prog.OpRemS, "VV"},
		{"divide-imm", prog.OpDivU, "VI"},
		{"remainder-iv", prog.OpRemU, "IV"},
		{"fill", prog.OpConst, ""},
	}
	rng := rand.New(rand.NewPCG(8, 13))
	for _, f := range families {
		for _, ks := range kernelSets(b) {
			var k kernel
			switch row := &ks.table[f.op]; f.form {
			case "VV":
				k = row.VV
			case "VI":
				k = row.VI
			case "IV":
				k = row.IV
			default:
				k = ks.fill
			}
			imm := uint64(13)
			if f.form == "IV" {
				imm = ^uint64(0) / 3
			}
			for _, n := range []int{16, 100, 1000} {
				t := &tapeEntry{kern: k, dst: make([]uint64, n), a: make([]uint64, n), b: make([]uint64, n), imm: imm}
				for c := 0; c < n; c++ {
					t.a[c], t.b[c] = rng.Uint64()>>rng.IntN(64), rng.Uint64()>>rng.IntN(64)|1
				}
				b.Run(fmt.Sprintf("%s/%s/n=%d", f.name, ks.name, n), func(b *testing.B) {
					for b.Loop() {
						t.kern(t, 0, n)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/case")
				})
			}
		}
	}
}
