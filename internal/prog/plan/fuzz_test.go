package plan

import (
	"testing"

	"stochsyn/internal/prog"
)

// FuzzDivKernels runs every division and remainder kernel, in every
// form and on every kernel set, against prog.EvalOp. Case i of the
// range [c0, c0+n) reads a−i on the left and b+i on the right, so one
// input also checks its neighbours; imm is the VI divisor and the IV
// dividend. Every word outside the range holds a sentinel that must
// survive. The seeds pair the edge values of edgeWords.
//
//	go test ./internal/prog/plan -run '^$' -fuzz FuzzDivKernels
func FuzzDivKernels(f *testing.F) {
	edges := edgeWords()
	for i, a := range edges {
		f.Add(a, edges[(7*i+3)%len(edges)], edges[(13*i+5)%len(edges)], uint8(i), uint8(3*i))
	}
	const maxLen, pad = 40, 8
	const sentinel = 0xdeadbeefdeadbeef
	f.Fuzz(func(t *testing.T, a, b, imm uint64, c0, n uint8) {
		lo, hi := int(c0%pad), int(c0%pad)+int(n%(maxLen+1))
		av, bv, dst := make([]uint64, hi+pad), make([]uint64, hi+pad), make([]uint64, hi+pad)
		for c := range av {
			av[c], bv[c] = sentinel, sentinel
		}
		for c := lo; c < hi; c++ {
			av[c], bv[c] = a-uint64(c-lo), b+uint64(c-lo)
		}
		for _, ks := range kernelSets(t) {
			for _, op := range divOps {
				row := &ks.table[op]
				for _, fm := range []struct {
					form   string
					k      kernel
					av, bv []uint64
					want   func(c int) uint64
				}{
					{"VV", row.VV, av, bv, func(c int) uint64 { return prog.EvalOp(op, av[c], bv[c]) }},
					{"VI", row.VI, av, nil, func(c int) uint64 { return prog.EvalOp(op, av[c], imm) }},
					{"IV", row.IV, nil, bv, func(c int) uint64 { return prog.EvalOp(op, imm, bv[c]) }},
				} {
					for c := range dst {
						dst[c] = sentinel
					}
					e := &tapeEntry{kern: fm.k, dst: dst, a: fm.av, b: fm.bv, imm: imm}
					e.kern(e, lo, hi)
					for c := range dst {
						w := uint64(sentinel)
						if c >= lo && c < hi {
							w = fm.want(c)
						}
						if dst[c] != w {
							t.Fatalf("%s %v %s imm=%#x [%d, %d) case %d (a=%#x b=%#x): kernel %#x, want %#x",
								ks.name, op, fm.form, imm, lo, hi, c, av[c], bv[c], dst[c], w)
						}
					}
				}
			}
		}
	})
}
