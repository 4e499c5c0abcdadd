package cost

import "stochsyn/internal/bits"

// hammingSum returns Σ bits.Distance(got[c], want[c]) and mismatchSum
// the number of cases c with got[c] != want[c], both over the first
// min(len(got), len(want)) cases: the Hamming and IncorrectTests block
// sums of OfPlan. Both start as the Go loops below; at init, a build
// whose plan kernels run on AVX-512 installs vector sums in their place
// (reduce_amd64.go). The sums are exact integers, so either gives the
// same value.
var (
	hammingSum  = hammingGo
	mismatchSum = mismatchGo
)

func hammingGo(got, want []uint64) int {
	n := min(len(got), len(want))
	got, want = got[:n], want[:n]
	d := 0
	for c, x := range got {
		d += bits.Distance(x, want[c])
	}
	return d
}

func mismatchGo(got, want []uint64) int {
	n := min(len(got), len(want))
	got, want = got[:n], want[:n]
	d := 0
	for c, x := range got {
		if x != want[c] {
			d++
		}
	}
	return d
}
