package cost

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"stochsyn/internal/prog/plan"
)

// TestBlockSumsMatchScalar checks the installed block sums (the vector
// ones where the plan kernels run on AVX-512) against the Go loops at
// every length from 0 to 70, from unaligned starts, on random, equal
// and nearly equal columns. The words on both sides of each range differ
// between the two columns, so a sum that strays outside its range
// miscounts.
func TestBlockSumsMatchScalar(t *testing.T) {
	if reflect.ValueOf(hammingSum).Pointer() == reflect.ValueOf(hammingGo).Pointer() {
		t.Logf("kernel set %s: the block sums are the Go loops", plan.KernelSet())
	}
	const maxLen, pad = 70, 9
	rng := rand.New(rand.NewPCG(4, 9))
	a := make([]uint64, pad+maxLen+pad)
	b := make([]uint64, len(a))
	for _, fillKind := range []string{"random", "equal", "nearly equal"} {
		for i := range a {
			a[i] = rng.Uint64()
			switch fillKind {
			case "random":
				b[i] = rng.Uint64()
			case "equal":
				b[i] = a[i]
			default:
				b[i] = a[i]
				if rng.IntN(8) == 0 {
					b[i] ^= 1 << rng.IntN(64)
				}
			}
		}
		for n := 0; n <= maxLen; n++ {
			for _, off := range []int{0, 1, 5, pad} {
				for i := 0; i < pad; i++ { // different words around the range
					a[i], b[i] = 0, ^uint64(0)
					a[len(a)-1-i], b[len(b)-1-i] = 0, ^uint64(0)
				}
				got, want := a[off:off+n], b[off:off+n]
				if h, w := hammingSum(got, want), hammingGo(got, want); h != w {
					t.Fatalf("%s len %d off %d: hamming %d, Go loop %d", fillKind, n, off, h, w)
				}
				if m, w := mismatchSum(got, want), mismatchGo(got, want); m != w {
					t.Fatalf("%s len %d off %d: mismatches %d, Go loop %d", fillKind, n, off, m, w)
				}
				// Unequal lengths sum over the shorter.
				if h, w := hammingSum(got, b[off:off+n+1]), hammingGo(got, want); h != w {
					t.Fatalf("%s len %d off %d: hamming over a longer want %d, want %d", fillKind, n, off, h, w)
				}
				if m, w := mismatchSum(a[off:off+n+1], want), mismatchGo(got, want); m != w {
					t.Fatalf("%s len %d off %d: mismatches over a longer got %d, want %d", fillKind, n, off, m, w)
				}
			}
		}
	}
}
