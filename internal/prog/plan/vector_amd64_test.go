//go:build !purego

package plan

import "testing"

// TestKernelSetFollowsCPU checks the selection: the AVX-512 kernels are
// installed exactly when the CPU and OS run them.
func TestKernelSetFollowsCPU(t *testing.T) {
	want := "scalar"
	if hasAVX512() {
		want = "avx512"
	}
	if got := KernelSet(); got != want {
		t.Fatalf("KernelSet() = %q, want %q", got, want)
	}
	if (vector != nil) != (want == "avx512") {
		t.Fatalf("vector table installed = %t with kernel set %q", vector != nil, want)
	}
	t.Logf("kernel set: %s", KernelSet())
}
