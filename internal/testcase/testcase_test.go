package testcase

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func xorFunc(in []uint64) uint64 { return in[0] ^ in[1] }

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := Generate(xorFunc, 2, 100, rng)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100", s.Len())
	}
	for i, c := range s.Cases {
		if c.Output != xorFunc(c.Inputs) {
			t.Fatalf("case %d output mismatch", i)
		}
	}
}

func TestGenerateIncludesUniformCorners(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := Generate(xorFunc, 2, 50, rng)
	want := map[uint64]bool{0: false, 1: false, ^uint64(0): false}
	for _, c := range s.Cases {
		if c.Inputs[0] == c.Inputs[1] {
			if _, ok := want[c.Inputs[0]]; ok {
				want[c.Inputs[0]] = true
			}
		}
	}
	for v, seen := range want {
		if !seen {
			t.Errorf("uniform corner vector %#x missing", v)
		}
	}
}

func TestGenerateDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := Generate(func(in []uint64) uint64 { return in[0] }, 1, 60, rng)
	seen := map[string]bool{}
	for _, c := range s.Cases {
		key := fmt.Sprint(c.Inputs)
		if seen[key] {
			t.Fatalf("duplicate input vector %v", c.Inputs)
		}
		seen[key] = true
	}
}

func TestGenerateSingleInputTerminates(t *testing.T) {
	// Regression: with one input the corner-case pool is smaller than
	// n/3 for large n; generation must not spin forever.
	rng := rand.New(rand.NewPCG(4, 4))
	s := Generate(func(in []uint64) uint64 { return in[0] }, 1, 100, rng)
	if s.Len() == 0 {
		t.Fatal("no cases generated")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(xorFunc, 2, 40, rand.New(rand.NewPCG(7, 8)))
	b := Generate(xorFunc, 2, 40, rand.New(rand.NewPCG(7, 8)))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ across identical seeds")
	}
	for i := range a.Cases {
		if fmt.Sprint(a.Cases[i]) != fmt.Sprint(b.Cases[i]) {
			t.Fatalf("case %d differs across identical seeds", i)
		}
	}
}

func TestGenerateUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	s := GenerateUniform(xorFunc, 3, 25, rng)
	if s.Len() != 25 || s.NumInputs != 3 {
		t.Fatalf("got %d cases / %d inputs", s.Len(), s.NumInputs)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := &Suite{NumInputs: 2}
	if err := s.Validate(); err == nil {
		t.Error("empty suite validated")
	}
	s.Cases = append(s.Cases, Case{Inputs: []uint64{1}, Output: 0})
	if err := s.Validate(); err == nil {
		t.Error("wrong-arity case validated")
	}
	s2 := &Suite{NumInputs: -1, Cases: []Case{{}}}
	if err := s2.Validate(); err == nil {
		t.Error("negative input count validated")
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	s := Generate(xorFunc, 2, 10, rng)
	c := s.Clone()
	c.Cases[0].Inputs[0] = 0xdead
	c.Cases[0].Output = 0xbeef
	if s.Cases[0].Inputs[0] == 0xdead || s.Cases[0].Output == 0xbeef {
		t.Error("Clone aliases case storage")
	}
}

func TestPropertyGenerateRespectsArity(t *testing.T) {
	f := func(seed uint64, nRaw, sizeRaw uint8) bool {
		n := 1 + int(nRaw)%4
		size := 1 + int(sizeRaw)%120
		rng := rand.New(rand.NewPCG(seed, 11))
		s := Generate(func(in []uint64) uint64 { return in[0] }, n, size, rng)
		return s.Validate() == nil && s.Len() <= size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRowsAreCapacityLimited pins the suite layout: appending to one
// case's Inputs must reallocate it, never overwrite the next case's
// vector in the shared backing array.
func TestRowsAreCapacityLimited(t *testing.T) {
	gen := Generate(xorFunc, 2, 30, rand.New(rand.NewPCG(12, 12)))
	for name, s := range map[string]*Suite{
		"Generate":        gen,
		"GenerateUniform": GenerateUniform(xorFunc, 2, 30, rand.New(rand.NewPCG(13, 13))),
		"Clone":           gen.Clone(),
	} {
		want := s.Clone()
		for i := range s.Cases {
			if cap(s.Cases[i].Inputs) != len(s.Cases[i].Inputs) {
				t.Fatalf("%s: case %d has cap %d > len %d", name, i, cap(s.Cases[i].Inputs), len(s.Cases[i].Inputs))
			}
			_ = append(s.Cases[i].Inputs, 0xdead, 0xbeef)
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: appending to a case's Inputs changed the suite", name)
		}
	}
}

func TestCopyInputs(t *testing.T) {
	in := [][]uint64{{1, 2}, {3}, nil, {4, 5, 6}}
	s := &Suite{NumInputs: 2}
	for i, v := range in {
		s.Cases = append(s.Cases, Case{Inputs: v, Output: uint64(i)})
	}
	s.CopyInputs()
	for i, v := range in {
		if len(v) > 0 {
			v[0] = 99
		}
		if got := s.Cases[i].Inputs; len(got) != len(v) || cap(got) != len(got) || len(got) > 0 && got[0] == 99 {
			t.Errorf("case %d: Inputs %v (cap %d) after changing the source to %v", i, got, cap(got), v)
		}
	}
}

// TestGenerateAllocs pins that building a suite allocates nothing per
// input vector: a 1000-case suite takes a dozen allocations, and only
// the dedup map's tables grow with the case count. Formatting a dedup
// key and allocating each vector took about 7 allocations a case.
func TestGenerateAllocs(t *testing.T) {
	for _, n := range []int{10, 1000} {
		allocs := testing.AllocsPerRun(20, func() {
			Generate(xorFunc, 2, n, rand.New(rand.NewPCG(9, 9)))
		})
		if allocs > 20 {
			t.Errorf("Generate(%d cases) made %.0f allocations, want <= 20", n, allocs)
		}
	}
}

// BenchmarkGenerate builds the 1000-case, 2-input suite of a wide
// workload problem: RNG draws, deduplication and case storage.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(xorFunc, 2, 1000, rand.New(rand.NewPCG(9, 9)))
	}
}
