package eqsat

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
)

// randomProgram builds a program by walking the mutator from the zero
// program — the same move set the search uses, so the fuzzed
// distribution matches the programs the search produces.
func randomProgram(seed uint64, numInputs, steps int) *prog.Program {
	return mutate.RandomProgram(seed, numInputs, steps)
}

// FuzzEqSat is the differential gate for the tentpole invariant: for
// ANY program, saturation + extraction must produce a Validate-clean,
// Eval-equal program, deterministically; and once saturation reaches
// an uncapped fixpoint, Simplify must be idempotent (simplifying the
// simplification changes nothing). Wired into `make ci` via the fuzz
// gate's -run mode over this seed corpus.
func FuzzEqSat(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4))
	f.Add(uint64(2), uint8(2), uint8(8))
	f.Add(uint64(3), uint8(3), uint8(12))
	f.Add(uint64(0xdeadbeef), uint8(4), uint8(16))
	f.Add(uint64(0x5eed), uint8(8), uint8(24))
	f.Add(uint64(42), uint8(2), uint8(32))
	f.Fuzz(func(t *testing.T, seed uint64, rawInputs, rawSteps uint8) {
		numInputs := int(rawInputs)%prog.MaxInputs + 1
		steps := int(rawSteps) % 33
		p := randomProgram(seed, numInputs, steps)
		if err := p.Validate(); err != nil {
			t.Fatalf("mutator produced invalid program: %v", err)
		}

		budget := Budget{MaxNodes: 512, MaxIters: 8}
		q, st := Simplify(p, budget)
		if err := q.Validate(); err != nil {
			t.Fatalf("extraction invalid: %v\n  input: %s\n  output: %s", err, p, q)
		}

		// Eval-equality on a battery derived from the fuzz seed (the
		// fixed battery inside Simplify already ran; this one varies).
		rng := rand.New(rand.NewPCG(seed^0xabcdef, 0x1234567))
		in := make([]uint64, numInputs)
		for trial := 0; trial < 32; trial++ {
			for i := range in {
				in[i] = rng.Uint64()
			}
			if got, want := q.Output(in), p.Output(in); got != want {
				t.Fatalf("extraction disagrees on %v: got %#x want %#x\n  input: %s\n  output: %s",
					in, got, want, p, q)
			}
		}

		// Determinism: same input, same budget → byte-identical result
		// and stats.
		q2, st2 := Simplify(p, budget)
		if !q.Equal(q2) {
			t.Fatalf("nondeterministic extraction: %s vs %s", q, q2)
		}
		if st != st2 {
			t.Fatalf("nondeterministic stats: %+v vs %+v", st, st2)
		}

		// Unsoundness canary: no rule may prove two constants equal.
		if st.ConstConflicts != 0 {
			t.Fatalf("constant conflict during saturation of %s", p)
		}
		// Abstract analogue: no class's fact meet may come out empty,
		// and no inhabited class may be cut before extraction.
		if st.FactConflicts != 0 {
			t.Fatalf("fact conflict during saturation of %s", p)
		}
		if st.EmptyClasses != 0 {
			t.Fatalf("empty-fact class cut during extraction of %s", p)
		}

		// Idempotence: when saturation reached an uncapped fixpoint,
		// the extraction is already minimal over everything the rules
		// can derive, so simplifying it again is the identity. (Capped
		// runs are exempt: a second run starting from the smaller
		// program may legitimately saturate further.)
		if st.Saturated {
			qq, st3 := Simplify(q, budget)
			if st3.Saturated && !qq.Equal(q) {
				t.Fatalf("Simplify not idempotent:\n  input:  %s\n  once:   %s\n  twice:  %s", p, q, qq)
			}
		}

		// EClassHash must agree between p and its own simplification —
		// hashing is keyed on rewrite equivalence, and q IS p's
		// simplified form — again only at uncapped fixpoints.
		if st.Saturated {
			h1, _ := EClassHash(p, budget)
			h2, st4 := EClassHash(q, budget)
			if st4.Saturated && h1 != h2 {
				t.Fatalf("EClassHash(p) = %016x != EClassHash(Simplify(p)) = %016x\n  p: %s\n  q: %s",
					h1, h2, p, q)
			}
		}
	})
}
