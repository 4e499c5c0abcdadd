package absint_test

import (
	"math/rand/v2"
	"testing"

	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
	"stochsyn/internal/prog/analysis/absint"
	"stochsyn/internal/testcase"
)

// FuzzAbstractDomains is the soundness gate for the abstract
// interpreter: for random mutator-driven programs and random inputs,
// the concrete Eval value must be contained in the abstract value at
// every node, in both domains, with Top input facts and with
// suite-derived input facts alike — and the invariant must survive
// Canonicalize. Wired into `make ci` via the fuzz gate's -run mode
// over this seed corpus.
func FuzzAbstractDomains(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4))
	f.Add(uint64(2), uint8(2), uint8(8))
	f.Add(uint64(3), uint8(3), uint8(12))
	f.Add(uint64(0xdeadbeef), uint8(4), uint8(16))
	f.Add(uint64(0x5eed), uint8(8), uint8(24))
	f.Add(uint64(42), uint8(2), uint8(32))
	f.Fuzz(func(t *testing.T, seed uint64, rawInputs, rawSteps uint8) {
		numInputs := int(rawInputs)%prog.MaxInputs + 1
		steps := int(rawSteps) % 33
		p := mutate.RandomProgram(seed, numInputs, steps)
		if err := p.Validate(); err != nil {
			t.Fatalf("mutator produced invalid program: %v", err)
		}

		check := func(q *prog.Program, label string) {
			// Universal facts: sound for every input vector.
			facts := absint.Analyze(q, nil, nil)
			rng := rand.New(rand.NewPCG(seed^0xfac75, 0xab51de7))
			in := make([]uint64, numInputs)
			vals := make([]uint64, len(q.Nodes))
			var cases []testcase.Case
			for trial := 0; trial < 16; trial++ {
				for i := range in {
					in[i] = rng.Uint64()
				}
				q.Eval(in, vals)
				for i, v := range vals {
					if !facts[i].B.Contains(v) {
						t.Fatalf("%s: bits unsound at node %d (%s): concrete %#x not in %v\n  inputs: %v\n  program: %s",
							label, i, q.Nodes[i].Op, v, facts[i], in, q)
					}
					if !facts[i].S.Contains(v) {
						t.Fatalf("%s: span unsound at node %d (%s): concrete %#x not in %v\n  inputs: %v\n  program: %s",
							label, i, q.Nodes[i].Op, v, facts[i], in, q)
					}
				}
				cases = append(cases, testcase.Case{
					Inputs: append([]uint64(nil), in...),
					Output: vals[q.Root],
				})
			}

			// Suite-derived facts: sound for the suite's own cases.
			suite := &testcase.Suite{NumInputs: numInputs, Cases: cases}
			inFacts := absint.InputFacts(suite)
			sfacts := absint.Analyze(q, inFacts, nil)
			for _, c := range cases {
				q.Eval(c.Inputs, vals)
				for i, v := range vals {
					if !sfacts[i].Contains(v) {
						t.Fatalf("%s: suite facts unsound at node %d (%s): concrete %#x not in %v\n  inputs: %v\n  program: %s",
							label, i, q.Nodes[i].Op, v, sfacts[i], c.Inputs, q)
					}
				}
			}
		}

		check(p, "raw")
		check(analysis.Canonicalize(p), "canonical")
	})
}
