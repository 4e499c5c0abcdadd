package search

import (
	"math/rand/v2"
	"sync"
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// fuzzSuite builds a deterministic suite for the differential fuzz
// runs. Half the selector space produces an unsatisfiable random
// mapping (so searches run their whole budget and exercise long
// trajectories); the other half uses synthesizable references (so the
// solved path — early Step return, Solution capture — is exercised
// too).
func fuzzSuite(sel uint8, suiteSeed uint64) *testcase.Suite {
	rng := rand.New(rand.NewPCG(suiteSeed, 0xfeedface))
	switch sel % 4 {
	case 0: // random outputs: almost surely unsynthesizable
		out := rand.New(rand.NewPCG(suiteSeed, 0xabcdef))
		return testcase.Generate(func(in []uint64) uint64 { return out.Uint64() }, 2, 37, rng)
	case 1:
		ref := prog.MustParse("andq(x, subq(x, 1))", 1)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 1, 50, rng)
	case 2:
		ref := prog.MustParse("orq(x, y)", 2)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 2, 21, rng)
	default:
		ref := prog.MustParse("mulq(mulq(x, x), addq(x, y))", 2)
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 2, 50, rng)
	}
}

// FuzzIncrementalEval is the differential test pinning the two
// evaluation arms to each other in lockstep: the compiled plan engine
// (the default) and the from-scratch reference engine (LegacyEval) run
// with identical options and must agree bit-for-bit at every Step
// boundary: identical iteration counts, identical costs (float
// bit-equality, including logdiff sums), identical accept/reject
// tallies, identical current programs, and identical solutions. At the
// end both must report identical EvalStats.
//
// make ci replays the seeded corpus below; `go test -fuzz
// FuzzIncrementalEval ./internal/search` explores beyond it.
func FuzzIncrementalEval(f *testing.F) {
	f.Add(uint64(1), uint64(7), uint8(0), uint8(0), false)
	f.Add(uint64(2), uint64(11), uint8(1), uint8(1), true)
	f.Add(uint64(3), uint64(13), uint8(2), uint8(2), false)
	f.Add(uint64(4), uint64(17), uint8(3), uint8(0), true)
	f.Add(uint64(5), uint64(19), uint8(0), uint8(2), false)
	f.Add(uint64(6), uint64(23), uint8(2), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed, suiteSeed uint64, sel, kindSel uint8, greedy bool) {
		suite := fuzzSuite(sel, suiteSeed)
		kind := cost.Kinds[int(kindSel)%len(cost.Kinds)]
		beta := 1.0
		if greedy {
			beta = 0
		}
		// The model dialect (with the redundancy move) rides on sel so
		// every suite shape sees both dialects across the corpus.
		set, redundancy := prog.FullSet, false
		if sel%2 == 1 {
			set, redundancy = prog.ModelSet, true
		}
		opts := Options{Set: set, Cost: kind, Beta: beta, Redundancy: redundancy, Seed: seed}
		ropts := opts
		ropts.LegacyEval = true
		plan, ref := New(suite, opts), New(suite, ropts)
		if plan.Cost() != ref.Cost() {
			t.Fatalf("initial cost: plan %v, reference %v", plan.Cost(), ref.Cost())
		}
		// Uneven chunk sizes exercise Step boundaries at varying phases.
		for _, chunk := range []int64{1, 137, 1000, 7, 2048, 911} {
			usedP, doneP := plan.Step(chunk)
			usedR, doneR := ref.Step(chunk)
			if usedP != usedR || doneP != doneR {
				t.Fatalf("step(%d): plan (%d, %v), reference (%d, %v)",
					chunk, usedP, doneP, usedR, doneR)
			}
			if plan.Cost() != ref.Cost() {
				t.Fatalf("cost diverged after step(%d): plan %v, reference %v",
					chunk, plan.Cost(), ref.Cost())
			}
			if !plan.Program().Equal(ref.Program()) {
				t.Fatalf("programs diverged after step(%d):\nplan: %s\nreference: %s",
					chunk, plan.Program(), ref.Program())
			}
			if plan.MoveStats() != ref.MoveStats() {
				t.Fatalf("move stats diverged after step(%d): plan %+v, reference %+v",
					chunk, plan.MoveStats(), ref.MoveStats())
			}
			if doneP {
				if plan.Solution() == nil || ref.Solution() == nil ||
					!plan.Solution().Equal(ref.Solution()) {
					t.Fatalf("solutions diverged: plan %v, reference %v",
						plan.Solution(), ref.Solution())
				}
				break
			}
		}
		// Both engines must report identical work: the counters follow
		// their definitions, so the plan layer's reuse changes how
		// columns are computed, never what the counters say.
		if ps, rs := plan.EvalStats(), ref.EvalStats(); ps != rs {
			t.Fatalf("eval stats diverged: plan %+v, reference %+v", ps, rs)
		}
		if st := plan.EvalStats(); st.NodesTotal > 0 && st.NodesReevaluated > st.NodesTotal {
			t.Fatalf("impossible reuse stats: %+v", st)
		}
		// The engines' committed columns must describe the final
		// program exactly: compare against a fresh evaluation of the
		// same program.
		var vals [prog.MaxNodes]uint64
		fresh := kind.Of(plan.Program(), suite, vals[:])
		if fresh != plan.Cost() && !plan.minimize {
			t.Fatalf("plan cost %v disagrees with fresh evaluation %v", plan.Cost(), fresh)
		}
	})
}

// TestConcurrentRunsSharedSuite steps independent engine-backed runs
// over one shared suite from many goroutines. Each Run owns its
// engine, journal, and mutator; the suite and OpSet are the only
// shared (read-only) data. Run under -race in make ci, this pins the
// engine's "one run, one engine" ownership story.
func TestConcurrentRunsSharedSuite(t *testing.T) {
	suite := suiteFor(t, "mulq(mulq(x, x), addq(x, y))", 2, 50)
	const workers = 8
	costs := make([]float64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: uint64(w)})
			r.Step(20_000)
			costs[w] = r.Cost()
		}(i)
	}
	wg.Wait()
	// Determinism across the concurrent execution: re-run one of the
	// seeds sequentially and compare.
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 3})
	r.Step(20_000)
	if r.Cost() != costs[3] {
		t.Errorf("concurrent run diverged from sequential replay: %v vs %v", costs[3], r.Cost())
	}
}
