package search

import (
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
)

// TestPruneSolvesAndIsSound runs a pruned search (with the concrete
// re-check enabled) on a standard problem: it must still solve it, it
// must have actually pruned something along the way, the evaluated
// count must shrink by exactly the rejections, and not a single
// rejection may be disproved by the concrete evaluator.
func TestPruneSolvesAndIsSound(t *testing.T) {
	suite := suiteFor(t, "andq(x, subq(x, 1))", 1, 100)
	r := New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: 3,
		Prune: true, PruneVerify: true})
	if _, done := r.Step(3_000_000); !done {
		t.Fatal("hd01 not solved within 3M iterations with pruning on")
	}
	if !cost.Solves(r.Solution(), suite, solveVals[:]) {
		t.Error("solution does not match the suite")
	}
	st := r.MoveStats()
	if st.PruneChecked == 0 || st.PruneRejected == 0 {
		t.Errorf("pruner idle: checked=%d rejected=%d", st.PruneChecked, st.PruneRejected)
	}
	if st.Evaluated+st.PruneRejected != st.PruneChecked {
		t.Errorf("counter mismatch: evaluated=%d + rejected=%d != checked=%d",
			st.Evaluated, st.PruneRejected, st.PruneChecked)
	}
	if st.PruneUnsound != 0 {
		t.Fatalf("UNSOUND: %d pruned proposals solved the suite concretely", st.PruneUnsound)
	}
}

// TestPruneEngineLegacyBitIdentical pins that the plan engine and the
// reference engine (LegacyEval) agree under the prune gate and its
// PruneVerify re-check: with pruning on, both must walk the identical
// trajectory and land on identical move and evaluation stats.
func TestPruneEngineLegacyBitIdentical(t *testing.T) {
	suite := suiteFor(t, "xorq(x, shrq(x, 1))", 1, 32)
	mk := func(legacy bool) *Run {
		return New(suite, Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: 11,
			Prune: true, PruneVerify: true, LegacyEval: legacy})
	}
	pl, ref := mk(false), mk(true)
	const budget = 200_000
	up, dp := pl.Step(budget)
	ur, dr := ref.Step(budget)
	if up != ur || dp != dr {
		t.Fatalf("paths diverged: plan (%d, %v) vs reference (%d, %v)", up, dp, ur, dr)
	}
	if pl.Cost() != ref.Cost() {
		t.Fatalf("costs diverged: %g vs %g", pl.Cost(), ref.Cost())
	}
	if sp, sr := pl.MoveStats(), ref.MoveStats(); sp != sr {
		t.Fatalf("stats diverged:\n  plan:      %+v\n  reference: %+v", sp, sr)
	}
	if ep, er := pl.EvalStats(), ref.EvalStats(); ep != er {
		t.Fatalf("eval stats diverged:\n  plan:      %+v\n  reference: %+v", ep, er)
	}
	if !pl.Program().Equal(ref.Program()) {
		t.Fatalf("programs diverged:\n  plan:      %s\n  reference: %s", pl.Program(), ref.Program())
	}
}

// TestPruneOffIsNilCheck pins the knob contract: Prune=false leaves
// the prune counters at zero and evaluates every valid proposal.
func TestPruneOffIsNilCheck(t *testing.T) {
	suite := suiteFor(t, "or(shl(x), x)", 1, 16)
	r := New(suite, Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7})
	r.Step(50_000)
	st := r.MoveStats()
	if st.PruneChecked != 0 || st.PruneRejected != 0 || st.PruneUnsound != 0 {
		t.Errorf("prune counters moved with the knob off: %+v", st)
	}
	if st.Evaluated == 0 {
		t.Error("Evaluated counter did not move")
	}
}
