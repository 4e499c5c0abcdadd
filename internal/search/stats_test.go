package search

import (
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
)

// TestRunCountersPinned pins, for fixed seeds, what a run reports about
// its own work: the move tallies (MoveStats), the evaluation engine's
// column and case counts (EvalStats) and the plan compiler's counters
// (PlanStats). The values were recorded while GC still compacted inside
// every move; deferring compaction to accepted edits must not move any
// of them, so NodesTotal counts only the nodes a proposal keeps. The
// two 1000-case rows were recorded while the cost path still ran the
// tape one EvalChunk at a time; running it in bound-sized blocks must
// not move them either.
func TestRunCountersPinned(t *testing.T) {
	start := prog.MustParse("addq(addq(x, x), mulq(x, 1))", 1)
	cases := []struct {
		name           string
		expr           string
		inputs, ncases int
		opts           Options
		iters          int64
		moves          Stats
		eval           prog.EvalStats
		plan           plan.Stats
	}{
		{
			name: "full-hamming", expr: "andq(x, subq(x, 1))", inputs: 1, ncases: 10,
			opts:  Options{Cost: cost.Hamming, Beta: 1, Seed: 1},
			iters: 1813,
			moves: Stats{Proposed: [4]int64{605, 613, 595, 0}, Accepted: [4]int64{187, 264, 265, 0}, Evaluated: 1735},
			eval:  prog.EvalStats{NodesReevaluated: 6826, NodesTotal: 18650, CasesEvaluated: 17350, CasesTotal: 17350},
			plan:  plan.Stats{Compiles: 1, Patches: 6826, FusedNodes: 1490},
		},
		{
			name: "full-logdiff", expr: "mulq(mulq(x, x), addq(x, y))", inputs: 2, ncases: 50,
			opts:  Options{Cost: cost.LogDiff, Beta: 2, Seed: 2},
			iters: 3132,
			moves: Stats{Proposed: [4]int64{1029, 1067, 1036, 0}, Accepted: [4]int64{131, 165, 443, 0}, Evaluated: 3120},
			eval:  prog.EvalStats{NodesReevaluated: 6318, NodesTotal: 15409, CasesEvaluated: 152540, CasesTotal: 156000},
			plan:  plan.Stats{Compiles: 1, Patches: 6318, FusedNodes: 1205},
		},
		{
			name: "greedy-incorrect", expr: "xorq(x, shrq(x, 1))", inputs: 1, ncases: 32,
			opts:  Options{Cost: cost.IncorrectTests, Beta: 0, Seed: 5},
			iters: 18070,
			moves: Stats{Proposed: [4]int64{6063, 6027, 5980, 0}, Accepted: [4]int64{1078, 1280, 2462, 0}, Evaluated: 17662},
			eval:  prog.EvalStats{NodesReevaluated: 51740, NodesTotal: 125038, CasesEvaluated: 418672, CasesTotal: 565184},
			plan:  plan.Stats{Compiles: 1, Patches: 51740, FusedNodes: 13786},
		},
		{
			name: "model-redundancy", expr: "or(shl(x), x)", inputs: 1, ncases: 16,
			opts:  Options{Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1, Redundancy: true, Seed: 7},
			iters: 514,
			moves: Stats{Proposed: [4]int64{127, 135, 133, 119}, Accepted: [4]int64{36, 51, 118, 8}, Evaluated: 346},
			eval:  prog.EvalStats{NodesReevaluated: 503, NodesTotal: 1101, CasesEvaluated: 5536, CasesTotal: 5536},
			plan:  plan.Stats{Compiles: 1, Patches: 503, FusedNodes: 167},
		},
		{
			name: "minimize", expr: "mulq(x, 3)", inputs: 1, ncases: 20,
			opts:  Options{Cost: cost.Hamming, Beta: 1, Seed: 3, MinimizeSize: true, Init: start},
			iters: 20000,
			moves: Stats{Proposed: [4]int64{6767, 6595, 6638, 0}, Accepted: [4]int64{1, 249, 4355, 0}, Evaluated: 20000},
			eval:  prog.EvalStats{NodesReevaluated: 38644, NodesTotal: 69642, CasesEvaluated: 338420, CasesTotal: 400000},
			plan:  plan.Stats{Compiles: 1, Patches: 38644, FusedNodes: 4811},
		},
		{
			name: "wide-hamming", expr: "mulq(mulq(x, x), addq(x, y))", inputs: 2, ncases: 1000,
			opts:  Options{Cost: cost.Hamming, Beta: 1, Seed: 11},
			iters: 20000,
			moves: Stats{Proposed: [4]int64{6668, 6618, 6714, 0}, Accepted: [4]int64{431, 1005, 1575, 0}, Evaluated: 18725},
			eval:  prog.EvalStats{NodesReevaluated: 89523, NodesTotal: 221438, CasesEvaluated: 17324160, CasesTotal: 18725000},
			plan:  plan.Stats{Compiles: 1, Patches: 89523, FusedNodes: 7054},
		},
		{
			name: "wide-incorrect", expr: "xorq(x, shrq(x, 1))", inputs: 1, ncases: 1000,
			opts:  Options{Cost: cost.IncorrectTests, Beta: 1, Seed: 13},
			iters: 8784,
			moves: Stats{Proposed: [4]int64{2887, 3061, 2836, 0}, Accepted: [4]int64{2430, 2388, 2537, 0}, Evaluated: 8510},
			eval:  prog.EvalStats{NodesReevaluated: 18562, NodesTotal: 46247, CasesEvaluated: 8051592, CasesTotal: 8510000},
			plan:  plan.Stats{Compiles: 1, Patches: 18562, FusedNodes: 7231},
		},
		{
			name: "interp", expr: "andq(x, subq(x, 1))", inputs: 1, ncases: 10,
			opts:  Options{Cost: cost.Hamming, Beta: 1, Seed: 1, InterpEval: true},
			iters: 1813,
			moves: Stats{Proposed: [4]int64{605, 613, 595, 0}, Accepted: [4]int64{187, 264, 265, 0}, Evaluated: 1735},
			eval:  prog.EvalStats{NodesReevaluated: 6826, NodesTotal: 18650, CasesEvaluated: 17350, CasesTotal: 17350},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New(suiteFor(t, tc.expr, tc.inputs, tc.ncases), tc.opts)
			used, _ := r.Step(20_000)
			if used != tc.iters || r.MoveStats() != tc.moves || r.EvalStats() != tc.eval || r.PlanStats() != tc.plan {
				t.Errorf("got iterations %d\n moves %+v\n eval %+v\n plan %+v\nwant iterations %d\n moves %+v\n eval %+v\n plan %+v",
					used, r.MoveStats(), r.EvalStats(), r.PlanStats(), tc.iters, tc.moves, tc.eval, tc.plan)
			}
		})
	}
}
