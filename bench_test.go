package stochsyn

// This file regenerates the paper's evaluation artifacts as Go
// benchmarks, one per table and figure (see DESIGN.md's experiment
// index). Headline quantities are attached to each benchmark via
// b.ReportMetric, so `go test -bench=. -benchmem` both exercises the
// harness and prints the reproduced numbers. Scales are reduced from
// the paper's (100M-iteration budgets, 50 trials, 1600 problems) to
// keep the suite laptop-sized; cmd/bench runs the same experiments at
// arbitrary scale.

import (
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"stochsyn/internal/cost"
	"stochsyn/internal/experiment"
	"stochsyn/internal/markov"
	"stochsyn/internal/mutate"
	"stochsyn/internal/prog"
	"stochsyn/internal/restart"
	"stochsyn/internal/search"
	"stochsyn/internal/stats"
	"stochsyn/internal/superopt"
	"stochsyn/internal/testcase"
)

// benchSuite builds a 100-case suite for a reference expression.
func benchSuite(b *testing.B, expr string, numInputs int) *testcase.Suite {
	b.Helper()
	ref := prog.MustParse(expr, numInputs)
	rng := rand.New(rand.NewPCG(1234, 5678))
	return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) },
		numInputs, 100, rng)
}

// BenchmarkSearchIterationRate tracks the Section 3.2 reference point:
// the paper reports a mean of 339K search-loop iterations per second
// per core; the its/sec metric here is directly comparable.
func BenchmarkSearchIterationRate(b *testing.B) {
	// A hard spec so runs do not finish early: every iteration does
	// full propose/evaluate work. Consumed iterations are counted
	// exactly (a finished run is replaced by a fresh one).
	suite := benchSuite(b, "mulq(mulq(x, x), addq(x, 0x1234567))", 1)
	r := search.New(suite, search.Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: 1})
	b.ResetTimer()
	var consumed int64
	seed := uint64(2)
	for consumed < int64(b.N) {
		used, done := r.Step(int64(b.N) - consumed)
		consumed += used
		if done {
			r = search.New(suite, search.Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 2, Seed: seed})
			seed++
		}
	}
	b.ReportMetric(float64(consumed)/b.Elapsed().Seconds(), "iters/sec")
}

// BenchmarkEvalProgram measures single-case program evaluation, the
// innermost kernel of the search.
func BenchmarkEvalProgram(b *testing.B) {
	p := prog.MustParse("orq(andq(x, y), andq(notq(x), z))", 3)
	in := []uint64{0xF0F0, 0x1234, 0x5678}
	var vals [prog.MaxNodes]uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval(in, vals[:])
	}
}

// BenchmarkCostHamming measures a full 100-case cost evaluation.
func BenchmarkCostHamming(b *testing.B) {
	suite := benchSuite(b, "addq(x, y)", 2)
	p := prog.MustParse("orq(x, y)", 2)
	var vals [prog.MaxNodes]uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost.Hamming.Of(p, suite, vals[:])
	}
}

// BenchmarkMutateApply measures one proposal as the search loop makes
// it: open an edit journal, apply a move in place, roll it back.
func BenchmarkMutateApply(b *testing.B) {
	m := mutate.New(prog.FullSet, nil, false)
	rng := rand.New(rand.NewPCG(1, 2))
	cur := prog.MustParse("orq(andq(x, y), andq(notq(x), z))", 3)
	var jr prog.Journal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.BeginEdit(&jr)
		m.Apply(cur, rng)
		cur.Rollback()
	}
}

// BenchmarkFig1PlateauChart regenerates the Figure 1 plateau chart:
// many naive runs of one benchmark problem binned into a cost ×
// log-iteration density. Reported metrics: share of runs finishing and
// the modal plateau count.
func BenchmarkFig1PlateauChart(b *testing.B) {
	bench := experiment.SyGuSBenchmark(1, 6)
	for i := 0; i < b.N; i++ {
		res := experiment.PlateauChart(experiment.PlateauConfig{
			Problem: bench.Problems[4], // hd05: propagate rightmost 1
			Set:     bench.Set,
			Cost:    cost.Hamming,
			Beta:    1,
			Runs:    24,
			Budget:  400_000,
			Seed:    1,
		})
		b.ReportMetric(float64(res.Finished)/float64(len(res.Runs)), "finish-rate")
	}
}

// BenchmarkFig4MarkovPrediction regenerates Figure 4: measured
// synthesis times of or(shl(x), x) against times sampled from the
// estimated popular-state Markov chain. The KS metric is the
// two-sample distance (small = the distributions agree, as the figure
// shows).
func BenchmarkFig4MarkovPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.MarkovExperiment(experiment.MarkovConfig{
			Trials: 60, Budget: 300_000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KS, "ks-distance")
		b.ReportMetric(res.Empirical.Coverage, "state-coverage")
	}
}

// BenchmarkFig6DistributionFits regenerates the Figure 6 census: the
// best-fit family of the synthesis-time distribution across benchmark
// problems, with log-normal expected to dominate.
func BenchmarkFig6DistributionFits(b *testing.B) {
	bench := experiment.SyGuSBenchmark(1, 10)
	for i := 0; i < b.N; i++ {
		res := experiment.Fits(experiment.FitConfig{
			Bench: bench, Problems: 6, Cost: cost.Hamming, Beta: 2,
			Trials: 20, Budget: 400_000, Seed: 2, MinSuccesses: 10,
		})
		census := res.Census()
		total := 0
		for _, n := range census {
			total += n
		}
		if total > 0 {
			b.ReportMetric(float64(census["lognormal"])/float64(total), "lognormal-frac")
			b.ReportMetric(float64(census["geometric"])/float64(total), "geometric-frac")
		}
	}
}

// BenchmarkFig7HeavyTailPlateau regenerates the Figure 7 chart shape
// on a harder problem and reports the tail ratio (mean/median of
// finishing times), the paper's heavy-tail diagnostic.
func BenchmarkFig7HeavyTailPlateau(b *testing.B) {
	suite := benchSuite(b, "subq(orq(x, 7), -1)", 1)
	for i := 0; i < b.N; i++ {
		res := experiment.PlateauChart(experiment.PlateauConfig{
			Problem: experiment.Problem{Name: "(x|7)+1", Suite: suite},
			Set:     prog.FullSet,
			Cost:    cost.Hamming,
			Beta:    2,
			Runs:    24,
			Budget:  2_000_000,
			Seed:    3,
		})
		var times []float64
		for _, r := range res.Runs {
			if r.Finished {
				times = append(times, float64(r.FinishIter))
			}
		}
		if len(times) > 2 {
			b.ReportMetric(stats.TailRatio(times), "tail-ratio")
		}
	}
}

// BenchmarkFig10ModelChains regenerates the Section 5.2.1 comparison:
// adaptive versus classic Luby on the two model Markov chains. The
// paper reports adaptive 31% faster on chain (a) and 46% slower on
// chain (b); the metrics give the measured adaptive/luby mean ratios
// (< 1 good on A, > 1 expected on B).
func BenchmarkFig10ModelChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.ModelChains(experiment.ModelChainConfig{
			Algorithms: []string{"luby:100", "adaptive:100"},
			Trials:     40,
			Budget:     2_000_000,
			Seed:       1,
		})
		means := map[string]float64{}
		for _, r := range results {
			means[r.Chain[:1]+r.Algorithm] = r.MeanIters
		}
		b.ReportMetric(means["aadaptive:100"]/means["aluby:100"], "ratio-chain-a")
		b.ReportMetric(means["badaptive:100"]/means["bluby:100"], "ratio-chain-b")
	}
}

// BenchmarkFig11PlateauIncorrectTests regenerates Figure 11: the
// plateau chart under the incorrect-test-cases cost function at
// beta = 1, where the high effective temperature keeps the search on
// the initial plateau (cost ~ number of test cases).
func BenchmarkFig11PlateauIncorrectTests(b *testing.B) {
	bench := experiment.SyGuSBenchmark(1, 6)
	for i := 0; i < b.N; i++ {
		res := experiment.PlateauChart(experiment.PlateauConfig{
			Problem: bench.Problems[0],
			Set:     bench.Set,
			Cost:    cost.IncorrectTests,
			Beta:    1,
			Runs:    16,
			Budget:  300_000,
			Seed:    4,
		})
		b.ReportMetric(float64(res.Finished)/float64(len(res.Runs)), "finish-rate")
	}
}

// BenchmarkFig13BetaSweep regenerates one panel of Figure 13 (failure
// rate against beta per algorithm) and Table 1's optimal betas on a
// benchmark subset. Metrics give each algorithm's best failure rate.
func BenchmarkFig13BetaSweep(b *testing.B) {
	bench := experiment.SyGuSBenchmark(1, 6)
	algos := []string{"naive", "luby", "adaptive"}
	for i := 0; i < b.N; i++ {
		res := experiment.BetaSweep(experiment.BetaSweepConfig{
			Bench:      bench,
			Algorithms: algos,
			Costs:      []cost.Kind{cost.Hamming},
			Betas:      experiment.DefaultBetaGrid(cost.Hamming, 5),
			Trials:     3,
			Budget:     400_000,
			Seed:       1,
		})
		for _, algo := range algos {
			c := res.Curve(algo, cost.Hamming)
			best := 1.0
			for _, fr := range c.FailRate {
				if !math.IsNaN(fr) && fr < best {
					best = fr
				}
			}
			b.ReportMetric(best, algo+"-best-failrate")
			b.ReportMetric(c.OptimalBeta(), algo+"-opt-beta")
		}
	}
}

// runCompare executes the main comparison (the data behind Figures
// 14-16 and Tables 2 and 3) for one cost function at benchmark scale
// small enough for a benchmark run.
func runCompare(b *testing.B, kind cost.Kind, beta func(algo string) float64) *experiment.CompareResult {
	b.Helper()
	bench := experiment.SyGuSBenchmark(1, 8)
	return experiment.Compare(experiment.CompareConfig{
		Bench:      bench,
		Algorithms: []string{"naive", "luby", "adaptive"},
		Costs:      []cost.Kind{kind},
		Beta:       func(algo string, _ cost.Kind) float64 { return beta(algo) },
		Trials:     6,
		Budget:     1_500_000,
		Seed:       9,
	})
}

// betaForCompare mirrors the paper's Table 1 structure: the naive
// algorithm prefers a higher beta than the restart strategies.
func betaForCompare(kind cost.Kind) func(string) float64 {
	return func(algo string) float64 {
		hi, lo := 4.0, 2.0
		if kind == cost.IncorrectTests {
			hi, lo = 0.1, 0.03
		}
		if algo == "naive" {
			return hi
		}
		return lo
	}
}

// reportCompare attaches Table 2/3-style metrics: the median-rank
// speedup of adaptive over each baseline and each algorithm's
// unsolved fraction.
func reportCompare(b *testing.B, res *experiment.CompareResult, kind cost.Kind) {
	b.Helper()
	n := 8
	for _, algo := range []string{"naive", "luby"} {
		if sp := res.SpeedupAt(algo, "adaptive", kind, n/2, 3); !math.IsNaN(sp) {
			b.ReportMetric(sp, algo+"/adaptive-speedup")
		}
	}
	for _, algo := range []string{"naive", "luby", "adaptive"} {
		b.ReportMetric(res.UnsolvedFraction(algo, kind), algo+"-unsolved")
	}
	b.ReportMetric(res.SolvedAtLeastOnce(), "solved-once-frac")
}

// BenchmarkFig14CactusHamming regenerates the Figure 14 data (cactus
// plot, Hamming cost) plus its Table 2/3 summaries.
func BenchmarkFig14CactusHamming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCompare(b, cost.Hamming, betaForCompare(cost.Hamming))
		reportCompare(b, res, cost.Hamming)
	}
}

// BenchmarkFig15CactusIncorrectTests regenerates the Figure 15 data
// (incorrect-test-cases cost).
func BenchmarkFig15CactusIncorrectTests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCompare(b, cost.IncorrectTests, betaForCompare(cost.IncorrectTests))
		reportCompare(b, res, cost.IncorrectTests)
	}
}

// BenchmarkFig16CactusLogDiff regenerates the Figure 16 data
// (log-difference cost).
func BenchmarkFig16CactusLogDiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCompare(b, cost.LogDiff, betaForCompare(cost.LogDiff))
		reportCompare(b, res, cost.LogDiff)
	}
}

// BenchmarkSuperoptPipeline measures the Section 6.1 scraping pipeline
// end to end (corpus generation through benchmark sampling) and
// reports the attrition counters.
func BenchmarkSuperoptPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := superopt.DefaultOptions(uint64(i + 1))
		opts.CorpusFunctions = 150
		opts.SampleSize = 25
		probs, stats, err := superopt.Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Fragments), "fragments")
		b.ReportMetric(float64(stats.Signatures), "signatures")
		b.ReportMetric(float64(len(probs)), "problems")
	}
}

// BenchmarkFig5TransitionDiagram measures estimation of the
// popular-state chain and DOT export (the Figure 5 artifact).
func BenchmarkFig5TransitionDiagram(b *testing.B) {
	suite := func() *testcase.Suite {
		ref := prog.MustParse("or(shl(x), x)", 1)
		rng := rand.New(rand.NewPCG(7, 8))
		return testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 1, 16, rng)
	}()
	for i := 0; i < b.N; i++ {
		emp, err := markov.Build(suite, markov.BuildOptions{
			Search: search.Options{
				Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1,
				Redundancy: true, Seed: 11,
			},
			Trials: 30, MaxIters: 200_000, TopK: 35,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := markov.WriteDOT(io.Discard, emp.Chain, emp.States); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(emp.States)), "states")
	}
}

// BenchmarkAdaptiveVsNaiveHeavyTail is the headline end-to-end
// comparison on a heavy-tailed synthesis problem through the public
// API: expected iterations (penalized means over seeds) for the naive
// and adaptive algorithms. The adaptive/naive ratio < 1 reproduces the
// paper's core speedup claim.
func BenchmarkAdaptiveVsNaiveHeavyTail(b *testing.B) {
	problem, err := ProblemFromFunc(func(in []uint64) uint64 { return (in[0] | 7) + 1 }, 1, 100, 99)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 3_000_000
	const seeds = 8
	for i := 0; i < b.N; i++ {
		meanOf := func(strategy string) float64 {
			var times []float64
			for seed := uint64(1); seed <= seeds; seed++ {
				res, err := Synthesize(problem, Options{
					Strategy: strategy, Beta: 2, Budget: budget, Seed: seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Solved {
					times = append(times, float64(res.Iterations))
				}
			}
			return stats.PenalizedMean(times, seeds, budget)
		}
		naive := meanOf("naive")
		adaptive := meanOf("adaptive")
		b.ReportMetric(adaptive/naive, "adaptive/naive-ratio")
	}
}

// BenchmarkLubyStrategyOverhead isolates strategy bookkeeping: the
// pure scheduling cost of the adaptive tree on instant fake searches
// is negligible next to search iterations.
func BenchmarkLubyStrategyOverhead(b *testing.B) {
	factory := func(id uint64) search.Search {
		return neverSearch{}
	}
	strat := restart.NewAdaptive(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat.Run(factory, 4096)
	}
}

// neverSearch consumes budget without finishing.
type neverSearch struct{}

func (neverSearch) Step(budget int64) (int64, bool) { return budget, false }
func (neverSearch) Cost() float64                   { return 1 }

// BenchmarkRedundancyMoveAblation quantifies the Section 4 redundancy
// (canonicalization) move on the model problem: mean iterations to
// solve or(shl(x), x) with and without the move. The ratio metric is
// with/without (< 1 means the move helps).
func BenchmarkRedundancyMoveAblation(b *testing.B) {
	ref := prog.MustParse("or(shl(x), x)", 1)
	rng := rand.New(rand.NewPCG(55, 66))
	suite := testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) }, 1, 16, rng)
	meanIters := func(redundancy bool) float64 {
		var times []float64
		const trials = 40
		for t := 0; t < trials; t++ {
			r := search.New(suite, search.Options{
				Set: prog.ModelSet, Cost: cost.Hamming, Beta: 1,
				Redundancy: redundancy, Seed: uint64(t + 1),
			})
			if used, done := r.Step(500_000); done {
				times = append(times, float64(used))
			}
		}
		return stats.PenalizedMean(times, 40, 500_000)
	}
	for i := 0; i < b.N; i++ {
		with := meanIters(true)
		without := meanIters(false)
		b.ReportMetric(with/without, "with/without-ratio")
	}
}

// BenchmarkOptimizeMode measures STOKE-style size minimization: nodes
// saved per million iterations starting from translated fragments.
func BenchmarkOptimizeMode(b *testing.B) {
	opts := superopt.DefaultOptions(77)
	opts.CorpusFunctions = 100
	opts.SampleSize = 6
	opts.TestCases = 50
	probs, _, err := superopt.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		before, after := 0, 0
		for _, p := range probs {
			if p.Reference == nil {
				continue
			}
			r := search.New(p.Suite, search.Options{
				Set: prog.FullSet, Cost: cost.Hamming, Beta: 1,
				Seed: 3, Init: p.Reference, MinimizeSize: true,
			})
			r.Step(500_000)
			before += p.Reference.BodyLen()
			after += r.Best().BodyLen()
		}
		if before > 0 {
			b.ReportMetric(float64(before-after)/float64(before), "size-saved-frac")
		}
	}
}

// BenchmarkMoveWeightAblation compares the paper's uniform move
// selection against an instruction-heavy distribution on a benchmark
// problem, reporting the mean-iterations ratio (uniform = 1 baseline).
func BenchmarkMoveWeightAblation(b *testing.B) {
	suite := benchSuite(b, "orq(andq(x, y), andq(notq(x), z))", 3)
	meanIters := func(weights map[mutate.Move]float64) float64 {
		var times []float64
		const trials = 10
		for t := 0; t < trials; t++ {
			r := search.New(suite, search.Options{
				Set: prog.FullSet, Cost: cost.Hamming, Beta: 2,
				Seed: uint64(t + 1), MoveWeights: weights,
			})
			if used, done := r.Step(2_000_000); done {
				times = append(times, float64(used))
			}
		}
		return stats.PenalizedMean(times, 10, 2_000_000)
	}
	for i := 0; i < b.N; i++ {
		uniform := meanIters(nil)
		instrHeavy := meanIters(map[mutate.Move]float64{
			mutate.MoveInstruction: 4,
			mutate.MoveOpcode:      1,
			mutate.MoveOperand:     1,
		})
		b.ReportMetric(instrHeavy/uniform, "instr-heavy/uniform")
	}
}
