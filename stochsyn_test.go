package stochsyn

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/search"
)

func selectSpec(in []uint64) uint64 {
	return (in[0] & in[1]) | (^in[0] & in[2])
}

func TestProblemFromFunc(t *testing.T) {
	p, err := ProblemFromFunc(selectSpec, 3, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs() != 3 || p.NumCases() != 50 {
		t.Errorf("problem shape: %d inputs, %d cases", p.NumInputs(), p.NumCases())
	}
	for _, c := range p.Cases() {
		if c.Output != selectSpec(c.Inputs) {
			t.Fatal("case output mismatch")
		}
	}
}

func TestProblemFromFuncErrors(t *testing.T) {
	if _, err := ProblemFromFunc(selectSpec, MaxInputs+1, 10, 1); err == nil {
		t.Error("accepted too many inputs")
	}
	if _, err := ProblemFromFunc(selectSpec, 3, 0, 1); err == nil {
		t.Error("accepted zero cases")
	}
}

func TestNewProblem(t *testing.T) {
	p, err := NewProblem(2, []Case{
		{Inputs: []uint64{1, 2}, Output: 3},
		{Inputs: []uint64{5, 5}, Output: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCases() != 2 {
		t.Error("case count wrong")
	}
	// Arity mismatch.
	if _, err := NewProblem(2, []Case{{Inputs: []uint64{1}, Output: 0}}); err == nil {
		t.Error("accepted wrong-arity case")
	}
	if _, err := NewProblem(2, nil); err == nil {
		t.Error("accepted empty problem")
	}
}

func TestCasesCopied(t *testing.T) {
	cases := []Case{{Inputs: []uint64{1, 2}, Output: 3}, {Inputs: []uint64{4, 5}, Output: 9}}
	p, err := NewProblem(2, cases)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Cases()
	cases[0].Inputs[0] = 99
	cases[1].Inputs[1] = 98
	if !reflect.DeepEqual(p.Cases(), want) {
		t.Error("NewProblem aliases caller storage")
	}
	got := p.Cases()
	got[0].Inputs[0] = 77
	if !reflect.DeepEqual(p.Cases(), want) {
		t.Error("Cases returns aliased storage")
	}
	// Inputs are rows of one backing array, in the problem and in each
	// copy Cases returns; appending to one row must not reach the next.
	got = p.Cases()
	_ = append(got[0].Inputs, 0xdead)
	_ = append(p.suite.Cases[0].Inputs, 0xdead)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(p.Cases(), want) {
		t.Error("appending to one case's Inputs overwrote the next case")
	}
}

func TestSynthesizeDefaults(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("xor not synthesized in %d iterations", res.Iterations)
	}
	prog, err := ParseProgram(res.Program, 2)
	if err != nil {
		t.Fatalf("solution %q does not parse: %v", res.Program, err)
	}
	if !prog.Matches(p) {
		t.Error("solution does not match the problem")
	}
}

func TestSynthesizeStrategies(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"naive", "luby", "adaptive", "pluby", "fixed:50000", "exp:1000:2", "innerouter:1000:2"} {
		res, err := Synthesize(p, Options{Strategy: strat, Beta: 2, Budget: 4_000_000, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !res.Solved {
			t.Errorf("%s failed to synthesize hd01", strat)
			continue
		}
		prog, err := ParseProgram(res.Program, 1)
		if err != nil {
			t.Fatalf("%s solution unparsable: %v", strat, err)
		}
		if !prog.Matches(p) {
			t.Errorf("%s solution does not match", strat)
		}
	}
}

func TestSynthesizeModelDialect(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return (in[0] << 1) | in[0] }, 1, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(p, Options{Dialect: Model, Budget: 1_000_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("model dialect failed on or(shl(x), x)")
	}
	if strings.ContainsAny(res.Program, "q") {
		// Model mnemonics (and/or/xor/not/shl/shr) contain no 'q'.
		t.Errorf("model solution uses full-dialect ops: %s", res.Program)
	}
}

func TestSynthesizeCostFunctions(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] | in[1] }, 2, 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range []CostFunction{Hamming, IncorrectTests, LogDiff} {
		beta := 1.0
		if cf == IncorrectTests {
			beta = 0.05 // the incorrect-tests scale is much smaller
		}
		res, err := Synthesize(p, Options{Cost: cf, Beta: beta, Budget: 4_000_000, Seed: 8})
		if err != nil {
			t.Fatalf("%s: %v", cf, err)
		}
		if !res.Solved {
			t.Errorf("cost %s failed on x|y", cf)
		}
	}
}

func TestSynthesizeOptionErrors(t *testing.T) {
	p, _ := ProblemFromFunc(func(in []uint64) uint64 { return in[0] }, 1, 10, 1)
	if _, err := Synthesize(p, Options{Cost: "bogus"}); err == nil {
		t.Error("accepted bogus cost")
	}
	if _, err := Synthesize(p, Options{Strategy: "bogus"}); err == nil {
		t.Error("accepted bogus strategy")
	}
	if _, err := Synthesize(p, Options{Dialect: "bogus"}); err == nil {
		t.Error("accepted bogus dialect")
	}
	if _, err := Synthesize(p, Options{Budget: -1}); err == nil {
		t.Error("accepted negative budget")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p, _ := ProblemFromFunc(func(in []uint64) uint64 { return in[0] + in[1] }, 2, 40, 9)
	r1, err := Synthesize(p, Options{Seed: 5, Budget: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(p, Options{Seed: 5, Budget: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || r1.Program != r2.Program {
		t.Error("same-seed synthesis diverged")
	}
}

func TestParseProgramAndRun(t *testing.T) {
	prog, err := ParseProgram("orq(andq(x, y), andq(notq(x), z))", 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Run(0xF0, 0xAA, 0x55)
	if err != nil {
		t.Fatal(err)
	}
	want := selectSpec([]uint64{0xF0, 0xAA, 0x55})
	if got != want {
		t.Errorf("Run = %#x, want %#x", got, want)
	}
	if prog.Size() != 4 {
		t.Errorf("Size = %d, want 4", prog.Size())
	}
	if _, err := prog.Run(1, 2); err == nil {
		t.Error("accepted wrong arity")
	}
	if _, err := ParseProgram("frob(x)", 1); err == nil {
		t.Error("accepted bogus program text")
	}
}

func TestMatchesArityGuard(t *testing.T) {
	p1, _ := ProblemFromFunc(func(in []uint64) uint64 { return in[0] }, 1, 10, 1)
	prog, _ := ParseProgram("addq(x, y)", 2)
	if prog.Matches(p1) {
		t.Error("arity-mismatched program matched")
	}
}

func TestPropertySolutionsAlwaysMatch(t *testing.T) {
	// Whatever Synthesize returns as solved must verify against the
	// problem.
	f := func(seed uint64) bool {
		p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] &^ in[1] }, 2, 30, seed)
		if err != nil {
			return false
		}
		res, err := Synthesize(p, Options{Seed: seed%100 + 1, Budget: 1_000_000})
		if err != nil {
			return false
		}
		if !res.Solved {
			return true // timeouts are legitimate
		}
		prog, err := ParseProgram(res.Program, 2)
		if err != nil {
			return false
		}
		return prog.Matches(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestSolutionSharingAConstantParses is the seed of
// TestPropertySolutionsAlwaysMatch whose solution uses 0x800000000 in
// four places: printed inline it would parse back as 17 body nodes,
// past MaxBody, so the printer binds the constant once.
func TestSolutionSharingAConstantParses(t *testing.T) {
	const seed = 0xa5d1214a3ef1e9ed
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] &^ in[1] }, 2, 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(p, Options{Seed: seed%100 + 1, Budget: 1_000_000})
	if err != nil || !res.Solved {
		t.Fatalf("Synthesize = %+v, %v; want solved", res, err)
	}
	prog, err := ParseProgram(res.Program, 2)
	if err != nil {
		t.Fatalf("solution %q does not parse: %v", res.Program, err)
	}
	if !prog.Matches(p) || prog.Size() != 14 || strings.Count(res.Program, "0x800000000") != 1 {
		t.Errorf("solution %q: %d nodes, matches=%v; want 14 nodes with 0x800000000 bound once",
			res.Program, prog.Size(), prog.Matches(p))
	}
}

func TestOptimizeShrinksProgram(t *testing.T) {
	// Specify x*3 via a deliberately bloated but correct start
	// program; optimization should find something smaller, and the
	// result must stay correct.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] * 3 }, 1, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	start := "addq(addq(x, x), mulq(x, 1))" // 4 body nodes
	res, err := Optimize(p, start, Options{Beta: 1, Budget: 2_000_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartSize != 4 {
		t.Errorf("StartSize = %d, want 4", res.StartSize)
	}
	if res.Size > res.StartSize {
		t.Errorf("optimization grew the program: %d -> %d", res.StartSize, res.Size)
	}
	best, err := ParseProgram(res.Program, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Matches(p) {
		t.Error("optimized program no longer matches")
	}
	if res.Improved && res.Size >= 4 {
		t.Error("Improved flag inconsistent with sizes")
	}
}

func TestOptimizeContextCancel(t *testing.T) {
	// A pre-cancelled context must stop the optimization almost
	// immediately (at the first CancelCheckEvery poll), report
	// Cancelled, and still return a correct program.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] * 3 }, 1, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeContext(ctx, p, "addq(addq(x, x), mulq(x, 1))",
		Options{Beta: 1, Budget: 50_000_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set for a cancelled context")
	}
	if res.Iterations >= 50_000_000 {
		t.Errorf("cancelled run consumed the whole budget (%d iterations)", res.Iterations)
	}
	if res.Seed != 3 {
		t.Errorf("Seed = %d, want 3", res.Seed)
	}
	if res.Duration <= 0 {
		t.Error("Duration not recorded")
	}
	best, err := ParseProgram(res.Program, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Matches(p) {
		t.Error("cancelled optimization returned a non-matching program")
	}
}

func TestOptimizeContextNeverCancelledMatchesOptimize(t *testing.T) {
	// With a context that never expires, OptimizeContext must be
	// bit-identical to Optimize.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] * 3 }, 1, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Beta: 1, Budget: 300_000, Seed: 3}
	a, err := Optimize(p, "addq(addq(x, x), mulq(x, 1))", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OptimizeContext(context.Background(), p, "addq(addq(x, x), mulq(x, 1))", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program != b.Program || a.Size != b.Size || a.Iterations != b.Iterations {
		t.Errorf("OptimizeContext diverged from Optimize: %+v vs %+v", a, b)
	}
}

func TestOptimizeRejectsWrongStart(t *testing.T) {
	p, _ := ProblemFromFunc(func(in []uint64) uint64 { return in[0] * 3 }, 1, 30, 10)
	if _, err := Optimize(p, "addq(x, 1)", Options{}); err == nil {
		t.Error("accepted a non-matching start program")
	}
	if _, err := Optimize(p, "frob(x)", Options{}); err == nil {
		t.Error("accepted an unparsable start program")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o, err := Options{}.normalize()
	if err != nil || o.Beta != 1 {
		t.Errorf("zero options: beta %g, err %v (want default 1)", o.Beta, err)
	}
	o, err = (Options{Greedy: true}).normalize()
	if err != nil || o.Beta != 0 || !o.Greedy {
		t.Errorf("greedy options: beta %g, err %v (want beta 0)", o.Beta, err)
	}
	if _, err := (Options{Greedy: true, Beta: 2}).normalize(); err == nil {
		t.Error("accepted Greedy together with a non-zero Beta")
	}
	if _, err := (Options{Beta: -1}).normalize(); err == nil {
		t.Error("accepted a negative beta")
	}
	if _, err := (Options{Workers: -1}).normalize(); err == nil {
		t.Error("accepted negative workers")
	}
}

func TestGreedyReachableFromPublicAPI(t *testing.T) {
	// Regression: Options once documented Beta == 0 as greedy descent
	// but normalize() silently remapped it to 1, so greedy was
	// unreachable through the public API. Options.Greedy must plumb a
	// zero temperature all the way into the search: a naive greedy
	// synthesis must replay the beta-0 search exactly.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] & in[1] }, 2, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	const budget, seed = 50_000, 9
	res, err := Synthesize(p, Options{Greedy: true, Strategy: "naive", Budget: budget, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	factory := search.NewFactory(p.suite, search.Options{
		Set: prog.FullSet, Cost: cost.Hamming, Beta: 0, Seed: seed,
	})
	oracle := factory(0).(*search.Run)
	used, done := oracle.Step(budget)
	if res.Iterations != used || res.Solved != done {
		t.Errorf("greedy synthesis (iters %d, solved %v) does not replay the beta-0 search (iters %d, solved %v)",
			res.Iterations, res.Solved, used, done)
	}
}

func TestGreedyNeverAcceptsCostIncrease(t *testing.T) {
	// The defining property of greedy descent, checked on the same
	// search configuration the public greedy path constructs.
	p, err := ProblemFromFunc(selectSpec, 3, 50, 21)
	if err != nil {
		t.Fatal(err)
	}
	o, err := (Options{Greedy: true}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	run := search.New(p.suite, search.Options{
		Set: prog.FullSet, Cost: cost.Hamming, Beta: o.Beta, Seed: 13, TraceCosts: true,
	})
	run.Step(150_000)
	trace := run.Trace()
	for i := 1; i < len(trace); i++ {
		if trace[i].Cost > trace[i-1].Cost {
			t.Fatalf("greedy run accepted a cost increase: %g -> %g", trace[i-1].Cost, trace[i].Cost)
		}
	}
}

func TestSynthesizeWorkersDeterministic(t *testing.T) {
	// The concurrent tree executor must reproduce the sequential
	// result bit for bit through the public API.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return (in[0] << 1) | in[0] }, 1, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Dialect: Model, Budget: 1_000_000, Seed: 2}
	seq, err := Synthesize(p, base)
	if err != nil {
		t.Fatal(err)
	}
	withWorkers := base
	withWorkers.Workers = 4
	conc, err := Synthesize(p, withWorkers)
	if err != nil {
		t.Fatal(err)
	}
	seq.Duration, conc.Duration = 0, 0 // wall-clock time is not deterministic
	if !reflect.DeepEqual(seq, conc) {
		t.Errorf("Workers changed the result:\n  sequential %+v\n  concurrent %+v", seq, conc)
	}
}

func TestSynthesizeParallel(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeParallel(p, Options{Beta: 2, Budget: 8_000_000, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("parallel synthesis failed in %d iterations", res.Iterations)
	}
	if res.Iterations > 8_000_000 {
		t.Errorf("budget exceeded: %d", res.Iterations)
	}
	prog, err := ParseProgram(res.Program, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Matches(p) {
		t.Error("parallel solution does not match")
	}
}

func TestSynthesizeParallelRespectsBudgetWhenUnsolvable(t *testing.T) {
	// A spec needing more than the tiny budget: all workers must stop
	// once the shared pool is drained, with total <= budget.
	p, err := ProblemFromFunc(func(in []uint64) uint64 {
		return in[0]*in[0]*in[0] + 17*in[0] + in[1]*in[1]
	}, 2, 80, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeParallel(p, Options{Beta: 1, Budget: 50_000, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("surprisingly solved")
	}
	if res.Iterations > 50_000 {
		t.Errorf("iterations %d exceed the 50k budget", res.Iterations)
	}
	if res.Iterations < 40_000 {
		t.Errorf("iterations %d suspiciously below the budget", res.Iterations)
	}
}

func TestSynthesizeParallelMatchesSequential(t *testing.T) {
	// For the tree strategies, SynthesizeParallel is a pure wall-clock
	// optimization: the Result must equal Synthesize's exactly.
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return (in[0] << 1) | in[0] }, 1, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Dialect: Model, Budget: 1_000_000, Seed: 2}
	seq, err := Synthesize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SynthesizeParallel(p, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq.Duration, par.Duration = 0, 0 // wall-clock time is not deterministic
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel adaptive diverged from sequential:\n  %+v\n  %+v", seq, par)
	}
}

func TestSynthesizeParallelNaive(t *testing.T) {
	p, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeParallel(p, Options{Strategy: "naive", Beta: 2, Budget: 8_000_000, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("parallel naive failed in %d iterations", res.Iterations)
	}
	if res.Iterations > 8_000_000 {
		t.Errorf("budget exceeded: %d", res.Iterations)
	}
	if res.Searches < 1 || res.Searches > 4 {
		t.Errorf("Searches = %d, want between 1 and the 4 workers", res.Searches)
	}
	prog, err := ParseProgram(res.Program, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Matches(p) {
		t.Error("parallel naive solution does not match")
	}
}

// BenchmarkNewProblem copies a 1000-case, 2-input example set into a
// problem, as synthd does for every examples spec.
func BenchmarkNewProblem(b *testing.B) {
	src, err := ProblemFromFunc(func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 1000, 9)
	if err != nil {
		b.Fatal(err)
	}
	cases := src.Cases()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewProblem(2, cases); err != nil {
			b.Fatal(err)
		}
	}
}
