// Command bench regenerates the paper's evaluation artifacts
// (Figures 1, 4, 6, 7, 10, 11, 13, 14-16; Tables 1-3) at a
// configurable scale. Each experiment prints a textual report and can
// also emit CSV for external plotting.
//
// Experiments:
//
//	bench -exp betasweep  -bench sygus            Figure 13 + Table 1
//	bench -exp compare    -bench superopt         Figures 14-16 + Tables 2-3
//	bench -exp plateau    -problem hd05 -beta 1   Figures 1/7/11
//	bench -exp fits       -bench sygus            Figure 6
//	bench -exp model                              Figure 10 / Section 5.2.1
//	bench -exp markov                             Figure 4
//	bench -exp exec      -workers 8               concurrent tree executor counters
//	bench -exp eval                               incremental-eval engine vs legacy path
//	bench -exp eqsat                              stochastic vs eqsat-extraction vs hybrid
//	bench -exp all                                everything at smoke scale
//
// The defaults are sized to finish in minutes on a laptop; raise
// -trials, -budget, and -problems toward the paper's scale (50 trials,
// 100M iterations, full benchmarks) as time allows.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/experiment"
	"stochsyn/internal/prog"
	"stochsyn/internal/restart"
	"stochsyn/internal/search"
	"stochsyn/internal/superopt"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: betasweep, compare, plateau, fits, model, markov, exec, eval, eqsat, all")
		benchSel = flag.String("bench", "sygus", "benchmark: sygus or superopt")
		problems = flag.Int("problems", 12, "number of benchmark problems")
		names    = flag.String("names", "", "comma-separated problem names to keep (after loading)")
		trials   = flag.Int("trials", 10, "trials per configuration (paper: 50)")
		budget   = flag.Int64("budget", 2_000_000, "iteration budget per trial (paper: 100M)")
		betaPts  = flag.Int("betapoints", 7, "beta grid points for the sweep")
		algos    = flag.String("algos", "naive,luby,adaptive", "comma-separated strategy specs")
		costsSel = flag.String("costs", "hamming,inctests,logdiff", "comma-separated cost functions")
		problem  = flag.String("problem", "hd05", "problem name for -exp plateau")
		beta     = flag.Float64("beta", 1, "beta for plateau/fits experiments")
		costSel  = flag.String("cost", "hamming", "cost function for plateau experiment")
		runs     = flag.Int("runs", 40, "runs for plateau chart")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		par      = flag.Int("parallelism", 0, "max concurrent trials (0 = GOMAXPROCS)")
		workers  = flag.Int("workers", 0, "worker pool size for -exp exec (0 = GOMAXPROCS)")
		csvPath  = flag.String("csv", "", "also write CSV to this file")
	)
	flag.Parse()

	var algoList []string
	for _, a := range strings.Split(*algos, ",") {
		if a = strings.TrimSpace(a); a != "" {
			algoList = append(algoList, a)
		}
	}
	var costList []cost.Kind
	for _, c := range strings.Split(*costsSel, ",") {
		k, err := cost.ParseKind(strings.TrimSpace(c))
		if err != nil {
			fatal(err)
		}
		costList = append(costList, k)
	}

	var csvw io.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csvw = f
	}

	cfg := benchConfig{
		benchSel: *benchSel, problems: *problems, trials: *trials,
		budget: *budget, betaPts: *betaPts, algos: algoList, costs: costList,
		problem: *problem, beta: *beta, costSel: *costSel, runs: *runs,
		seed: *seed, par: *par, csv: csvw, names: *names, workers: *workers,
	}

	switch *exp {
	case "betasweep":
		runBetaSweep(cfg)
	case "compare":
		runCompare(cfg)
	case "plateau":
		runPlateau(cfg)
	case "fits":
		runFits(cfg)
	case "model":
		runModel(cfg)
	case "markov":
		runMarkov(cfg)
	case "cutoff":
		runCutoff(cfg)
	case "failures":
		runFailures(cfg)
	case "exec":
		runExec(cfg)
	case "eval":
		runEval(cfg)
	case "eqsat":
		runEqSat(cfg)
	case "all":
		fmt.Println("== model chains (Figure 10) ==")
		runModel(cfg)
		fmt.Println("\n== markov prediction (Figure 4) ==")
		runMarkov(cfg)
		fmt.Println("\n== plateau chart (Figures 1/7/11) ==")
		runPlateau(cfg)
		fmt.Println("\n== distribution fits (Figure 6) ==")
		runFits(cfg)
		fmt.Println("\n== beta sweep (Figure 13 / Table 1) ==")
		runBetaSweep(cfg)
		fmt.Println("\n== comparison (Figures 14-16 / Tables 2-3) ==")
		runCompare(cfg)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

type benchConfig struct {
	benchSel string
	problems int
	trials   int
	budget   int64
	betaPts  int
	algos    []string
	costs    []cost.Kind
	problem  string
	beta     float64
	costSel  string
	runs     int
	seed     uint64
	par      int
	workers  int
	csv      io.Writer
	names    string
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// filterNames keeps only the named problems when -names is given.
func filterNames(b *experiment.Benchmark, names string) *experiment.Benchmark {
	if names == "" {
		return b
	}
	keep := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		keep[strings.TrimSpace(n)] = true
	}
	out := &experiment.Benchmark{Name: b.Name, Set: b.Set}
	for _, p := range b.Problems {
		if keep[p.Name] {
			out.Problems = append(out.Problems, p)
		}
	}
	if len(out.Problems) == 0 {
		fatal(fmt.Errorf("no benchmark problems match -names %q", names))
	}
	return out
}

func loadBench(cfg benchConfig) *experiment.Benchmark {
	return filterNames(loadBenchRaw(cfg), cfg.names)
}

func loadBenchRaw(cfg benchConfig) *experiment.Benchmark {
	switch {
	case cfg.benchSel == "sygus":
		n := cfg.problems
		if cfg.names != "" {
			n = 50 // load the full pool before filtering by name
		}
		return experiment.SyGuSBenchmark(cfg.seed, n)
	case cfg.benchSel == "superopt":
		b, stats, err := experiment.SuperoptBenchmark(cfg.seed, cfg.problems)
		if err != nil {
			fatal(err)
		}
		fmt.Println("superopt pipeline:", stats)
		return b
	case strings.HasPrefix(cfg.benchSel, "probdir:"):
		// A directory of .prob files written by cmd/genbench.
		dir := strings.TrimPrefix(cfg.benchSel, "probdir:")
		names, suites, err := superopt.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		b := &experiment.Benchmark{Name: "probdir", Set: prog.FullSet}
		for i := range names {
			b.Problems = append(b.Problems, experiment.Problem{Name: names[i], Suite: suites[i]})
		}
		if cfg.problems > 0 && len(b.Problems) > cfg.problems {
			b.Problems = b.Problems[:cfg.problems]
		}
		if len(b.Problems) == 0 {
			fatal(fmt.Errorf("no .prob files in %s", dir))
		}
		return b
	}
	fatal(fmt.Errorf("unknown benchmark %q (want sygus, superopt, or probdir:<path>)", cfg.benchSel))
	return nil
}

func runBetaSweep(cfg benchConfig) {
	bench := loadBench(cfg)
	fmt.Printf("beta sweep on %s: algos=%v trials=%d budget=%d\n",
		bench, cfg.algos, cfg.trials, cfg.budget)
	// The grid depends on the cost function's scale; sweep each cost
	// separately and merge.
	res := &experiment.BetaSweepResult{Bench: bench.Name}
	for _, kind := range cfg.costs {
		sub := experiment.BetaSweep(experiment.BetaSweepConfig{
			Bench:       bench,
			Algorithms:  cfg.algos,
			Costs:       []cost.Kind{kind},
			Betas:       experiment.DefaultBetaGrid(kind, cfg.betaPts),
			Trials:      cfg.trials,
			Budget:      cfg.budget,
			Seed:        cfg.seed,
			Parallelism: cfg.par,
		})
		res.Curves = append(res.Curves, sub.Curves...)
	}
	for _, kind := range cfg.costs {
		fmt.Println()
		res.Plot(os.Stdout, kind, 64, 14)
	}
	fmt.Println("\nTable 1: optimal beta")
	res.OptimalBetaTable(os.Stdout)
	if cfg.csv != nil {
		if err := res.CSV(cfg.csv); err != nil {
			fatal(err)
		}
	}
}

func runCompare(cfg benchConfig) {
	bench := loadBench(cfg)
	fmt.Printf("comparison on %s: algos=%v trials=%d budget=%d\n",
		bench, cfg.algos, cfg.trials, cfg.budget)

	// First find the optimal beta per (algorithm, cost) on a subset,
	// as the paper does, then compare at those betas.
	sweepBench := bench.Subset(0.34, cfg.seed)
	optimal := map[string]float64{}
	for _, kind := range cfg.costs {
		sub := experiment.BetaSweep(experiment.BetaSweepConfig{
			Bench:       sweepBench,
			Algorithms:  cfg.algos,
			Costs:       []cost.Kind{kind},
			Betas:       experiment.DefaultBetaGrid(kind, cfg.betaPts),
			Trials:      maxInt(2, cfg.trials/3),
			Budget:      cfg.budget,
			Seed:        cfg.seed ^ 0x517cc1b727220a95,
			Parallelism: cfg.par,
		})
		for _, algo := range cfg.algos {
			optimal[algo+"|"+kind.String()] = sub.Curve(algo, kind).OptimalBeta()
		}
	}
	fmt.Println("tuned betas:")
	for _, k := range slices.Sorted(maps.Keys(optimal)) {
		fmt.Printf("  %-24s %g\n", k, optimal[k])
	}

	res := experiment.Compare(experiment.CompareConfig{
		Bench:      bench,
		Algorithms: cfg.algos,
		Costs:      cfg.costs,
		Beta: func(algo string, kind cost.Kind) float64 {
			return optimal[algo+"|"+kind.String()]
		},
		Trials:      cfg.trials,
		Budget:      cfg.budget,
		Seed:        cfg.seed,
		Parallelism: cfg.par,
	})
	for _, kind := range cfg.costs {
		fmt.Println()
		res.PlotCactus(os.Stdout, kind, cfg.algos, 64, 14)
	}
	n := len(bench.Problems)
	ranks := []int{(n + 1) / 2, (3*n + 2) / 4}
	fmt.Println("\nTable 2: speedups at ordinal ranks (vs adaptive baseline)")
	res.SpeedupTable(os.Stdout, cfg.algos, cfg.costs, ranks, 3)
	fmt.Println("\nTable 3: fraction unsolved within budget")
	res.UnsolvedTable(os.Stdout, cfg.algos, cfg.costs)
	fmt.Printf("\nsolved at least once (any algorithm/cost): %.1f%%\n", 100*res.SolvedAtLeastOnce())
	if cfg.csv != nil {
		if err := res.CSV(cfg.csv); err != nil {
			fatal(err)
		}
	}
}

func runPlateau(cfg benchConfig) {
	bench := loadBench(cfg)
	var prob *experiment.Problem
	names := make([]string, len(bench.Problems))
	for i := range bench.Problems {
		names[i] = bench.Problems[i].Name
		if prob == nil && names[i] == cfg.problem {
			prob = &bench.Problems[i]
		}
	}
	if prob == nil {
		fatal(fmt.Errorf("problem %q not among the %d loaded problems (%s); raise -problems or pick one of those",
			cfg.problem, len(names), strings.Join(names, ", ")))
	}
	kind, err := cost.ParseKind(cfg.costSel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plateau chart for %s (cost=%s beta=%g, %d runs x %d iters)\n",
		prob.Name, kind, cfg.beta, cfg.runs, cfg.budget)
	res := experiment.PlateauChart(experiment.PlateauConfig{
		Problem: *prob, Set: bench.Set, Cost: kind, Beta: cfg.beta,
		Runs: cfg.runs, Budget: cfg.budget, Seed: cfg.seed, Parallelism: cfg.par,
	})
	res.Report(os.Stdout)
	if cfg.csv != nil {
		if err := res.CSV(cfg.csv); err != nil {
			fatal(err)
		}
	}
}

func runFits(cfg benchConfig) {
	bench := loadBench(cfg)
	kind, err := cost.ParseKind(cfg.costSel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("distribution fits on %s (cost=%s beta=%g, %d trials per problem)\n",
		bench, kind, cfg.beta, cfg.trials)
	res := experiment.Fits(experiment.FitConfig{
		Bench: bench, Problems: minInt(10, cfg.problems), Cost: kind, Beta: cfg.beta,
		Trials: cfg.trials, Budget: cfg.budget, Seed: cfg.seed, Parallelism: cfg.par,
	})
	res.Report(os.Stdout)
	if cfg.csv != nil {
		if err := res.CSV(cfg.csv); err != nil {
			fatal(err)
		}
	}
}

func runModel(cfg benchConfig) {
	algos := []string{"naive", "luby:100", "adaptive:100"}
	fmt.Printf("model chains: algos=%v trials=%d budget=%d\n", algos, cfg.trials*4, cfg.budget)
	res := experiment.ModelChains(experiment.ModelChainConfig{
		Algorithms: algos, Trials: cfg.trials * 4, Budget: cfg.budget,
		Seed: cfg.seed, Parallelism: cfg.par,
	})
	experiment.ReportModelChains(os.Stdout, res)
}

func runCutoff(cfg benchConfig) {
	bench := loadBench(cfg)
	kind, err := cost.ParseKind(cfg.costSel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optimal-cutoff ablation on %s (cost=%s beta=%g)\n", bench, kind, cfg.beta)
	results := experiment.CutoffAblation(experiment.CutoffConfig{
		Bench: bench, Cost: kind, Beta: cfg.beta,
		PilotRuns: cfg.trials * 2, Trials: cfg.trials,
		Budget: cfg.budget, Seed: cfg.seed, Parallelism: cfg.par,
	})
	experiment.ReportCutoff(os.Stdout, results)
}

func runFailures(cfg benchConfig) {
	opts := superopt.DefaultOptions(cfg.seed)
	if cfg.problems > 0 {
		opts.SampleSize = cfg.problems
		opts.CorpusFunctions = 60 + 8*cfg.problems
	}
	probs, stats, err := superopt.Build(opts)
	if err != nil {
		fatal(err)
	}
	fmt.Println("superopt pipeline:", stats)
	fmt.Printf("failure analysis (Section 7.4): %d problems, %d trials x %d iterations each\n",
		len(probs), cfg.trials, cfg.budget)
	res := experiment.FailureAnalysis(experiment.FailureConfig{
		Problems: probs, Trials: cfg.trials, Budget: cfg.budget,
		Beta: cfg.beta, Seed: cfg.seed, Parallelism: cfg.par,
	})
	res.Report(os.Stdout)
}

// runExec compares the sequential doubling-tree oracle with the
// concurrent executor on real benchmark problems and prints the
// executor's counters (ExecStats). The Result columns must agree
// exactly between the two — the executor reproduces the sequential
// schedule bit for bit — so the interesting output is the wall-clock
// ratio and the speculation/utilization accounting.
func runExec(cfg benchConfig) {
	bench := loadBench(cfg)
	kind, err := cost.ParseKind(cfg.costSel)
	if err != nil {
		fatal(err)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("concurrent tree executor on %s: workers=%d budget=%d cost=%s beta=%g t0=%d\n",
		bench, workers, cfg.budget, kind, cfg.beta, restart.DefaultT0)
	fmt.Printf("%-12s %-8s  %6s %9s %5s  %8s %8s  %6s %6s %6s  %9s %9s %9s %6s %5s\n",
		"problem", "algo", "solved", "iters", "srch",
		"seq", "conc", "passes", "steps", "skip",
		"spent", "spec", "strand", "swaps", "util")
	for i := range bench.Problems {
		p := bench.Problems[i]
		factory := search.NewFactory(p.Suite, search.Options{
			Set:  bench.Set,
			Cost: kind,
			Beta: cfg.beta,
			Seed: cfg.seed,
		})
		for _, adaptive := range []bool{true, false} {
			algo := "pluby"
			if adaptive {
				algo = "adaptive"
			}
			t0 := time.Now()
			seq := (&restart.Tree{T0: restart.DefaultT0, Adaptive: adaptive}).
				Run(factory, cfg.budget)
			seqDur := time.Since(t0)
			t0 = time.Now()
			conc := (&restart.Tree{T0: restart.DefaultT0, Adaptive: adaptive, Workers: workers}).
				Run(factory, cfg.budget)
			concDur := time.Since(t0)
			if seq.Solved != conc.Solved || seq.Iterations != conc.Iterations || seq.Searches != conc.Searches {
				fatal(fmt.Errorf("%s/%s: concurrent result diverged from sequential oracle:\n  seq  %+v\n  conc %+v",
					p.Name, algo, seq, conc))
			}
			st := conc.Exec
			if st == nil {
				fatal(fmt.Errorf("%s/%s: concurrent run reported no executor stats", p.Name, algo))
			}
			fmt.Printf("%-12s %-8s  %6v %9d %5d  %8s %8s  %6d %6d %6d  %9d %9d %9d %6d %4.0f%%\n",
				p.Name, algo, conc.Solved, conc.Iterations, conc.Searches,
				seqDur.Round(time.Millisecond), concDur.Round(time.Millisecond),
				st.Passes, st.Steps, st.Skipped,
				st.BudgetSpent, st.Speculated, st.BudgetStranded,
				st.Swaps, 100*st.Utilization)
		}
	}
}

func runMarkov(cfg benchConfig) {
	fmt.Printf("markov prediction for or(shl(x), x): trials=%d\n", cfg.trials*6)
	res, err := experiment.MarkovExperiment(experiment.MarkovConfig{
		Trials: cfg.trials * 6, Budget: minI64(cfg.budget, 500_000), Seed: cfg.seed,
	})
	if err != nil {
		fatal(err)
	}
	res.Report(os.Stdout)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
