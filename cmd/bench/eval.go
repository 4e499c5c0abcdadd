package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"stochsyn/internal/cost"
	"stochsyn/internal/prog"
	"stochsyn/internal/search"
	"stochsyn/internal/testcase"
)

// evalCase is one row of the incremental-evaluation benchmark: a
// reference expression, its arity, and the suite size.
type evalCase struct {
	Name   string `json:"name"`
	Expr   string `json:"-"`
	Inputs int    `json:"inputs"`
	Cases  int    `json:"cases"`

	LegacyItersPerSec float64 `json:"legacy_iters_per_sec"`
	PlanItersPerSec   float64 `json:"plan_iters_per_sec"`
	PlanSpeedup       float64 `json:"plan_speedup"`
	NodeReuseRate     float64 `json:"node_reuse_rate"`
	CaseSkipRate      float64 `json:"case_skip_rate"`
}

// evalReport is the BENCH_eval.json payload.
type evalReport struct {
	Date               string      `json:"date"`
	Budget             int64       `json:"budget_per_path"`
	Seed               uint64      `json:"seed"`
	Rows               []*evalCase `json:"rows"`
	GeomeanPlanSpeedup float64     `json:"geomean_plan_speedup"`
}

// evalArm selects which evaluation path measureEval drives.
type evalArm uint8

const (
	armLegacy evalArm = iota // from-scratch reference engine (search.Options.LegacyEval)
	armPlan                  // compiled plan engine (the default path)
)

func (a evalArm) String() string {
	if a == armLegacy {
		return "legacy"
	}
	return "plan"
}

// evalPrint is the trajectory fingerprint of one measured path: the
// restart count plus the cumulative evaluation-work counters. Two runs
// of the same arm must reproduce it exactly, and the two arms must
// agree with each other — they are required to walk bit-identical
// trajectories and count their work by the same definitions, so any
// divergence voids the comparison and the benchmark refuses to write a
// report.
type evalPrint struct {
	restarts uint64
	stats    prog.EvalStats
}

// runEval compares the compiled plan engine against the from-scratch
// reference engine ("legacy", search.Options.LegacyEval) on the
// standing benchmark problems: same seed, same options, so both paths
// walk the identical (bit-equal) trajectory and the measurement
// isolates evaluation cost. Every row is measured twice per arm; the
// benchmark aborts if the repeats or the two arms' fingerprints
// diverge. The report is printed and written to BENCH_eval.json.
func runEval(cfg benchConfig) {
	rows := []*evalCase{
		{Name: "searchloop", Expr: "mulq(mulq(x, x), addq(x, y))", Inputs: 2, Cases: 50},
		{Name: "hd01", Expr: "andq(x, subq(x, 1))", Inputs: 1, Cases: 100},
		{Name: "select", Expr: "orq(andq(x, y), andq(notq(x), z))", Inputs: 3, Cases: 50},
		{Name: "smallsuite", Expr: "xorq(x, shrq(x, 1))", Inputs: 1, Cases: 16},
	}
	budget := cfg.budget
	fmt.Printf("plan engine vs from-scratch reference engine (budget=%d per row, seed=%d)\n",
		budget, cfg.seed)
	fmt.Printf("%-12s %6s %6s  %11s %11s %7s  %7s %7s\n",
		"problem", "inputs", "cases", "legacy it/s", "plan it/s", "pln/leg", "reuse", "skip")
	report := evalReport{
		Date:   time.Now().UTC().Format(time.RFC3339),
		Budget: budget,
		Seed:   cfg.seed,
		Rows:   rows,
	}
	logPlan, n := 0.0, 0
	for _, row := range rows {
		ref := prog.MustParse(row.Expr, row.Inputs)
		rng := rand.New(rand.NewPCG(cfg.seed, 0xda7a5e7))
		suite := testcase.Generate(func(in []uint64) uint64 { return ref.Output(in) },
			row.Inputs, row.Cases, rng)
		opts := search.Options{Set: prog.FullSet, Cost: cost.Hamming, Beta: 1, Seed: cfg.seed}

		var prints [2]evalPrint
		row.LegacyItersPerSec = measureTwice(row.Name, suite, opts, budget, armLegacy, &prints[armLegacy])
		row.PlanItersPerSec = measureTwice(row.Name, suite, opts, budget, armPlan, &prints[armPlan])
		if prints[armLegacy] != prints[armPlan] {
			fatal(fmt.Errorf("bench eval: %s: legacy and plan fingerprints diverged\nlegacy: %+v\nplan:   %+v",
				row.Name, prints[armLegacy], prints[armPlan]))
		}
		row.PlanSpeedup = row.PlanItersPerSec / row.LegacyItersPerSec
		stats := prints[armPlan].stats
		if stats.NodesTotal > 0 {
			row.NodeReuseRate = 1 - float64(stats.NodesReevaluated)/float64(stats.NodesTotal)
		}
		if stats.CasesTotal > 0 {
			row.CaseSkipRate = 1 - float64(stats.CasesEvaluated)/float64(stats.CasesTotal)
		}
		logPlan += math.Log(row.PlanSpeedup)
		n++
		fmt.Printf("%-12s %6d %6d  %11.0f %11.0f %6.2fx  %6.1f%% %6.1f%%\n",
			row.Name, row.Inputs, row.Cases,
			row.LegacyItersPerSec, row.PlanItersPerSec, row.PlanSpeedup,
			100*row.NodeReuseRate, 100*row.CaseSkipRate)
	}
	report.GeomeanPlanSpeedup = math.Exp(logPlan / float64(n))
	fmt.Printf("geomean speedup: plan %.2fx over legacy\n", report.GeomeanPlanSpeedup)

	f, err := os.Create("BENCH_eval.json")
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	fmt.Println("wrote BENCH_eval.json")
}

// measureTwice runs measureEval twice and checks the two passes
// produce the same trajectory fingerprint; a mismatch means the path
// is nondeterministic and the measurement is meaningless, so the
// benchmark aborts. The reported rate is the faster of the two passes
// (both passes do identical logical work, so taking the better clock
// only sheds scheduler noise).
func measureTwice(name string, suite *testcase.Suite, opts search.Options, budget int64, arm evalArm, out *evalPrint) float64 {
	r1 := measureEval(suite, opts, budget, arm, out)
	var second evalPrint
	r2 := measureEval(suite, opts, budget, arm, &second)
	if *out != second {
		fatal(fmt.Errorf("bench eval: %s: %s arm diverged between repeat runs\nfirst:  %+v\nsecond: %+v",
			name, arm, *out, second))
	}
	return math.Max(r1, r2)
}

// measureEval times one search trajectory and returns iterations/sec,
// recording the trajectory fingerprint into print. Solved runs restart
// with a fresh (reseeded) run until the budget is consumed, so all
// paths do identical logical work for a fair clock.
func measureEval(suite *testcase.Suite, opts search.Options, budget int64, arm evalArm, print *evalPrint) float64 {
	opts.LegacyEval = arm == armLegacy
	var done int64
	*print = evalPrint{}
	// flush folds the current run's cumulative engine stats into the
	// fingerprint. EvalStats is cumulative per Run, so it is sampled
	// exactly once per run: just before reseeding, and after the budget
	// is exhausted.
	flush := func(r *search.Run) {
		s := r.EvalStats()
		print.stats.NodesReevaluated += s.NodesReevaluated
		print.stats.NodesTotal += s.NodesTotal
		print.stats.CasesEvaluated += s.CasesEvaluated
		print.stats.CasesTotal += s.CasesTotal
	}
	start := time.Now()
	r := search.New(suite, opts)
	for done < budget {
		used, solved := r.Step(budget - done)
		done += used
		if solved && done < budget {
			flush(r)
			print.restarts++
			o := opts
			o.Seed = opts.Seed + print.restarts*0x9e3779b97f4a7c15
			r = search.New(suite, o)
		}
	}
	flush(r)
	return float64(done) / time.Since(start).Seconds()
}
