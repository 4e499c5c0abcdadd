package stochsyn

import (
	"errors"
	"fmt"
	"slices"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
	"stochsyn/internal/verify"
)

// Spec is a reference implementation used as a synthesis oracle.
type Spec func(inputs []uint64) uint64

// CEGISResult reports a counterexample-guided synthesis outcome.
type CEGISResult struct {
	// Solved reports whether the final program survived validation.
	Solved bool
	// Program is the final program's textual form.
	Program string
	// Rounds is the number of synthesize-validate iterations run.
	Rounds int
	// Counterexamples lists the inputs added along the way.
	Counterexamples [][]uint64
	// Iterations is the total search iterations across all rounds.
	Iterations int64
	// Cases is the final number of examples (initial + added).
	Cases int
}

// SynthesizeCEGIS runs counterexample-guided synthesis against a
// reference function: synthesize a program from the current examples,
// search for an input where it disagrees with the spec, add any
// counterexample to the examples, and repeat. Synthesis from
// input/output examples alone can overfit (the paper treats any
// program matching the examples as a solution); this loop upgrades it
// to probabilistic equivalence with the spec.
//
// numCases seeds the initial example set (as in ProblemFromFunc);
// maxRounds bounds the refinement iterations; validation uses 4096
// random probes plus the corner grid per round. Options.Budget applies
// per round.
func SynthesizeCEGIS(spec Spec, numInputs, numCases, maxRounds int, opts Options) (CEGISResult, error) {
	if maxRounds <= 0 {
		return CEGISResult{}, errors.New("stochsyn: maxRounds must be positive")
	}
	problem, err := ProblemFromFunc(spec, numInputs, numCases, opts.Seed+1)
	if err != nil {
		return CEGISResult{}, err
	}
	var res CEGISResult
	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		roundOpts := opts
		roundOpts.Seed = opts.Seed + uint64(round)*0x9e3779b97f4a7c15 + 1
		sres, err := Synthesize(problem, roundOpts)
		res.Iterations += sres.Iterations
		if err != nil {
			return res, err
		}
		if !sres.Solved {
			res.Cases = problem.NumCases()
			return res, nil // timed out on the current examples
		}
		p, err := prog.Parse(sres.Program, numInputs)
		if err != nil {
			return res, fmt.Errorf("stochsyn: internal: solution unparsable: %w", err)
		}
		cx := verify.Against(p, verify.Oracle(spec), 4096, roundOpts.Seed^0xc2b2ae3d27d4eb4f)
		if cx == nil {
			res.Solved = true
			res.Program = sres.Program
			res.Cases = problem.NumCases()
			return res, nil
		}
		// Add the counterexample and refine on a fresh problem: the
		// copied cases plus the new one. The last round's suite stays as
		// it was, so nothing derived from it (the plan engine's recipe
		// cache files folds by suite) can be served for the new cases.
		res.Counterexamples = append(res.Counterexamples, cx.Inputs)
		problem = &Problem{suite: &testcase.Suite{
			NumInputs: problem.suite.NumInputs,
			Cases: append(slices.Clip(problem.suite.Cases), testcase.Case{
				Inputs: cx.Inputs,
				Output: spec(cx.Inputs),
			}),
		}}
	}
	res.Cases = problem.NumCases()
	return res, nil
}
