// Package server implements synthd, the synthesis-as-a-service
// subsystem: a JSON-over-HTTP API for submitting synthesis jobs, a
// bounded job queue feeding a worker-pool scheduler, per-job
// cancellation via context plumbing down to the search inner loop, an
// LRU result cache keyed by a canonical (problem, strategy, seed)
// hash, and graceful drain-with-deadline shutdown. cmd/synthd wraps
// it in a daemon; internal/server/client is the matching Go client.
package server

import (
	"errors"
	"fmt"

	"stochsyn"
	"stochsyn/internal/prog"
	"stochsyn/internal/sygusif"
)

// ErrBadSpec tags job-spec level errors (no problem source given, two
// problem sources given, malformed SyGuS text, ...). The HTTP layer
// maps it — along with stochsyn.ErrInvalidOptions and
// stochsyn.ErrInvalidProblem — to 400 Bad Request.
var ErrBadSpec = errors.New("bad job spec")

// JobSpec is the body of POST /v1/jobs: what to synthesize, how, and
// under which budgets.
type JobSpec struct {
	// Problem names the synthesis problem; exactly one source must be
	// set.
	Problem ProblemSpec `json:"problem"`
	// Options configures the search; zero values select the library
	// defaults (adaptive strategy, Hamming cost, Beta 1, full
	// dialect, 10M iterations, seed 1).
	Options OptionsSpec `json:"options"`
	// TimeoutMS, when positive, bounds the job's wall-clock run time;
	// a job past its deadline finishes with status "cancelled".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ProblemSpec describes a synthesis problem. Exactly one of Expr,
// Examples, or Sygus must be set.
type ProblemSpec struct {
	// Expr is a reference expression in the library's program
	// notation (e.g. "andq(x, subq(x, 1))"); the server samples
	// NumCases test cases from it, deterministically in CaseSeed.
	Expr string `json:"expr,omitempty"`
	// Inputs is the input arity (required with Expr).
	Inputs int `json:"inputs,omitempty"`
	// NumCases is the number of sampled cases (default 100, at most
	// MaxNumCases, with Expr).
	NumCases int `json:"num_cases,omitempty"`
	// CaseSeed seeds case generation (default 1, with Expr).
	CaseSeed uint64 `json:"case_seed,omitempty"`

	// Examples lists explicit input/output examples.
	Examples []Example `json:"examples,omitempty"`

	// Sygus is the text of a SyGuS-IF problem (the PBE bitvector
	// subset, as accepted by synth -sl).
	Sygus string `json:"sygus,omitempty"`
}

// Example is one explicit input/output example.
type Example struct {
	Inputs []uint64 `json:"inputs"`
	Output uint64   `json:"output"`
}

// OptionsSpec mirrors stochsyn.Options field for field in JSON form.
type OptionsSpec struct {
	Cost     string  `json:"cost,omitempty"`
	Beta     float64 `json:"beta,omitempty"`
	Greedy   bool    `json:"greedy,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Budget   int64   `json:"budget,omitempty"`
	Dialect  string  `json:"dialect,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Workers requests per-job parallelism for the doubling-tree
	// executor; the server caps it by its worker budget (see
	// Config.WorkerBudget). Results are bit-identical regardless of
	// the cap, so caching stays sound.
	Workers int `json:"workers,omitempty"`
}

// options converts the wire form to stochsyn.Options.
func (s OptionsSpec) options() stochsyn.Options {
	return stochsyn.Options{
		Cost:     stochsyn.CostFunction(s.Cost),
		Beta:     s.Beta,
		Greedy:   s.Greedy,
		Strategy: s.Strategy,
		Budget:   s.Budget,
		Dialect:  stochsyn.Dialect(s.Dialect),
		Seed:     s.Seed,
		Workers:  s.Workers,
	}
}

// Build resolves the spec into a problem and normalized options,
// validating both. Errors wrap ErrBadSpec, stochsyn.ErrInvalidProblem,
// or stochsyn.ErrInvalidOptions.
func (s JobSpec) Build() (*stochsyn.Problem, stochsyn.Options, error) {
	p, err := s.Problem.build()
	if err != nil {
		return nil, stochsyn.Options{}, err
	}
	opts, err := s.Options.options().Normalized()
	if err != nil {
		return nil, stochsyn.Options{}, err
	}
	if s.TimeoutMS < 0 {
		return nil, stochsyn.Options{}, fmt.Errorf("%w: negative timeout_ms %d", ErrBadSpec, s.TimeoutMS)
	}
	return p, opts, nil
}

// MaxNumCases caps problem.num_cases. The server generates an expr
// problem's cases itself, so without a cap a few bytes of spec could
// ask for gigabytes of suite before the job is even queued. The cap
// sits below the 161K one-input examples a MaxSpecBytes body can carry
// (about 26 bytes each), so num_cases asks for no more cases than an
// examples spec could send.
const MaxNumCases = 100_000

func (s ProblemSpec) build() (*stochsyn.Problem, error) {
	sources := 0
	for _, set := range []bool{s.Expr != "", len(s.Examples) > 0, s.Sygus != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("%w: exactly one of problem.expr, problem.examples, problem.sygus is required", ErrBadSpec)
	}
	switch {
	case s.Expr != "":
		if s.Inputs <= 0 {
			return nil, fmt.Errorf("%w: problem.inputs must be positive with problem.expr", ErrBadSpec)
		}
		ref, err := prog.Parse(s.Expr, s.Inputs)
		if err != nil {
			return nil, fmt.Errorf("%w: bad problem.expr: %v", ErrBadSpec, err)
		}
		numCases := s.NumCases
		if numCases == 0 {
			numCases = 100
		}
		if numCases > MaxNumCases {
			return nil, fmt.Errorf("%w: problem.num_cases %d exceeds the limit of %d", ErrBadSpec, numCases, MaxNumCases)
		}
		seed := s.CaseSeed
		if seed == 0 {
			seed = 1
		}
		return stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return ref.Output(in) }, s.Inputs, numCases, seed)
	case len(s.Examples) > 0:
		if s.NumCases != 0 || s.CaseSeed != 0 {
			return nil, fmt.Errorf("%w: num_cases/case_seed apply only to expr problems", ErrBadSpec)
		}
		inputs := s.Inputs
		if inputs == 0 {
			inputs = len(s.Examples[0].Inputs)
		}
		cases := make([]stochsyn.Case, len(s.Examples))
		for i, e := range s.Examples {
			cases[i] = stochsyn.Case{Inputs: e.Inputs, Output: e.Output}
		}
		return stochsyn.NewProblem(inputs, cases)
	default:
		p, err := sygusif.Parse(s.Sygus)
		if err != nil {
			return nil, fmt.Errorf("%w: bad problem.sygus: %v", ErrBadSpec, err)
		}
		cases := make([]stochsyn.Case, 0, p.Suite.Len())
		for _, c := range p.Suite.Cases {
			cases = append(cases, stochsyn.Case{Inputs: c.Inputs, Output: c.Output})
		}
		return stochsyn.NewProblem(p.Suite.NumInputs, cases)
	}
}
