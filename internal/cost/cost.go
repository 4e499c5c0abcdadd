// Package cost implements the three cost functions of Section 3.2 of
// the paper — Hamming, incorrect test cases, and log-difference — and
// the β normalization rule β' = β·|test cases|/100. Every cost
// function is zero exactly when the candidate output matches the
// desired output on every test case.
package cost

import (
	"fmt"
	"math"

	"stochsyn/internal/bits"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/testcase"
)

// inf is the rejection sentinel the bounded cost paths return.
var inf = math.Inf(1)

// Kind selects a cost function.
type Kind uint8

const (
	// Hamming is the total number of incorrect bits across all test
	// cases: the Hamming weight of the XOR of desired and candidate
	// outputs.
	Hamming Kind = iota
	// IncorrectTests counts the test cases that are not entirely
	// correct (differ in at least one bit). It avoids artifacts of the
	// Hamming cost but provides less signal.
	IncorrectTests
	// LogDiff interprets outputs as 64-bit signed integers a and b and
	// charges 1 + log2(|a-b|) per differing case. Most useful when the
	// output is numeric.
	LogDiff

	numKinds
)

// Kinds lists all cost function kinds, in the order the paper's
// evaluation presents them.
var Kinds = []Kind{Hamming, IncorrectTests, LogDiff}

// String returns the evaluation section's name for the cost function.
func (k Kind) String() string {
	switch k {
	case Hamming:
		return "hamming"
	case IncorrectTests:
		return "inctests"
	case LogDiff:
		return "logdiff"
	}
	return fmt.Sprintf("cost(%d)", uint8(k))
}

// ParseKind maps a name (as produced by String) to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "hamming":
		return Hamming, nil
	case "inctests", "incorrect", "inc":
		return IncorrectTests, nil
	case "logdiff", "log":
		return LogDiff, nil
	}
	return 0, fmt.Errorf("cost: unknown cost function %q", name)
}

// PerCase returns the cost contribution of a single test case given
// the candidate output got and desired output want.
func (k Kind) PerCase(got, want uint64) float64 {
	switch k {
	case Hamming:
		return float64(bits.Distance(got, want))
	case IncorrectTests:
		if got != want {
			return 1
		}
		return 0
	case LogDiff:
		return bits.LogDiff(got, want)
	}
	panic("cost: invalid kind")
}

// Of evaluates program p on every case of suite s and returns the
// total cost, summed per case in case order like every cost path here,
// so it is bit-equal to OfColumn on p's root column. vals must have
// length >= p.Len(); it is scratch space so the loop performs no
// allocation. The search loop does not call it: it evaluates through
// an engine and OfPlan or OfState.
func (k Kind) Of(p *prog.Program, s *testcase.Suite, vals []uint64) float64 {
	total := 0.0
	for i := range s.Cases {
		c := &s.Cases[i]
		total += k.PerCase(p.Eval(c.Inputs, vals), c.Output)
	}
	return total
}

// OfColumn sums the cost over a complete root-value column (one value
// per suite case, in case order), as produced by the evaluation
// engine's committed matrix. The summation order matches Of exactly,
// so the results are bit-equal. The Kind dispatch is hoisted out of
// the per-case loop: each arm is PerCase's body applied in the same
// case order, so hoisting cannot change the float sum.
func (k Kind) OfColumn(root []uint64, s *testcase.Suite) float64 {
	cases := s.Cases
	total := 0.0
	switch k {
	case Hamming:
		for i := range cases {
			total += float64(bits.Distance(root[i], cases[i].Output))
		}
	case IncorrectTests:
		for i := range cases {
			if root[i] != cases[i].Output {
				total++
			}
		}
	case LogDiff:
		for i := range cases {
			total += bits.LogDiff(root[i], cases[i].Output)
		}
	default:
		panic("cost: invalid kind")
	}
	return total
}

// Source is the column producer OfState consumes: an evaluation engine
// with an active proposal. Both the reference engine (prog.RefEval) and
// the compiled plan engine (plan.State) satisfy it; the cost layer is
// indifferent to how the root column gets computed as long as blocks
// arrive in case order.
type Source interface {
	// Suite returns the test suite the proposal is evaluated against.
	Suite() *testcase.Suite
	// EvalRange computes the proposal for suite cases [c0, c1) and
	// returns the root values for that range.
	EvalRange(c0, c1 int) []uint64
}

// OfState evaluates the engine's active proposal and returns its total
// cost, aborting with +Inf once the partial sum exceeds bound. Because
// per-case costs are non-negative, a partial sum past the bound means
// the proposal is certain to be rejected; the search draws its
// acceptance threshold before evaluating, so the abort never changes a
// decision while skipping most of the work for bad proposals. It pulls
// root values from the engine in EvalChunk-case blocks but sums and
// bound-checks per case in case order, so a total within the bound is
// bit-identical to Of on the proposal program. A non-Inf return implies
// every case block was pulled, which is exactly the precondition of the
// engines' Commit. As in OfColumn, the Kind dispatch runs once per call
// instead of once per case. It is the reference arm's cost path, and
// the per-chunk reference that OfPlan's tests and benchmark compare
// against.
func (k Kind) OfState(e Source, bound float64) float64 {
	s := e.Suite()
	cases := s.Cases
	n := len(cases)
	total := 0.0
	switch k {
	case Hamming:
		for c0 := 0; c0 < n; c0 += prog.EvalChunk {
			c1 := c0 + prog.EvalChunk
			if c1 > n {
				c1 = n
			}
			root := e.EvalRange(c0, c1)
			for i, got := range root {
				total += float64(bits.Distance(got, cases[c0+i].Output))
				if total > bound {
					return inf
				}
			}
		}
	case IncorrectTests:
		for c0 := 0; c0 < n; c0 += prog.EvalChunk {
			c1 := c0 + prog.EvalChunk
			if c1 > n {
				c1 = n
			}
			root := e.EvalRange(c0, c1)
			for i, got := range root {
				if got != cases[c0+i].Output {
					total++
				}
				if total > bound {
					return inf
				}
			}
		}
	case LogDiff:
		for c0 := 0; c0 < n; c0 += prog.EvalChunk {
			c1 := c0 + prog.EvalChunk
			if c1 > n {
				c1 = n
			}
			root := e.EvalRange(c0, c1)
			for i, got := range root {
				total += bits.LogDiff(got, cases[c0+i].Output)
				if total > bound {
					return inf
				}
			}
		}
	default:
		panic("cost: invalid kind")
	}
	return total
}

// OfPlan is OfState specialized to the compiled plan engine: the same
// abort decisions, the same pulled cases and the same returned cost,
// computed with less overhead per case. The tape runs through direct
// calls (no interface dispatch, no per-chunk root reslicing — the root
// column is resolved once), the desired outputs come from the engine's
// dense target column, and the integer arms check the bound once per
// tape run instead of once per case. Per-case costs are non-negative,
// so the partial sum is monotone: a sum that crosses bound mid-chunk
// has still crossed it at the chunk boundary, the same chunks get
// pulled either way, and the same +Inf comes back.
//
// The Hamming and IncorrectTests arms sum in an int (exact: every
// partial sum is far below 2^53, so the final conversion equals the
// per-case float adds of OfState), each tape run's cases in one call of
// hammingSum or mismatchSum (8 cases per instruction on AVX-512), and
// run the tape in blocks sized by the bound. lim is the largest partial sum that does not pass bound
// (sumLimit). From a chunk boundary with partial sum d, the next
// (lim-d)/maxPerCase cases cannot lift the sum past lim, so every
// chunk-boundary check among them would pass; one tape run covers
// them and ends at the first chunk boundary beyond, the first check
// that could fail. The same chunks are pulled and the same checks
// decide as with a check at every EvalChunk boundary. LogDiff sums
// floats, whose per-case bound is not an integer step: it runs the
// tape one chunk at a time and, as OfState does, checks after every
// case, so a proposal past the bound stops paying for math.Log2 at
// the first case that crosses it.
//
// Trajectories and eval-work stats are bit-identical to OfState on
// the same engine.
func (k Kind) OfPlan(e *plan.State, bound float64) float64 {
	n := e.Suite().Len()
	root := e.ProposalRoot()[:n]
	want := e.Targets()[:n]
	switch k {
	case Hamming:
		lim := sumLimit(bound, 64*n)
		d := 0
		for c0 := 0; c0 < n; {
			c1 := blockEnd(c0, n, (lim-d)/64)
			e.RunTape(c0, c1)
			d += hammingSum(root[c0:c1], want[c0:c1])
			if d > lim {
				return inf
			}
			c0 = c1
		}
		return float64(d)
	case IncorrectTests:
		lim := sumLimit(bound, n)
		d := 0
		for c0 := 0; c0 < n; {
			c1 := blockEnd(c0, n, lim-d)
			e.RunTape(c0, c1)
			d += mismatchSum(root[c0:c1], want[c0:c1])
			if d > lim {
				return inf
			}
			c0 = c1
		}
		return float64(d)
	case LogDiff:
		total := 0.0
		for c0 := 0; c0 < n; c0 += prog.EvalChunk {
			c1 := min(c0+prog.EvalChunk, n)
			e.RunTape(c0, c1)
			for c := c0; c < c1; c++ {
				total += bits.LogDiff(root[c], want[c])
				if total > bound {
					return inf
				}
			}
		}
		return total
	}
	panic("cost: invalid kind")
}

// sumLimit returns the largest integer partial sum that does not pass
// bound (float64(d) > bound exactly when d > sumLimit), clamped to
// [-1, maxSum] where maxSum bounds every partial sum: -1 for a negative
// bound (any sum passes it), maxSum for a bound no sum can pass,
// +Inf, or NaN (which no comparison passes).
func sumLimit(bound float64, maxSum int) int {
	switch {
	case !(bound < float64(maxSum)):
		return maxSum
	case bound < 0:
		return -1
	}
	return int(bound) // 0 <= bound < maxSum: truncation is floor
}

// blockEnd returns the end of the tape run that starts at chunk
// boundary c0 when the next s cases cannot pass the bound: the first
// EvalChunk boundary more than s cases ahead, capped at n. A negative
// s (sum limit -1, nothing summed yet) gives one chunk.
func blockEnd(c0, n, s int) int {
	return min(c0+(s/prog.EvalChunk+1)*prog.EvalChunk, n)
}

// Solves reports whether p produces the desired output on every case.
// It is equivalent to Of(...) == 0 for any Kind but short-circuits on
// the first failing case. vals is caller-provided scratch with length
// >= p.Len(), mirroring Of, so repeated calls perform no allocation.
func Solves(p *prog.Program, s *testcase.Suite, vals []uint64) bool {
	for i := range s.Cases {
		c := &s.Cases[i]
		if p.Eval(c.Inputs, vals) != c.Output {
			return false
		}
	}
	return true
}

// NormalizeBeta scales a user-facing β, which is expressed relative to
// a 100-test-case problem, to the problem's actual test-case count:
// β' = β·|tests|/100 (Section 3.2).
func NormalizeBeta(beta float64, numTests int) float64 {
	return beta * float64(numTests) / 100
}
