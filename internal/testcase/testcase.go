// Package testcase defines the input/output test cases that specify a
// synthesis problem and the generators that produce them: important
// corner cases (0, 1, -1, ...), uniformly random bit patterns, and bit
// patterns with high and low Hamming weight, per Section 6.1 of the
// paper.
package testcase

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"stochsyn/internal/bits"
)

// Case is one test case: an input vector and the desired output.
type Case struct {
	Inputs []uint64
	Output uint64
}

// Suite is the full specification of a synthesis problem: a fixed
// number of inputs and a list of cases. A program solves the suite
// when its output equals Output on every case.
type Suite struct {
	NumInputs int
	Cases     []Case
}

// Validate checks that every case has exactly NumInputs inputs.
func (s *Suite) Validate() error {
	if s.NumInputs < 0 {
		return fmt.Errorf("testcase: negative input count %d", s.NumInputs)
	}
	if len(s.Cases) == 0 {
		return fmt.Errorf("testcase: empty suite")
	}
	for i, c := range s.Cases {
		if len(c.Inputs) != s.NumInputs {
			return fmt.Errorf("testcase: case %d has %d inputs, want %d", i, len(c.Inputs), s.NumInputs)
		}
	}
	return nil
}

// Len returns the number of cases.
func (s *Suite) Len() int { return len(s.Cases) }

// Clone returns a deep copy of the suite (see CopyInputs).
func (s *Suite) Clone() *Suite {
	out := &Suite{NumInputs: s.NumInputs, Cases: slices.Clone(s.Cases)}
	out.CopyInputs()
	return out
}

// CopyInputs replaces every case's Inputs with a copy of it. The
// copies are consecutive rows of one backing array, each with its
// capacity limited to its length, so appending to one case's Inputs
// reallocates instead of overwriting the next case's.
func (s *Suite) CopyInputs() {
	n := 0
	for _, c := range s.Cases {
		n += len(c.Inputs)
	}
	rows := make([]uint64, 0, n)
	for i, c := range s.Cases {
		rows = append(rows, c.Inputs...)
		s.Cases[i].Inputs = rows[len(rows)-len(c.Inputs) : len(rows) : len(rows)]
	}
}

// Func is a reference semantics for a synthesis problem, used to
// compute desired outputs when generating suites.
type Func func(inputs []uint64) uint64

// Generate builds a suite of n cases for a reference function with
// numInputs inputs. The input vectors mix three sources in roughly the
// proportions the benchmark uses: corner-case values on each input,
// uniformly random words, and words with skewed (high or low) Hamming
// weight. Generation is deterministic given the rng.
//
// Candidates are drawn into one reused vector and deduplicated on
// their raw words; a kept vector is copied into row i of one backing
// array of n×numInputs words, and that capacity-limited row becomes
// case i's Inputs. Building a suite thus costs its RNG draws and its
// calls to f, and allocates nothing per vector.
func Generate(f Func, numInputs, n int, rng *rand.Rand) *Suite {
	n = max(n, 0)
	s := &Suite{NumInputs: numInputs, Cases: make([]Case, 0, n)}
	rows := make([]uint64, n*numInputs)
	in := make([]uint64, numInputs)
	// The dedup set is keyed by a vector's little-endian bytes. Each
	// kept key is a substring of one builder, grown up front, so keeping
	// a vector allocates nothing and looking one up copies nothing.
	key := make([]byte, 8*numInputs)
	var keys strings.Builder
	keys.Grow(n * len(key))
	seen := make(map[string]struct{}, n)
	// add keeps the candidate in, unless an equal vector was kept
	// before.
	add := func() bool {
		for i, v := range in {
			binary.LittleEndian.PutUint64(key[8*i:], v)
		}
		if _, dup := seen[string(key)]; dup {
			return false
		}
		keys.Write(key)
		seen[keys.String()[keys.Len()-len(key):]] = struct{}{}
		r := row(rows, len(s.Cases), numInputs)
		copy(r, in)
		s.Cases = append(s.Cases, Case{Inputs: r, Output: f(r)})
		return true
	}
	// fill draws vectors from gen until the suite reaches target cases
	// or the generator keeps producing duplicates (possible when the
	// value pool is small relative to the target, e.g. corner cases
	// with a single input); misses is the consecutive-duplicate bound.
	// gen must set every word of its argument.
	fill := func(target int, gen func(in []uint64)) {
		const maxMisses = 64
		misses := 0
		for len(s.Cases) < target && misses < maxMisses {
			gen(in)
			if add() {
				misses = 0
			} else {
				misses++
			}
		}
	}

	// Corner-case vectors first: all inputs drawn from the corner
	// list, starting with the uniform vectors (all zero, all one, all
	// minus-one) and then mixed assignments.
	for _, v := range []uint64{0, 1, ^uint64(0)} {
		if len(s.Cases) >= n {
			break
		}
		for i := range in {
			in[i] = v
		}
		add()
	}
	fill(n/3, func(in []uint64) {
		for i := range in {
			in[i] = bits.CornerCases[rng.IntN(len(bits.CornerCases))]
		}
	})

	// Skewed Hamming-weight vectors.
	fill(2*n/3, func(in []uint64) {
		for i := range in {
			if rng.IntN(2) == 0 {
				in[i] = bits.RandomLowWeight(rng)
			} else {
				in[i] = bits.RandomHighWeight(rng)
			}
		}
	})

	// Uniformly random vectors for the remainder.
	fill(n, func(in []uint64) {
		for i := range in {
			in[i] = rng.Uint64()
		}
	})
	return s
}

// GenerateUniform builds a suite of n cases whose inputs are all
// uniformly random words. Some SyGuS-style problems use purely random
// examples; this generator reproduces that shape. The suite is laid
// out like Generate's.
func GenerateUniform(f Func, numInputs, n int, rng *rand.Rand) *Suite {
	n = max(n, 0)
	s := &Suite{NumInputs: numInputs, Cases: make([]Case, n)}
	rows := make([]uint64, n*numInputs)
	for i := range s.Cases {
		in := row(rows, i, numInputs)
		for j := range in {
			in[j] = rng.Uint64()
		}
		s.Cases[i] = Case{Inputs: in, Output: f(in)}
	}
	return s
}

// row returns row i of a backing array of width-word rows, with its
// capacity limited to the row: appending to it reallocates instead of
// overwriting row i+1.
func row(rows []uint64, i, width int) []uint64 {
	return rows[i*width : (i+1)*width : (i+1)*width]
}
