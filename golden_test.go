package stochsyn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand/v2"
	"testing"

	"stochsyn"
	"stochsyn/internal/experiment"
	"stochsyn/internal/server"
	"stochsyn/internal/sygus"
	"stochsyn/internal/testcase"
)

// The golden digests below were recorded from the generators as they
// stood before test-suite generation stopped formatting and allocating
// per input vector. Every constructor that samples test cases must keep
// producing these suites bit for bit: the same inputs, in the same
// order, with the same outputs.

// digestSuite feeds one suite into h: its input arity, its case count,
// and every case's inputs and output.
func digestSuite(h hash.Hash, numInputs int, cases []testcase.Case) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(numInputs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(cases)))
	for _, c := range cases {
		for _, v := range c.Inputs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		buf = binary.LittleEndian.AppendUint64(buf, c.Output)
	}
	h.Write(buf)
}

func digestProblem(h hash.Hash, p *stochsyn.Problem) {
	var cases []testcase.Case
	for _, c := range p.Cases() {
		cases = append(cases, testcase.Case{Inputs: c.Inputs, Output: c.Output})
	}
	digestSuite(h, p.NumInputs(), cases)
}

func TestGeneratedSuitesGolden(t *testing.T) {
	sygusDigest := func(cases int) func(t *testing.T, h hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			for _, p := range sygus.Standard(sygus.Options{Seed: 7, TestCases: cases, RandomProblems: 12}) {
				digestSuite(h, p.Suite.NumInputs, p.Suite.Cases)
			}
		}
	}
	fromFunc := func(f func([]uint64) uint64, numInputs, numCases int, seed uint64) func(t *testing.T, h hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			p, err := stochsyn.ProblemFromFunc(f, numInputs, numCases, seed)
			if err != nil {
				t.Fatal(err)
			}
			digestProblem(h, p)
		}
	}
	exprSpec := func(ps server.ProblemSpec) func(t *testing.T, h hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			p, _, err := server.JobSpec{Problem: ps}.Build()
			if err != nil {
				t.Fatal(err)
			}
			digestProblem(h, p)
		}
	}
	sum := func(in []uint64) uint64 {
		var s uint64
		for _, v := range in {
			s = s*31 + v
		}
		return s
	}
	tests := []struct {
		name   string
		digest func(t *testing.T, h hash.Hash)
		want   string
	}{
		{"sygus/10", sygusDigest(10), "c2a1e5c62bd6e07b6d7a3213611d98ecabb636f4a0777e15c5ec3fb3f1740238"},
		{"sygus/1000", sygusDigest(1000), "96f61713bae387769b72c071061bd7c1adafbdbf5616599a194aec051f8f8a15"},
		{"superopt", func(t *testing.T, h hash.Hash) {
			b, _, err := experiment.SuperoptBenchmark(3, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range b.Problems {
				digestSuite(h, p.Suite.NumInputs, p.Suite.Cases)
			}
		}, "e2b8428d4c197a45535454170982251474d71697024e4698df821e000ceb0f36"},
		{"fromfunc/0x20", fromFunc(sum, 0, 20, 1), "87d82d155685fda42f606911efa50ac195bef4be188fcd1ecdb773d60e88ae5f"},
		{"fromfunc/1x1000", fromFunc(sum, 1, 1000, 2), "56e9c832f18bcc5f984a291f5c12418ad17d5f99acea106a592c1c95c887e378"},
		{"fromfunc/2x300", fromFunc(sum, 2, 300, 3), "5526a88660c47e7493cf6fb40a094965ed4095d03289f038d0585b4d5ac82139"},
		{"fromfunc/8x100", fromFunc(sum, 8, 100, 4), "ba347414d6b2c609b634e46ec0996d0660309b23a2f8cfcfe00c70c4f582b538"},
		{"generate/10x50", func(t *testing.T, h hash.Hash) {
			s := testcase.Generate(sum, 10, 50, rand.New(rand.NewPCG(5, 5)))
			digestSuite(h, s.NumInputs, s.Cases)
		}, "05439fe32a2e240ea1d40f68d2bebc2d4c42bd39cc306554fe3ba2ec7571e0c6"},
		{"expr/default", exprSpec(server.ProblemSpec{Expr: "andq(x, subq(x, 1))", Inputs: 1}), "69c9e6d86c12c322f9db5b2a7a6693e7e162909eccd0d3c1342be861b9151aa7"},
		{"expr/2x500", exprSpec(server.ProblemSpec{Expr: "xorq(mulq(x, y), shrq(y, 3))", Inputs: 2, NumCases: 500, CaseSeed: 9}), "df9f6bdad9970bf41dc4a11040f89fdc21d2033a4061db627a93238ca0430ed5"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			tc.digest(t, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("suite digest changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
