package cost

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stochsyn/internal/prog"
	"stochsyn/internal/testcase"
)

// suiteFor builds a small suite for f.
func suiteFor(t *testing.T, f testcase.Func, numInputs, n int) *testcase.Suite {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 42))
	s := testcase.Generate(f, numInputs, n, rng)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"hamming", Hamming},
		{"inctests", IncorrectTests},
		{"inc", IncorrectTests},
		{"logdiff", LogDiff},
		{"log", LogDiff},
	} {
		got, err := ParseKind(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v", tc.name, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds {
		name := k.String()
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Errorf("round trip of %v via %q failed", k, name)
		}
	}
}

func TestPerCaseHamming(t *testing.T) {
	if got := Hamming.PerCase(0b1100, 0b1010); got != 2 {
		t.Errorf("hamming = %g, want 2", got)
	}
	if got := Hamming.PerCase(5, 5); got != 0 {
		t.Errorf("hamming equal = %g, want 0", got)
	}
}

func TestPerCaseIncorrectTests(t *testing.T) {
	if got := IncorrectTests.PerCase(1, 2); got != 1 {
		t.Errorf("inctests = %g, want 1", got)
	}
	if got := IncorrectTests.PerCase(9, 9); got != 0 {
		t.Errorf("inctests equal = %g, want 0", got)
	}
}

func TestPerCaseLogDiff(t *testing.T) {
	if got := LogDiff.PerCase(4, 0); got != 3 { // 1 + log2(4)
		t.Errorf("logdiff = %g, want 3", got)
	}
}

func TestPropertyZeroIffEqual(t *testing.T) {
	// All three cost functions are zero exactly when outputs match.
	f := func(got, want uint64) bool {
		for _, k := range Kinds {
			c := k.PerCase(got, want)
			if (c == 0) != (got == want) {
				return false
			}
			if c < 0 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOfMatchesSolves(t *testing.T) {
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] & (in[0] - 1) }, 1, 50)
	sol := prog.MustParse("andq(x, subq(x, 1))", 1)
	wrong := prog.MustParse("andq(x, addq(x, 1))", 1)
	var vals [prog.MaxNodes]uint64
	for _, k := range Kinds {
		if c := k.Of(sol, s, vals[:]); c != 0 {
			t.Errorf("%s cost of solution = %g, want 0", k, c)
		}
		if c := k.Of(wrong, s, vals[:]); c <= 0 {
			t.Errorf("%s cost of wrong program = %g, want > 0", k, c)
		}
	}
	if !Solves(sol, s, vals[:]) {
		t.Error("Solves rejected the solution")
	}
	if Solves(wrong, s, vals[:]) {
		t.Error("Solves accepted a wrong program")
	}
}

// ofBounded is k.OfState on p as the active proposal of a reference
// engine: an edit that changes nothing, so the proposal is p itself.
func ofBounded(k Kind, e *prog.RefEval, p *prog.Program, bound float64) float64 {
	var j prog.Journal
	e.Reset(p)
	p.BeginEdit(&j)
	e.Begin(&j)
	c := k.OfState(e, bound)
	e.Abort()
	p.Rollback()
	return c
}

func TestOfBoundedExact(t *testing.T) {
	// The bounded cost (OfState over the reference engine) must agree
	// with Of whenever the true cost is within the bound, and must
	// return +Inf beyond it.
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] ^ in[1] }, 2, 40)
	p := prog.MustParse("andq(x, y)", 2)
	e := prog.NewRefEval(s)
	var vals [prog.MaxNodes]uint64
	for _, k := range Kinds {
		full := k.Of(p, s, vals[:])
		if got := ofBounded(k, e, p, full); got != full {
			t.Errorf("%s OfState(bound=cost) = %g, want %g", k, got, full)
		}
		if got := ofBounded(k, e, p, full+1); got != full {
			t.Errorf("%s OfState(bound=cost+1) = %g, want %g", k, got, full)
		}
		if got := ofBounded(k, e, p, full/2); !math.IsInf(got, 1) {
			t.Errorf("%s OfState(bound=cost/2) = %g, want +Inf", k, got)
		}
	}
}

func TestPropertyOfBoundedConsistent(t *testing.T) {
	s := suiteFor(t, func(in []uint64) uint64 { return in[0] + in[1] }, 2, 20)
	e := prog.NewRefEval(s)
	f := func(seed uint64, boundRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		// A random small program.
		p := prog.NewZero(2)
		op := prog.FullSet.RandomOp(rng)
		nd := prog.Node{Op: op}
		for a := 0; a < op.Arity(); a++ {
			nd.Args[a] = int32(rng.IntN(len(p.Nodes)))
		}
		p.Nodes = append(p.Nodes, nd)
		p.Root = int32(len(p.Nodes) - 1)
		p.Invalidate()
		p.GC()

		var vals [prog.MaxNodes]uint64
		bound := float64(boundRaw)
		for _, k := range Kinds {
			full := k.Of(p, s, vals[:])
			got := ofBounded(k, e, p, bound)
			if full <= bound && got != full {
				return false
			}
			if full > bound && !math.IsInf(got, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeBeta(t *testing.T) {
	if got := NormalizeBeta(1, 100); got != 1 {
		t.Errorf("NormalizeBeta(1, 100) = %g, want 1", got)
	}
	if got := NormalizeBeta(1, 50); got != 0.5 {
		t.Errorf("NormalizeBeta(1, 50) = %g, want 0.5", got)
	}
	if got := NormalizeBeta(2, 200); got != 4 {
		t.Errorf("NormalizeBeta(2, 200) = %g, want 4", got)
	}
}
