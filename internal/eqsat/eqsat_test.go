package eqsat

import (
	"testing"

	"stochsyn/internal/prog"
	"stochsyn/internal/prog/analysis"
)

func parse(t *testing.T, expr string, inputs int) *prog.Program {
	t.Helper()
	p, err := prog.Parse(expr, inputs)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return p
}

// Rewrite-equivalent respellings that the canonicalizer alone cannot
// collapse must share an EClassHash. Each pair is checked to be
// canonically DISTINCT first, so this test fails if the canonicalizer
// ever grows strong enough to make the pair trivial (pick a harder
// pair then).
func TestEClassHashMergesBeyondCanon(t *testing.T) {
	pairs := []struct {
		a, b   string
		inputs int
	}{
		// Associativity + constant folding across the respelling.
		{"addq(addq(x, 1), 2)", "addq(x, 3)", 1},
		// Pure reassociation over three variables.
		{"andq(andq(x, y), z)", "andq(x, andq(y, z))", 3},
		// Pure reassociation, other operator.
		{"orq(orq(x, y), z)", "orq(x, orq(y, z))", 3},
		// xor chain: (x^y)^y = x^(y^y) = x^0 = x.
		{"xorq(xorq(x, y), y)", "x", 2},
		// Multiplication reassociation with folding.
		{"mulq(mulq(x, 2), 4)", "mulq(x, 8)", 1},
	}
	for _, tc := range pairs {
		pa, pb := parse(t, tc.a, tc.inputs), parse(t, tc.b, tc.inputs)
		ca := analysis.Hash(analysis.Canonicalize(pa))
		cb := analysis.Hash(analysis.Canonicalize(pb))
		if ca == cb {
			t.Errorf("pair (%q, %q) already collapses canonically; pick a harder witness", tc.a, tc.b)
			continue
		}
		ha, _ := EClassHash(pa, Budget{})
		hb, _ := EClassHash(pb, Budget{})
		if ha != hb {
			t.Errorf("EClassHash(%q) = %016x != EClassHash(%q) = %016x", tc.a, ha, tc.b, hb)
		}
	}
}

// Inequivalent programs must keep distinct hashes.
func TestEClassHashDistinguishes(t *testing.T) {
	exprs := []string{"addq(x, 1)", "addq(x, 2)", "subq(x, 1)", "x", "mulq(x, x)"}
	seen := map[uint64]string{}
	for _, e := range exprs {
		h, _ := EClassHash(parse(t, e, 1), Budget{})
		if prev, ok := seen[h]; ok {
			t.Errorf("%q and %q collide at %016x", prev, e, h)
		}
		seen[h] = e
	}
}

// Extraction must find the minimum-cost member: identities collapse to
// their operand, constant subtrees fold.
func TestExtractMinimal(t *testing.T) {
	cases := []struct {
		expr   string
		inputs int
		want   string
	}{
		{"subq(x, subq(x, x))", 1, "x"},                  // x - (x-x) = x - 0 = x
		{"orq(andq(x, x), 0)", 1, "x"},                   // identity chain
		{"addq(addq(x, 1), 0xffffffffffffffff)", 1, "x"}, // +1 then -1
		{"mulq(addq(x, 0), 1)", 1, "x"},
		{"notq(notq(addq(x, y)))", 2, "addq(x, y)"},
	}
	for _, tc := range cases {
		p := parse(t, tc.expr, tc.inputs)
		q, st := Simplify(p, Budget{})
		if got := q.String(); got != tc.want {
			t.Errorf("Simplify(%q) = %q, want %q (stats %+v)", tc.expr, got, tc.want, st)
		}
	}
}

// The equivalence table: a broad sweep of expressions whose saturated
// extraction must be Eval-equal to the input (FuzzEqSat covers random
// programs; this pins tricky hand-written shapes, including the exact
// x86 semantics corners: masked shifts, div-by-zero, 32-bit
// zero-extension).
func TestExtractionEvalEqualTable(t *testing.T) {
	cases := []struct {
		expr   string
		inputs int
	}{
		{"addq(addq(x, y), addq(x, y))", 2},
		{"shlq(x, 64)", 1},
		{"shlq(x, y)", 2},
		{"divq(x, subq(y, y))", 2},
		{"idivq(x, 0xffffffffffffffff)", 1},
		{"remq(addq(x, 1), addq(x, 1))", 1},
		{"zextlq(addl(x, y))", 2},
		{"shll(x, 32)", 1},
		{"orl(x, 0xffffffff)", 1},
		{"sarq(0xffffffffffffffff, x)", 1},
		{"bswapq(bswapq(xorq(x, y)))", 2},
		{"mulq(mulq(x, mulq(y, z)), mulq(x, y))", 3},
		{"andq(orq(x, y), andq(x, orq(x, y)))", 2},
		{"xorq(xorq(xorq(x, y), z), xorq(y, z))", 3},
		{"sltq(subq(x, y), subq(x, y))", 2},
		{"eqq(x, x)", 1},
		{"popcntq(andq(x, subq(x, 1)))", 1},
	}
	battery := [][]uint64{}
	vals := []uint64{0, 1, 63, 64, ^uint64(0), 1 << 63, 0xffffffff, 0x123456789abcdef}
	for _, tc := range cases {
		p := parse(t, tc.expr, tc.inputs)
		q, st := Simplify(p, Budget{})
		if err := q.Validate(); err != nil {
			t.Fatalf("Simplify(%q) invalid: %v", tc.expr, err)
		}
		_ = battery
		in := make([]uint64, tc.inputs)
		var sweep func(k int)
		sweep = func(k int) {
			if k == tc.inputs {
				if got, want := q.Output(in), p.Output(in); got != want {
					t.Fatalf("Simplify(%q) = %q disagrees on %v: got %#x want %#x (stats %+v)",
						tc.expr, q, in, got, want, st)
				}
				return
			}
			for _, v := range vals {
				in[k] = v
				sweep(k + 1)
			}
		}
		if tc.inputs <= 2 {
			sweep(0)
		} else {
			for _, v := range vals {
				for i := range in {
					in[i] = v
				}
				if got, want := q.Output(in), p.Output(in); got != want {
					t.Fatalf("Simplify(%q) disagrees on %v: got %#x want %#x", tc.expr, in, got, want)
				}
			}
		}
	}
}

// Saturation must respect its budget caps and stay deterministic when
// capped: a tiny node budget must degrade, not break.
func TestBudgetRespected(t *testing.T) {
	p := parse(t, "addq(addq(addq(addq(x, y), z), x), addq(y, z))", 3)
	tight := Budget{MaxNodes: 64, MaxIters: 2}
	h1, st1 := EClassHash(p, tight)
	h2, st2 := EClassHash(p, tight)
	if h1 != h2 {
		t.Fatalf("capped hash not deterministic: %016x vs %016x", h1, h2)
	}
	if st1 != st2 {
		t.Fatalf("capped stats not deterministic: %+v vs %+v", st1, st2)
	}
	if st1.Nodes > 64 {
		t.Errorf("node budget exceeded: %d e-nodes > 64", st1.Nodes)
	}
	if st1.Iters > 2 {
		t.Errorf("iteration budget exceeded: %d > 2", st1.Iters)
	}
	q, _ := Simplify(p, tight)
	for _, v := range []uint64{0, 1, ^uint64(0), 1 << 63} {
		in := []uint64{v, v ^ 3, ^v}
		if q.Output(in) != p.Output(in) {
			t.Fatalf("capped extraction disagrees on %v", in)
		}
	}
}

// No rule may ever prove two distinct constants equal.
func TestNoConstConflicts(t *testing.T) {
	exprs := []string{
		"addq(addq(x, 1), 2)", "divq(x, subq(y, y))", "shlq(x, 64)",
		"orl(x, 0xffffffff)", "mulq(mulq(x, 2), 4)",
	}
	for _, e := range exprs {
		inputs := 1
		if len(e) > 0 && (e == "divq(x, subq(y, y))") {
			inputs = 2
		}
		_, st := EClassHash(parse(t, e, inputs), Budget{})
		if st.ConstConflicts != 0 {
			t.Errorf("%q: %d constant conflicts (unsound rule?)", e, st.ConstConflicts)
		}
	}
}
