package prog

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		src       string
		numInputs int
	}{
		{"x", 1},
		{"0", 1},
		{"-1", 1},
		{"0xdeadbeef", 1},
		{"notq(x)", 1},
		{"addq(x, y)", 2},
		{"orq(andq(x, y), andq(notq(x), z))", 3},
		{"a = notq(x); addq(a, a)", 1},
		{"or(shl(x), x)", 1},
		{"mulq(in4, in5)", 6},
	}
	for _, tc := range cases {
		p, err := Parse(tc.src, tc.numInputs)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Parse(%q) invalid: %v", tc.src, err)
			continue
		}
		// Re-parse the printed form; it must evaluate identically.
		q, err := Parse(p.String(), tc.numInputs)
		if err != nil {
			t.Errorf("re-Parse(%q -> %q): %v", tc.src, p.String(), err)
			continue
		}
		in := make([]uint64, tc.numInputs)
		for i := range in {
			in[i] = uint64(i)*0x9e3779b97f4a7c15 + 3
		}
		if p.Output(in) != q.Output(in) {
			t.Errorf("round trip of %q changed semantics", tc.src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src       string
		numInputs int
		wantSub   string
	}{
		{"", 1, "empty"},
		{"frobq(x)", 1, "unknown operation"},
		{"addq(x)", 1, "takes 2 arguments"},
		{"notq(x, y)", 2, "takes 1 arguments"},
		{"y", 1, "out of range"},
		{"q = 3", 1, "final statement"},
		{"a = 1; a = 2; a", 1, "duplicate binding"},
		{"x = 1; x", 1, "collides with input"},
		{"addq(x,", 1, "missing ')'"},
		{"bogus", 1, "cannot parse"},
		{"addq(x, 99999999999999999999999)", 1, "cannot parse"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src, tc.numInputs)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestParseTooLarge(t *testing.T) {
	// An expression with more than MaxBody live nodes must be
	// rejected.
	expr := "x"
	for i := 0; i < MaxBody+1; i++ {
		expr = "notq(" + expr + ")"
	}
	if _, err := Parse(expr, 1); err == nil {
		t.Error("Parse accepted an over-limit expression")
	}
}

func TestParseUnusedBindingDropped(t *testing.T) {
	p, err := Parse("a = notq(x); b = addq(x, 1); b", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The unused binding a must have been collected.
	if p.BodyLen() != 2 {
		t.Errorf("BodyLen = %d, want 2 (add, const)", p.BodyLen())
	}
}

func TestParseSharingPreserved(t *testing.T) {
	p := MustParse("a = addq(x, 1); mulq(a, a)", 1)
	// Count add nodes: sharing means exactly one.
	adds := 0
	for _, nd := range p.Nodes {
		if nd.Op == OpAdd {
			adds++
		}
	}
	if adds != 1 {
		t.Errorf("found %d add nodes, want 1 (shared)", adds)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("frobq(x)", 1)
}

func TestStringSharesBindings(t *testing.T) {
	p := MustParse("a = notq(x); addq(a, a)", 1)
	s := p.String()
	if !strings.Contains(s, "=") {
		t.Errorf("String() = %q, expected a binding for the shared node", s)
	}
}

// TestStringBindsSharedConstantsPastMaxBody pins the printer's rule
// for shared constants: inline while the print parses back within
// MaxBody, bound once when it would not.
func TestStringBindsSharedConstantsPastMaxBody(t *testing.T) {
	// Inline, 0x800000000 would print four times and parse as 17 nodes.
	p := MustParse("c = 0x800000000; a = addq(x, sltq(remq(-6, y), andl(remq(remq(tzcntq(x), 16), c), "+
		"mull(c, sarl(c, c))))); xorq(a, andq(a, y))", 2)
	s := p.String()
	q, err := Parse(s, 2)
	if err != nil {
		t.Fatalf("String() = %q does not parse: %v", s, err)
	}
	if q.BodyLen() != 14 || strings.Count(s, "0x800000000") != 1 {
		t.Errorf("String() = %q parses to %d body nodes, want 14 with the constant bound once", s, q.BodyLen())
	}
	in := []uint64{0x123456789, 77}
	if p.Output(in) != q.Output(in) {
		t.Errorf("round trip of %q changed semantics", s)
	}
	// A shared constant that fits inline prints as before.
	if got := MustParse("c = 5; addq(c, mulq(c, x))", 1).String(); got != "addq(5, mulq(5, x))" {
		t.Errorf("String() = %q, want the inline form", got)
	}
}

func TestFormatConst(t *testing.T) {
	cases := []struct {
		v    uint64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{^uint64(0), "-1"},
		{1024, "1024"},
		{1025, "0x401"},
		{^uint64(0) - 1023, "-1024"},
		{0xdeadbeef, "0xdeadbeef"},
	}
	for _, tc := range cases {
		if got := FormatConst(tc.v); got != tc.want {
			t.Errorf("FormatConst(%#x) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCanonCommutative(t *testing.T) {
	p := MustParse("addq(x, y)", 2)
	q := MustParse("addq(y, x)", 2)
	if p.Canon() != q.Canon() {
		t.Errorf("commutative canon differs: %q vs %q", p.Canon(), q.Canon())
	}
	r := MustParse("subq(x, y)", 2)
	s := MustParse("subq(y, x)", 2)
	if r.Canon() == s.Canon() {
		t.Error("non-commutative subq canonized as equal")
	}
}

func TestCanonIgnoresNodeOrder(t *testing.T) {
	p := MustParse("orq(andq(x, y), z)", 3)
	// Build the same graph with a different node layout via the
	// sharing notation.
	q := MustParse("a = andq(x, y); orq(a, z)", 3)
	if p.Canon() != q.Canon() {
		t.Errorf("canon depends on node layout: %q vs %q", p.Canon(), q.Canon())
	}
}

func TestPropertyParsePrintRoundTrip(t *testing.T) {
	f := func(seed uint64, x, y uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		p := randomValidProgram(rng, 2)
		q, err := Parse(p.String(), 2)
		if err != nil {
			return false
		}
		in := []uint64{x, y}
		return p.Output(in) == q.Output(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCanonStableUnderGC(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		p := randomValidProgram(rng, 2)
		c1 := p.Canon()
		p.GC()
		return p.Canon() == c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInputNames(t *testing.T) {
	for i, want := range []string{"x", "y", "z", "w", "in4", "in5"} {
		if got := InputName(i); got != want {
			t.Errorf("InputName(%d) = %q, want %q", i, got, want)
		}
		if got := inputIndex(want); got != i {
			t.Errorf("inputIndex(%q) = %d, want %d", want, got, i)
		}
	}
	if inputIndex("foo") != -1 || inputIndex("in2") != -1 {
		t.Error("inputIndex accepted a non-input name")
	}
}
