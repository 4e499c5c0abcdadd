package main

import (
	"strings"
	"testing"
	"time"

	"stochsyn/internal/obs"
	"stochsyn/internal/prog"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/restart"
)

// TestRunStatsNameKernels checks that -stats says which plan kernels
// produced its throughput figure.
func TestRunStatsNameKernels(t *testing.T) {
	var b strings.Builder
	printRunStats(&b, obs.New(), restart.Result{Iterations: 10, Searches: 1}, time.Second)
	if want := "kernels:    " + plan.KernelSet() + "\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("-stats report lacks %q:\n%s", want, b.String())
	}
}

func TestParseSpec(t *testing.T) {
	src := `
# doubling table
0x0 0x0
1 2
0x10 0x20
-1 -2
`
	suite, err := parseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	if suite.NumInputs != 1 || suite.Len() != 4 {
		t.Fatalf("suite shape: %d inputs, %d cases", suite.NumInputs, suite.Len())
	}
	if suite.Cases[1].Inputs[0] != 1 || suite.Cases[1].Output != 2 {
		t.Error("decimal case parsed wrong")
	}
	if suite.Cases[3].Inputs[0] != ^uint64(0) {
		t.Error("negative input parsed wrong")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"5\n", "at least one input"},
		{"1 2\n1 2 3\n", "earlier lines had"},
		{"zz 1\n", "invalid syntax"},
		{"", "negative input count"},
	}
	for _, tc := range cases {
		_, err := parseSpec(tc.src)
		if err == nil {
			t.Errorf("parseSpec accepted %q", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseSpec(%q) error %q, want %q", tc.src, err, tc.want)
		}
	}
}

func TestParseWord(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"0", 0},
		{"42", 42},
		{"0xff", 255},
		{"-1", ^uint64(0)},
		{"-0x10", ^uint64(15)},
	}
	for _, tc := range cases {
		got, err := parseWord(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseWord(%q) = %#x, %v; want %#x", tc.in, got, err, tc.want)
		}
	}
	if _, err := parseWord("bogus"); err == nil {
		t.Error("parseWord accepted bogus input")
	}
}

func TestPickDialect(t *testing.T) {
	set, red, err := pickDialect("full")
	if err != nil || set != prog.FullSet || red {
		t.Error("full dialect wrong")
	}
	set, red, err = pickDialect("model")
	if err != nil || set != prog.ModelSet || !red {
		t.Error("model dialect wrong")
	}
	if _, _, err := pickDialect("nope"); err == nil {
		t.Error("bogus dialect accepted")
	}
}

func TestLoadProblemSourceExclusivity(t *testing.T) {
	if _, _, err := loadProblem("", 1, 10, "", "", "", 1); err == nil {
		t.Error("no source accepted")
	}
	if _, _, err := loadProblem("x", 1, 10, "spec.txt", "", "", 1); err == nil {
		t.Error("two sources accepted")
	}
}

func TestLoadProblemBuiltin(t *testing.T) {
	suite, desc, err := loadProblem("", 1, 10, "", "", "hd03", 1)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Len() == 0 || !strings.Contains(desc, "hd03") {
		t.Errorf("builtin load: %d cases, desc %q", suite.Len(), desc)
	}
	if _, _, err := loadProblem("", 1, 10, "", "", "hd99", 1); err == nil {
		t.Error("unknown builtin accepted")
	}
}

func TestLoadProblemExpr(t *testing.T) {
	suite, _, err := loadProblem("addq(x, y)", 2, 30, "", "", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if suite.NumInputs != 2 || suite.Len() != 30 {
		t.Errorf("expr load shape: %d/%d", suite.NumInputs, suite.Len())
	}
	for _, c := range suite.Cases {
		if c.Output != c.Inputs[0]+c.Inputs[1] {
			t.Fatal("expr semantics wrong")
		}
	}
}
