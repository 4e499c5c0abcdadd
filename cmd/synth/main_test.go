package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stochsyn"
	"stochsyn/internal/obs"
	"stochsyn/internal/prog/plan"
	"stochsyn/internal/server"
	"stochsyn/internal/server/client"
)

// TestRunStatsNameKernels checks that -stats says which plan kernels
// produced its throughput figure.
func TestRunStatsNameKernels(t *testing.T) {
	var b strings.Builder
	printRunStats(&b, obs.New(), stochsyn.Result{Iterations: 10, Searches: 1, Duration: time.Second})
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

// TestPickDialect checks that -dialect selects the run's instruction
// set and that an unknown one is an error, not a default.
func TestPickDialect(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-expr", "xorq(x, notq(x))", "-dialect", "model", "-v"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 || !strings.Contains(out.String(), "dialect=model") {
		t.Errorf("synth %q exited %d:\n%s%s", args, code, out.String(), errOut.String())
	}
	errOut.Reset()
	if code := run(context.Background(), []string{"-expr", "x", "-dialect", "nope"}, &out, &errOut); code != 1 ||
		!strings.Contains(errOut.String(), `unknown dialect "nope"`) {
		t.Errorf("-dialect nope exited %d: %s", code, errOut.String())
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
	spec, desc, err := loadProblem("", 1, 10, "", "", "hd03", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Examples) == 0 || spec.Inputs != len(spec.Examples[0].Inputs) || !strings.Contains(desc, "hd03") {
		t.Errorf("builtin load: %d examples over %d inputs, desc %q", len(spec.Examples), spec.Inputs, desc)
	}
	if _, _, err := loadProblem("", 1, 10, "", "", "hd99", 1); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestLoadProblemExpr checks that an expression travels as text, so a
// local run samples the suite synthd would: the one ProblemFromFunc
// draws for the case seed.
func TestLoadProblemExpr(t *testing.T) {
	spec, _, err := loadProblem("addq(x, y)", 2, 30, "", "", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := server.JobSpec{Problem: spec}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs() != 2 || p.NumCases() != 30 {
		t.Fatalf("expr load shape: %d/%d", p.NumInputs(), p.NumCases())
	}
	for _, c := range p.Cases() {
		if c.Output != c.Inputs[0]+c.Inputs[1] {
			t.Fatal("expr semantics wrong")
		}
	}
	want, err := stochsyn.ProblemFromFunc(func(in []uint64) uint64 { return in[0] + in[1] }, 2, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Cases(), want.Cases()) {
		t.Error("expr suite differs from ProblemFromFunc's for the same seed")
	}
}

// TestLocalMatchesRemote runs the same flags locally and against an
// in-process synthd: both must print the same program and audit.
func TestLocalMatchesRemote(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, args := range [][]string{
		{"-expr", "andq(x, subq(x, 1))", "-seed", "1", "-lint"},
		{"-expr", "orq(x, andq(y, 7))", "-inputs", "2", "-cases", "40", "-seed", "5", "-strategy", "luby", "-lint"},
	} {
		var out, errOut [2]strings.Builder
		for i, a := range [][]string{args, append([]string{"-remote", ts.URL}, args...)} {
			if code := run(context.Background(), a, &out[i], &errOut[i]); code != 0 {
				t.Fatalf("synth %q exited %d: %s%s", a, code, out[i].String(), errOut[i].String())
			}
		}
		if out[0].String() != out[1].String() || errOut[0].String() != errOut[1].String() {
			t.Errorf("synth %q: local printed\n%s%s\nremote printed\n%s%s", args,
				out[0].String(), errOut[0].String(), out[1].String(), errOut[1].String())
		}
	}
}

// TestRemoteInterruptCancelsJob checks the -remote interrupt path: when
// the context ends mid-run, synth cancels the job on the server and
// exits 130.
func TestRemoteInterruptCancelsJob(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var out, errOut strings.Builder
	args := []string{"-remote", ts.URL, "-expr", "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))", "-budget", "1000000000000"}
	if code := run(ctx, args, &out, &errOut); code != 130 || !strings.Contains(errOut.String(), "cancelled on server") {
		t.Fatalf("interrupted synth exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if v, err := client.New(ts.URL).Wait(wctx, "j000001", 0); err != nil || v.Status != server.StatusCancelled {
		t.Errorf("job after the interrupt: %+v, %v; want cancelled", v, err)
	}
}
