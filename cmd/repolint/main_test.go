package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module for the linter to chew
// on. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for path, src := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// obsSrc is a minimal stand-in for internal/obs: one hook bundle with
// a nil-safe handle type.
const obsSrc = `package obs

type Counter struct{ n int64 }

func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n++
}

type SearchHooks struct {
	Iterations *Counter
	ID         uint64
}

type RestartHooks struct {
	Restarts *Counter
}
`

func lint(t *testing.T, dir string) (int, string) {
	t.Helper()
	var sb strings.Builder
	n, err := run(dir, &sb)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, sb.String())
	}
	return n, sb.String()
}

func TestAtomicContainment(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go": obsSrc,
		// Allowed: atomics inside internal/obs.
		"internal/obs/extra.go": "package obs\n\nimport \"sync/atomic\"\n\nvar x atomic.Int64\n",
		// Finding: atomics in an unblessed package.
		"internal/rogue/rogue.go": "package rogue\n\nimport \"sync/atomic\"\n\nvar x atomic.Int64\n",
		// Finding: test files are covered too.
		"internal/rogue2/a.go":      "package rogue2\n",
		"internal/rogue2/a_test.go": "package rogue2\n\nimport \"sync/atomic\"\n\nvar x atomic.Int64\n",
	})
	n, out := lint(t, dir)
	if n != 2 {
		t.Fatalf("findings = %d, want 2\n%s", n, out)
	}
	for _, want := range []string{"internal/rogue/rogue.go", "internal/rogue2/a_test.go"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "internal/obs/extra.go") {
		t.Errorf("internal/obs wrongly flagged:\n%s", out)
	}
}

func TestHookAccessGuards(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go": obsSrc,
		"internal/use/use.go": `package use

import "fakemod/internal/obs"

// ok: rebind + nil check.
func good(h *obs.SearchHooks) {
	if h == nil {
		return
	}
	h.Iterations.Inc()
}

// ok: if-scoped rebind.
type cfg struct{ Obs *obs.RestartHooks }

func goodScoped(c cfg) {
	if h := c.Obs; h != nil {
		h.Restarts.Inc()
	}
}

// ok: freshly allocated bundle.
func goodAlloc() *obs.SearchHooks {
	h := &obs.SearchHooks{}
	h.ID = 7
	return h
}

// finding: no nil check on the parameter.
func badParam(h *obs.SearchHooks) {
	h.Iterations.Inc()
}

// finding: chained selection, no rebind.
func badChain(c cfg) {
	c.Obs.Restarts.Inc()
}
`,
	})
	n, out := lint(t, dir)
	if n != 2 {
		t.Fatalf("findings = %d, want 2\n%s", n, out)
	}
	if !strings.Contains(out, "Iterations") || !strings.Contains(out, "Restarts") {
		t.Errorf("unexpected findings:\n%s", out)
	}
	if strings.Contains(out, "use.go:6") || strings.Contains(out, "ID") {
		t.Errorf("guarded access wrongly flagged:\n%s", out)
	}
}

// analysisSrc is a minimal stand-in for internal/prog/analysis: just
// the Rule type the duplicate-name check keys on.
const analysisSrc = `package analysis

type Rule struct {
	Name   string
	Reason string
}
`

func TestRuleNameUniqueness(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                             "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go":                obsSrc,
		"internal/prog/analysis/analysis.go": analysisSrc,
		"internal/prog/analysis/rules.go": `package analysis

var rules = []Rule{
	{Name: "fold-const", Reason: "ok"},
	{Name: "xor-self", Reason: "ok"},
	{Name: "fold-const", Reason: "duplicate"},
}
`,
		// A duplicate in another package is caught too, as is a computed
		// name and a literal with no name at all.
		"internal/use/use.go": `package use

import "fakemod/internal/prog/analysis"

var name = "xor" + "-self"

var extra = []analysis.Rule{
	{Name: "xor-self"},
	{Name: name},
	{Reason: "anonymous"},
}
`,
	})
	n, out := lint(t, dir)
	if n != 4 {
		t.Fatalf("findings = %d, want 4\n%s", n, out)
	}
	for _, want := range []string{
		`"fold-const"`, `"xor-self"`,
		"must be a literal string",
		"without a Name field",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAbsintTableTotality exercises check 5 on a shrunken stand-in:
// the fake prog package declares three opcodes, but the absint tables
// cover only two of them in one domain and all three in the other —
// the missing entry must be reported for exactly the one table, and
// the resolution must see through keys spelled without the selector
// (dot-imported or package-local aliases are not used here, but plain
// identifiers are accepted when they resolve to prog.Op constants).
func TestAbsintTableTotality(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go": obsSrc,
		"internal/prog/prog.go": `package prog

type Op uint8

const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	numOps
)

const NumOps = int(numOps)
`,
		"internal/prog/analysis/absint/absint.go": `package absint

import "fakemod/internal/prog"

type Bits struct{ Zero, One uint64 }
type Span struct{ Lo, Hi uint64 }

type BitsTransfer func(a, b Bits) Bits
type SpanTransfer func(a, b Span) Span

func topB(a, b Bits) Bits { return Bits{} }
func topS(a, b Span) Span { return Span{} }

var bitsTable = [prog.NumOps]BitsTransfer{
	prog.OpInvalid: topB,
	prog.OpAdd:     topB,
	// prog.OpSub deliberately missing.
}

var spanTable = [prog.NumOps]SpanTransfer{
	prog.OpInvalid: topS,
	prog.OpAdd:     topS,
	prog.OpSub:     topS,
}

var _ = bitsTable
var _ = spanTable
`,
	})
	n, out := lint(t, dir)
	if n != 1 {
		t.Fatalf("findings = %d, want 1\n%s", n, out)
	}
	if !strings.Contains(out, "prog.OpSub missing from the BitsTransfer table") {
		t.Errorf("output missing the OpSub finding:\n%s", out)
	}
	if strings.Contains(out, "SpanTransfer table") {
		t.Errorf("complete span table wrongly flagged:\n%s", out)
	}
}

// TestPlanTableTotality exercises check 6 on a shrunken stand-in: the
// fake prog package declares three opcodes, but the plan package's
// fusion table covers only two — the missing row must be reported, and
// an explicit zero row (OpInvalid's) must count as covered.
func TestPlanTableTotality(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go": obsSrc,
		"internal/prog/prog.go": `package prog

type Op uint8

const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	numOps
)

const NumOps = int(numOps)
`,
		"internal/prog/plan/plan.go": `package plan

import "fakemod/internal/prog"

type kernel func(dst, a, b []uint64, imm uint64, c0, c1 int)

type Kernels struct {
	VV kernel
	VI kernel
	IV kernel
}

func vvAdd(dst, a, b []uint64, _ uint64, c0, c1 int) {}

var fusion = [prog.NumOps]Kernels{
	prog.OpInvalid: {},
	prog.OpAdd:     {VV: vvAdd},
	// prog.OpSub deliberately missing.
}

var _ = fusion
`,
	})
	n, out := lint(t, dir)
	if n != 1 {
		t.Fatalf("findings = %d, want 1\n%s", n, out)
	}
	if !strings.Contains(out, "prog.OpSub missing from the Kernels fusion table") {
		t.Errorf("output missing the OpSub finding:\n%s", out)
	}
	if strings.Contains(out, "OpInvalid") || strings.Contains(out, "OpAdd") {
		t.Errorf("covered rows wrongly flagged:\n%s", out)
	}
}

// TestVectorTableTotality exercises check 6's vector-table rule on a
// fake module: a scalar table of Go kernels and a vector table of
// assembly kernels (functions declared without a body). The vector
// table misses OpShl, leaves OpAdd's VI form nil, gives OpSub an IV
// kernel the scalar row lacks, and leaves OpDivU's row zero; each is
// reported, the zero row once per form. Its zero OpInvalid row, a
// pseudo-op's, falls back to scalar deliberately and is not.
func TestVectorTableTotality(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module fakemod\n\ngo 1.22\n",
		"internal/obs/obs.go": obsSrc,
		"internal/prog/prog.go": `package prog

type Op uint8

const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpShl
	OpDivU
	numOps
)

const NumOps = int(numOps)
`,
		"internal/prog/plan/plan.go": `package plan

import "fakemod/internal/prog"

type kernel func(t *int, c0, c1 int)

type Kernels struct {
	VV kernel
	VI kernel
	IV kernel
}

func vv(t *int, c0, c1 int) {}

var fusion = [prog.NumOps]Kernels{
	prog.OpInvalid: {},
	prog.OpAdd:     {VV: vv, VI: vv},
	prog.OpSub:     {vv, vv, nil},
	prog.OpShl:     {VV: vv, VI: vv, IV: vv},
	prog.OpDivU:    {VV: vv, VI: vv, IV: vv},
}

var _ = fusion
`,
		"internal/prog/plan/vector.go": `package plan

import "fakemod/internal/prog"

func avxVV(t *int, c0, c1 int)

var avx = [prog.NumOps]Kernels{
	prog.OpInvalid: {},
	prog.OpAdd:     {VV: avxVV, VI: nil},
	prog.OpSub:     {VV: avxVV, VI: avxVV, IV: avxVV},
	prog.OpDivU:    {},
	// prog.OpShl deliberately missing.
}

var _ = avx
`,
	})
	n, out := lint(t, dir)
	for _, want := range []string{
		"prog.OpShl missing from the vector Kernels table",
		"prog.OpAdd has no vector VI kernel, so that form falls back to scalar",
		"prog.OpSub has a vector IV kernel but no scalar one",
		"prog.OpDivU has no vector VV kernel, so that form falls back to scalar; only the pseudo-ops may",
		"prog.OpDivU has no vector VI kernel",
		"prog.OpDivU has no vector IV kernel",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n != 6 {
		t.Errorf("findings = %d, want 6\n%s", n, out)
	}
	if strings.Contains(out, "OpInvalid") || strings.Contains(out, "fusion table") {
		t.Errorf("the deliberate pseudo-op fallback or the complete scalar table wrongly flagged:\n%s", out)
	}
}

// TestRepoIsClean pins the acceptance criterion: the linter reports
// zero findings on this repository itself. make ci runs the same
// check; this test keeps it enforced under plain go test.
func TestRepoIsClean(t *testing.T) {
	n, out := lint(t, "../..")
	if n != 0 {
		t.Errorf("repolint on the repo: %d finding(s)\n%s", n, out)
	}
}
