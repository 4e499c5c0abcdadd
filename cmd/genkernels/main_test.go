package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// progDir is the internal/prog directory, which holds opcode.go and,
// with its plan subdirectory, every generated file.
var progDir = filepath.Join("..", "..", "internal", "prog")

// TestGeneratedFilesUpToDate fails when a committed generated file of
// internal/prog or internal/prog/plan differs from what the generator
// writes: edit the rows and run `go generate ./internal/prog/...`, never
// the generated files.
func TestGeneratedFilesUpToDate(t *testing.T) {
	files, err := generateIn(progDir)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(progDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run go generate ./internal/prog/...", name)
		}
	}
}

// TestGeneratorRefusesBadRows checks that the generator refuses, with
// an error naming the row, a row list that misses a prog.Op constant or
// names one twice, a row with no Go body to define or reuse, an
// operand-only Go part that reads the other operand, and a reuse whose
// derived forms differ.
func TestGeneratorRefusesBadRows(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(progDir, "opcode.go"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := opConsts(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate(ops, names); err != nil {
		t.Fatalf("the committed rows: %v", err)
	}
	// edit returns a copy of ops with f applied to the row of constant c.
	edit := func(c string, f func(*op)) []op {
		rows := slices.Clone(ops)
		for i := range rows {
			if rows[i].op == c {
				f(&rows[i])
				return rows
			}
		}
		t.Fatalf("no row %s", c)
		return nil
	}
	drop := slices.DeleteFunc(slices.Clone(ops), func(o op) bool { return o.op == "OpRor" })
	for _, tc := range []struct {
		what string
		rows []op
		want string
	}{
		{"a constant with no row", drop, "prog.OpRor has 0 rows"},
		{"a constant with two rows", append(slices.Clone(ops), ops[3]), "prog.OpAdd has 2 rows"},
		{"a row naming no constant", append(slices.Clone(ops), op{op: "OpRotr"}), "OpRotr: not a prog.Op constant"},
		{"no body and nothing to reuse", edit("OpMAnd", func(o *op) { o.name = "MAnd" }),
			"OpMAnd: no Go body, and no earlier row named MAnd to reuse"},
		{"a Go perB reading {a}", edit("OpShl", func(o *op) { o.goPerB = "s := {a} & 63" }),
			"OpShl: an operand-only part reads {a}"},
		{"a Go perA reading {b}", edit("OpDivS", func(o *op) { o.goPerA = "sa := int64({a} + {b})" }),
			"OpDivS: an operand-only part reads {b}"},
		{"a reuse whose forms differ", edit("OpMAnd", func(o *op) { o.comm = false }),
			"OpMAnd: reuses And, whose forms [VV VI] differ from its own [VV VI IV]"},
		{"a unary reuse of a binary row", edit("OpMNot", func(o *op) { o.name = "Xor" }),
			"OpMNot: reuses Xor, whose forms [VV VI] differ from its own [VV]"},
	} {
		_, err := generate(tc.rows, names)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.what, err, tc.want)
		}
	}
}
