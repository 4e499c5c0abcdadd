package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGeneratedFilesUpToDate fails when the committed kernel files of
// internal/prog/plan differ from what the generator writes: edit the
// ops table and run `go generate ./internal/prog/plan`, never the
// generated files.
func TestGeneratedFilesUpToDate(t *testing.T) {
	asm, goSrc, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("..", "..", "internal", "prog", "plan")
	for name, want := range map[string][]byte{"kernels_amd64.s": asm, "kernels_amd64.go": goSrc} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: run go generate ./internal/prog/plan", name)
		}
	}
}
