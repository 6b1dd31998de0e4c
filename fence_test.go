package gobolt

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// walkNonTestGo calls visit with the path and source of every non-test
// Go file outside bench/ and testdata. bench/ keeps its own fence in
// bench/bench_test.go.
func walkNonTestGo(t *testing.T, visit func(path, src string)) {
	t.Helper()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "bench", "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		visit(path, string(src))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("walked only %d non-test Go files; is the test running from the repository root?", checked)
	}
}

// retiredSolverKnobs are the spellings of the second solver engine that
// production code used to switch on: the generator's and the symbolic
// engine's NoIncremental, the generator's SkipReplay, and the solver's
// Reference field with the tree walk it selected. The reference solver
// lives on only in internal/symb's tests, as an oracle.
var retiredSolverKnobs = []string{"NoIncremental", "SkipReplay", "referenceSolve", "Reference:", "Solver.Reference"}

// TestRetiredSolverKnobsStayGone fails if a non-test Go file outside
// bench/ mentions any of retiredSolverKnobs, in code or in a comment.
func TestRetiredSolverKnobsStayGone(t *testing.T) {
	walkNonTestGo(t, func(path, src string) {
		for i, line := range strings.Split(src, "\n") {
			for _, knob := range retiredSolverKnobs {
				if strings.Contains(line, knob) {
					t.Errorf("%s:%d mentions %q: %s", path, i+1, knob, strings.TrimSpace(line))
				}
			}
		}
	})
}

// TestNoUnsafeOutsideBench fails if a non-test Go file outside bench/
// imports "unsafe" or mentions bodyGuard, the per-packet re-check of a
// mutable program body that once needed it. A Program is immutable once
// nfir.NewProgram builds it, so nothing has to watch it.
func TestNoUnsafeOutsideBench(t *testing.T) {
	walkNonTestGo(t, func(path, src string) {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
		if err != nil {
			t.Error(err)
			return
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				t.Errorf("%s imports unsafe", path)
			}
		}
		if strings.Contains(src, "bodyGuard") {
			t.Errorf("%s mentions bodyGuard", path)
		}
	})
}
