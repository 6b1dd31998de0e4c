package gobolt

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// retiredSolverKnobs are the spellings of the second solver engine that
// production code used to switch on: the generator's and the symbolic
// engine's NoIncremental, the generator's SkipReplay, and the solver's
// Reference field with the tree walk it selected. The reference solver
// lives on only in internal/symb's tests, as an oracle.
var retiredSolverKnobs = []string{"NoIncremental", "SkipReplay", "referenceSolve", "Reference:", "Solver.Reference"}

// TestRetiredSolverKnobsStayGone fails if a non-test Go file outside
// bench/ mentions any of retiredSolverKnobs, in code or in a comment.
// bench/ keeps its own fence in bench/bench_test.go.
func TestRetiredSolverKnobsStayGone(t *testing.T) {
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
		for i, line := range strings.Split(string(src), "\n") {
			for _, knob := range retiredSolverKnobs {
				if strings.Contains(line, knob) {
					t.Errorf("%s:%d mentions %q: %s", path, i+1, knob, strings.TrimSpace(line))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("walked only %d non-test Go files; is the test running from the repository root?", checked)
	}
}
