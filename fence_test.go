package gobolt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	forbidSpellings(t, retiredSolverKnobs)
}

// retiredAnalysisOptions are the spellings of the analysis options no
// caller set — the generator's feasibility budgets, bolt's flags for
// them, and the functions that turned their zero values back into the
// fixed budgets — and of the chain-composition entry points that
// ComposeMany replaced.
var retiredAnalysisOptions = []string{
	"FeasibilityMaxNodes", "FeasibilitySamples", "feas-nodes", "feas-samples",
	"composeSolver", "shardFeasSolver", "ComposeWithPaths", "ComposeManyContext",
}

// TestRetiredAnalysisOptionsStayGone fails if a non-test Go file outside
// bench/ mentions any of retiredAnalysisOptions, if core.Generator has
// any settable field beyond its six, if nfir.Engine exports any field
// but Models, or if core exports Compose or Generator.GenerateWithPaths
// again (names the spelling list cannot catch: they prefix live ones).
func TestRetiredAnalysisOptionsStayGone(t *testing.T) {
	forbidSpellings(t, retiredAnalysisOptions)

	fields := func(dir, typ string) []string {
		var out []string
		for _, f := range parsePackage(t, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typ {
					return true
				}
				for _, fl := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							out = append(out, name.Name)
						}
					}
				}
				return false
			})
		}
		return out
	}
	want := []string{"Level", "CallPadIC", "CallPadMA", "Coalesce", "Parallelism", "Cache"}
	if got := fields("internal/core", "Generator"); !slices.Equal(got, want) {
		t.Errorf("core.Generator's settable fields are %v, want %v", got, want)
	}
	if got := fields("internal/nfir", "Engine"); !slices.Equal(got, []string{"Models"}) {
		t.Errorf("nfir.Engine exports %v, want only Models", got)
	}
	for _, f := range parsePackage(t, "internal/core") {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && (fn.Name.Name == "Compose" || fn.Name.Name == "GenerateWithPaths") {
				t.Errorf("internal/core declares %s again; chains compose through ComposeMany", fn.Name.Name)
			}
		}
	}
}

// forbidSpellings fails the test for every line of a non-test Go file
// outside bench/ that mentions one of spellings, in code or in a comment.
func forbidSpellings(t *testing.T, spellings []string) {
	t.Helper()
	walkNonTestGo(t, func(path, src string) {
		for i, line := range strings.Split(src, "\n") {
			for _, s := range spellings {
				if strings.Contains(line, s) {
					t.Errorf("%s:%d mentions %q: %s", path, i+1, s, strings.TrimSpace(line))
				}
			}
		}
	})
}

// parsePackage parses the non-test Go files of one package directory.
func parsePackage(t *testing.T, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s; is the test running from the repository root?", dir)
	}
	return files
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
