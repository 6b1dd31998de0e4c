package gobolt

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
// fixed budgets — and of the composition entry points ComposeMany
// replaced or outlived: chains compose one way, through its fold, so
// neither the DAG composer nor the recipe-key helpers only it used come
// back.
var retiredAnalysisOptions = []string{
	"FeasibilityMaxNodes", "FeasibilitySamples", "feas-nodes", "feas-samples",
	"composeSolver", "shardFeasSolver", "ComposeWithPaths", "ComposeManyContext",
	"ComposeDAG", "derivedKey", "composeTag",
}

// TestRetiredAnalysisOptionsStayGone fails if a non-test Go file outside
// bench/ mentions any of retiredAnalysisOptions, if core.Generator has
// any settable field beyond its six, if nfir.Engine exports any field
// but Models, or if core declares Compose, ComposeDAG or
// Generator.GenerateWithPaths again (the first and last are names the
// spelling list cannot catch: they prefix live ones).
func TestRetiredAnalysisOptionsStayGone(t *testing.T) {
	forbidSpellings(t, retiredAnalysisOptions)

	want := []string{"Level", "CallPadIC", "CallPadMA", "Coalesce", "Parallelism", "Cache"}
	if got := exportedFields(t, "internal/core", "Generator"); !slices.Equal(got, want) {
		t.Errorf("core.Generator's settable fields are %v, want %v", got, want)
	}
	if got := exportedFields(t, "internal/nfir", "Engine"); !slices.Equal(got, []string{"Models"}) {
		t.Errorf("nfir.Engine exports %v, want only Models", got)
	}
	for _, f := range parsePackage(t, "internal/core") {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && (fn.Name.Name == "Compose" || fn.Name.Name == "ComposeDAG" || fn.Name.Name == "GenerateWithPaths") {
				t.Errorf("internal/core declares %s again; chains compose through ComposeMany", fn.Name.Name)
			}
		}
	}
}

// retiredIngestOptions are the spellings of the sharded monitor's
// hand-written lock-free ring and of the queue-depth knob only the ring
// needed: each shard's ingest hop is a pair of buffered channels of
// fixed depth.
var retiredIngestOptions = []string{"internal/ring", "ring.SPSC", "MonitorQueue", "Queue:"}

// TestRetiredIngestOptionsStayGone fails if a non-test Go file outside
// bench/ mentions any of retiredIngestOptions, or if monitor.Config's
// settable fields are not exactly today's: a new ingest knob has to be
// added here on purpose.
func TestRetiredIngestOptionsStayGone(t *testing.T) {
	forbidSpellings(t, retiredIngestOptions)

	want := []string{
		"Metric", "Budget", "ClockHz", "TargetPPS", "Trigger", "Clear", "Level", "Detailed",
		"Shards", "Batch", "FlushStall", "FlowHash", "ShardAware", "OnAlert", "OnClassify",
	}
	if got := exportedFields(t, "internal/monitor", "Config"); !slices.Equal(got, want) {
		t.Errorf("monitor.Config's settable fields are %v, want %v", got, want)
	}
}

// exportedFields lists, in declaration order, the exported fields of
// struct type typ in the package at dir.
func exportedFields(t *testing.T, dir, typ string) []string {
	t.Helper()
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

// TestPCVRangesNeverWritten fails if a non-test Go file outside bench/
// writes into a PCVRanges map it did not make itself, or hands one to a
// function not known to only read it. Chain composition interns the
// PCV-range maps of joined paths, so many paths of one composite share
// each map, as the paths of a decoded contract share the codec's ranges
// table: a write through one path would change them all.
//
// The check is syntactic and per function; see pcvRangesWrites for what
// it does not follow.
func TestPCVRangesNeverWritten(t *testing.T) {
	walkNonTestGo(t, func(path, src string) {
		for _, w := range pcvRangesWrites(t, path, src) {
			t.Errorf("%s may write into a shared PCVRanges map: %s", path, w)
		}
	})
}

// The checker itself: each write form it must catch, and the uses it
// allows — writes into a map the function made before them, and calls
// that only read.
func TestPCVRangesWritesChecker(t *testing.T) {
	src := `package p
func writes(p, q *PathContract, v string, r Range) {
	p.PCVRanges[v] = r
	delete(q.PCVRanges, v)
	clear(p.PCVRanges)
	maps.Copy(p.PCVRanges, q.PCVRanges)
	m := q.PCVRanges
	m[v] = r
	fill(q.PCVRanges)
	fill(m)
}
func fresh(p *PathContract, v string, r Range) {
	p.PCVRanges[v] = r
	p.PCVRanges = make(map[string]Range)
	p.PCVRanges[v] = r
	fill(p.PCVRanges)
	m := maps.Clone(p.PCVRanges)
	m[v] = r
	_ = p.PCVRanges[v]
	_ = len(p.PCVRanges)
	m = p.PCVRanges
	m[v] = r
}
`
	got := pcvRangesWrites(t, "p.go", src)
	want := []string{
		"line 3: p.PCVRanges", "line 4: q.PCVRanges", "line 5: p.PCVRanges",
		"line 6: p.PCVRanges", "line 8: m", "line 9: q.PCVRanges passed to fill",
		"line 10: m passed to fill",
		"line 13: p.PCVRanges", "line 22: m",
	}
	if !slices.Equal(got, want) {
		t.Errorf("checker found %q, want %q", got, want)
	}
}

// pcvRangeReaders are the callees a shared PCVRanges map may be passed
// to: each only reads its map arguments.
var pcvRangeReaders = map[string]bool{
	"len": true, "maps.Clone": true, "maps.Keys": true, "maps.Equal": true,
	"expr.MaxAssuming": true, "expr.CompareAssuming": true,
	"mergeRanges": true, "ranges": true, "rangesKey": true, "jp.jf.ranges.merge": true,
}

// pcvRangesWrites lists the uses in src of a shared PCV-range map: one
// named by a .PCVRanges selector, or by a variable last assigned from
// one, unless the function last assigned that name from make or a
// literal. A use is an index assignment or increment, delete, clear,
// maps.Copy, maps.Insert or maps.DeleteFunc into the map, or passing it
// to any callee outside pcvRangeReaders.
//
// "Last assigned" is in source order, not control flow: a make on one
// branch of an if counts for a write on the other. Aliases are
// followed only through plain assignments within one function, not
// through other struct fields, closures' captured variables or values
// returned by calls, and a map is not tracked before it becomes a
// path's PCVRanges (its maker fills it first).
func pcvRangesWrites(t *testing.T, path, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		other = iota
		fresh // assigned from make or a composite literal
		alias // assigned from a .PCVRanges selector
	)
	type assign struct {
		pos  token.Pos
		kind int
	}
	var out []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		assigns := map[string][]assign{} // per name, in source order
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				kind := other
				switch x := rhs.(type) {
				case *ast.CompositeLit:
					kind = fresh
				case *ast.CallExpr:
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
						kind = fresh
					}
				}
				if strings.HasSuffix(types.ExprString(rhs), ".PCVRanges") {
					kind = alias
				}
				lhs := types.ExprString(as.Lhs[i])
				assigns[lhs] = append(assigns[lhs], assign{as.End(), kind})
			}
			return true
		})
		// shared reports whether name, at pos, may be a path's map.
		shared := func(name string, pos token.Pos) bool {
			last := -1
			for _, a := range assigns[name] {
				if a.pos <= pos {
					last = a.kind
				}
			}
			if strings.HasSuffix(name, ".PCVRanges") {
				return last != fresh
			}
			return last == alias
		}
		report := func(m ast.Expr, how string) {
			if name := types.ExprString(m); shared(name, m.Pos()) {
				out = append(out, fmt.Sprintf("line %d: %s%s", fset.Position(m.Pos()).Line, name, how))
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						report(ix.X, "")
					}
				}
			case *ast.IncDecStmt:
				if ix, ok := x.X.(*ast.IndexExpr); ok {
					report(ix.X, "")
				}
			case *ast.CallExpr:
				args := x.Args
				switch fun := types.ExprString(x.Fun); {
				case len(args) == 0 || pcvRangeReaders[fun]:
				case fun == "delete" || fun == "clear" || strings.HasPrefix(fun, "maps."):
					// maps.Copy and maps.Insert write their first argument
					// and read the second; maps.Clone, Keys and Equal are
					// readers.
					report(args[0], "")
				default:
					for _, a := range args {
						report(a, " passed to "+fun)
					}
				}
			}
			return true
		})
	}
	return out
}

// TestPacketWrittenOnlyThroughStorePkt fails if a non-test Go file
// outside bench/ and internal/nfir writes into a packet buffer's bytes
// (a .Pkt selector) other than through nfir.Env.StorePkt. ResetPacket
// clears the buffer only up to the mark StorePkt raises, so a direct
// write past the packet's end would leak into the next packet.
func TestPacketWrittenOnlyThroughStorePkt(t *testing.T) {
	walkNonTestGo(t, func(path, src string) {
		if filepath.Dir(path) == filepath.Join("internal", "nfir") {
			return
		}
		for _, w := range pktWrites(t, path, src) {
			t.Errorf("%s writes the packet buffer directly: %s", path, w)
		}
	})
}

// The checker itself: each write form it must catch, and the reads it
// allows.
func TestPktWritesChecker(t *testing.T) {
	src := `package p
func writes(env *Env, v byte) {
	env.Pkt[3] = v
	env.Pkt[4] |= v
	env.Pkt[5]++
	copy(env.Pkt[6:], "ab")
	binary.BigEndian.PutUint16(env.Pkt[8:], 1)
	beStore(env.Pkt, 2, 1)
	clear(env.Pkt[10:])
	p := &env.Pkt[11]
	b := env.Pkt[12:]
	_, _ = p, b
}
func reads(env *Env, obs *Obs) {
	_ = env.Pkt[3] == 68
	_ = beLoad(env.Pkt[4:], 2)
	_ = binary.BigEndian.Uint16(env.Pkt[5:])
	copy(hdr, env.Pkt[14:34])
	obs.Pkt = env.Pkt
	env.StorePkt(6, 1, 0)
	_ = FieldValue(obs.Pkt, 0, 2)
}
`
	got := pktWrites(t, "p.go", src)
	want := []string{
		"line 3: env.Pkt[3]", "line 4: env.Pkt[4]", "line 5: env.Pkt[5]",
		"line 6: env.Pkt[6:] passed to copy", "line 7: env.Pkt[8:] passed to binary.BigEndian.PutUint16",
		"line 8: env.Pkt passed to beStore", "line 9: env.Pkt[10:] passed to clear",
		"line 10: &env.Pkt[11]", "line 11: env.Pkt[12:] kept in a variable",
	}
	if !slices.Equal(got, want) {
		t.Errorf("checker found %q, want %q", got, want)
	}
}

// pktWrites lists the writes in src into the bytes behind a .Pkt
// selector: an index assignment or increment, taking an element's
// address, passing the buffer or a slice of it to clear, as copy's
// destination or to a callee whose name starts with "put" or contains "store" (any case),
// and keeping a slice of it in a variable, which the checker does not
// follow.
func pktWrites(t *testing.T, path, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// buffer reports whether e is a .Pkt selector, sliced or indexed.
	buffer := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Pkt"
	}
	var out []string
	report := func(e ast.Expr, how string) {
		out = append(out, fmt.Sprintf("line %d: %s%s", fset.Position(e.Pos()).Line, types.ExprString(e), how))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && buffer(ix) {
					report(lhs, "")
				}
			}
			for _, rhs := range x.Rhs {
				if sl, ok := rhs.(*ast.SliceExpr); ok && buffer(sl) {
					report(rhs, " kept in a variable")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := x.X.(*ast.IndexExpr); ok && buffer(ix) {
				report(x.X, "")
			}
		case *ast.UnaryExpr:
			if ix, ok := x.X.(*ast.IndexExpr); ok && x.Op == token.AND && buffer(ix) {
				report(x, "")
			}
		case *ast.CallExpr:
			fun := types.ExprString(x.Fun)
			name := strings.ToLower(fun[strings.LastIndex(fun, ".")+1:])
			if fun != "copy" && fun != "clear" && !strings.HasPrefix(name, "put") && !strings.Contains(name, "store") {
				return true
			}
			args := x.Args
			if fun == "copy" {
				args = args[:1] // copy reads its second argument
			}
			for _, a := range args {
				if buffer(a) {
					report(a, " passed to "+fun)
				}
			}
		}
		return true
	})
	return out
}
