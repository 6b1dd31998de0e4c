package symb

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// Regression for the zero-search-variable case: a provably false ground
// constraint must be Unsat, not Unknown. The legacy solver built a
// search over zero variables, found every (vacuous) candidate list
// "incomplete", and punted to Unknown.
func TestSolveGroundFalseIsUnsat(t *testing.T) {
	var s Solver
	cases := [][]Expr{
		{Bin{Op: Eq, L: Const{V: 1}, R: Const{V: 2}}},
		{B(Ult, C(10), C(5))},
		{B(Eq, S("x"), C(3)), Bin{Op: Ne, L: Const{V: 7}, R: Const{V: 7}}},
	}
	for i, cs := range cases {
		if _, res := s.Solve(cs, map[string]Domain{"x": Byte}); res != Unsat {
			t.Errorf("case %d: ground-false constraints gave %v, want Unsat", i, res)
		}
	}
	// Ground-true constraints must not poison an otherwise-Sat system.
	m, res := s.Solve([]Expr{C(1), Bin{Op: Eq, L: Const{V: 4}, R: Const{V: 4}}, B(Eq, S("x"), C(9))},
		map[string]Domain{"x": Byte})
	if res != Sat || m["x"] != 9 {
		t.Errorf("ground-true mixed system: %v %v", m, res)
	}
}

// A session must reach the same verdict and witness as a fresh solve
// over the same constraints and domains.
func sessionVsFresh(t *testing.T, cs []Expr, dom map[string]Domain) {
	t.Helper()
	eng := NewIncremental()
	sess := eng.NewSession()
	for n, d := range dom {
		sess.SetDomain(n, d)
	}
	for _, c := range cs {
		sess.Assert(c)
	}
	var sv Solver
	gotM, gotR := sess.SolveContext(context.Background(), &sv)
	wantM, wantR := sv.Solve(cs, dom)
	if gotR != wantR {
		t.Fatalf("session verdict %v, fresh %v for %s", gotR, wantR, ConjString(cs))
	}
	if len(gotM) != len(wantM) {
		t.Fatalf("session model %v, fresh %v", gotM, wantM)
	}
	for k, v := range wantM {
		if gotM[k] != v {
			t.Fatalf("session model %v, fresh %v", gotM, wantM)
		}
	}
}

func TestSessionMatchesFreshSolve(t *testing.T) {
	sessionVsFresh(t, []Expr{B(Eq, S("etherType"), C(0x0800))}, map[string]Domain{"etherType": Word})
	sessionVsFresh(t, []Expr{B(Ult, S("x"), C(5)), B(Ugt, S("x"), C(10))}, map[string]Domain{"x": Byte})
	sessionVsFresh(t, []Expr{B(Uge, S("l"), C(25)), B(Ule, S("l"), C(32))}, map[string]Domain{"l": Byte})
	// Symbol-symbol equality exercises the union-find rebuild.
	sessionVsFresh(t, []Expr{
		B(Eq, S("a"), S("b")),
		B(Eq, S("b"), C(42)),
	}, map[string]Domain{"a": Byte, "b": Byte})
	// A union asserted after other constraints rebuilds the prepared state.
	sessionVsFresh(t, []Expr{
		B(Ult, S("a"), C(50)),
		B(Eq, S("b"), C(42)),
		B(Eq, S("a"), S("b")),
	}, map[string]Domain{"a": Byte, "b": Byte})
	// Conjunction flattening inside a session.
	sessionVsFresh(t, []Expr{B(LAnd, B(Eq, S("x"), C(3)), B(Eq, S("y"), C(4)))},
		map[string]Domain{"x": Byte, "y": Byte})
}

// Property: incremental sessions agree with fresh solves on random
// conjunctions, constraint by constraint as they accumulate.
func TestSessionMatchesFreshProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dom := map[string]Domain{"a": {0, 15}, "b": {0, 15}}
		eng := NewIncremental()
		sess := eng.NewSession()
		for n, d := range dom {
			sess.SetDomain(n, d)
		}
		var cs []Expr
		for i := 0; i < 1+r.Intn(4); i++ {
			c := randomBoolExpr(r, 1)
			cs = append(cs, c)
			sess.Assert(c)
			var sv Solver
			gotM, gotR := sess.Fork().SolveContext(context.Background(), &sv)
			wantM, wantR := sv.Solve(cs, dom)
			if gotR != wantR {
				return false
			}
			for k, v := range wantM {
				if gotM[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Forked sessions must not observe each other's asserts.
func TestSessionForkIsolation(t *testing.T) {
	eng := NewIncremental()
	root := eng.NewSession()
	root.SetDomain("x", Byte)
	root.Assert(B(Ult, S("x"), C(100)))

	tr := root.Fork()
	fa := root.Fork()
	tr.Assert(B(Eq, S("x"), C(7)))
	fa.Assert(B(Eq, S("x"), C(8)))

	var sv Solver
	ctx := context.Background()
	if m, r := tr.SolveContext(ctx, &sv); r != Sat || m["x"] != 7 {
		t.Fatalf("true branch: %v %v", m, r)
	}
	if m, r := fa.SolveContext(ctx, &sv); r != Sat || m["x"] != 8 {
		t.Fatalf("false branch: %v %v", m, r)
	}
	// The parent is untouched by either child.
	if m, r := root.SolveContext(ctx, &sv); r != Sat || m["x"] >= 100 {
		t.Fatalf("root after forks: %v %v", m, r)
	}

	// Contradiction in one child must not leak into its sibling.
	c1 := root.Fork()
	c1.Assert(B(Ugt, S("x"), C(200)))
	if _, r := c1.SolveContext(ctx, &sv); r != Unsat {
		t.Fatalf("contradicted child: %v", r)
	}
	c2 := root.Fork()
	if _, r := c2.SolveContext(ctx, &sv); r != Sat {
		t.Fatalf("sibling after contradiction: %v", r)
	}
}

// Two sessions with the same constraint set share one memo entry; the
// second solve is a hit and returns an identical verdict and model.
func TestIncrementalMemoHit(t *testing.T) {
	eng := NewIncremental()
	build := func() *Session {
		s := eng.NewSession()
		s.SetDomain("x", Byte)
		s.SetDomain("y", Byte)
		// Assert in different orders: the memo key is order-independent.
		return s
	}
	a := build()
	a.Assert(B(Ult, S("x"), C(50)))
	a.Assert(B(Eq, S("y"), C(4)))
	b := build()
	b.Assert(B(Eq, S("y"), C(4)))
	b.Assert(B(Ult, S("x"), C(50)))

	var sv Solver
	ctx := context.Background()
	m1, r1 := a.SolveContext(ctx, &sv)
	m2, r2 := b.SolveContext(ctx, &sv)
	if r1 != r2 || m1["x"] != m2["x"] || m1["y"] != m2["y"] {
		t.Fatalf("memo replay diverged: %v %v vs %v %v", m1, r1, m2, r2)
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// The replayed model is a copy: mutating it must not corrupt the memo.
	m2["x"] = 999
	m3, _ := build().SolveContext(ctx, &sv)
	_ = m3 // building asserts nothing; just exercise the path
	c := build()
	c.Assert(B(Ult, S("x"), C(50)))
	c.Assert(B(Eq, S("y"), C(4)))
	m4, _ := c.SolveContext(ctx, &sv)
	if m4["x"] == 999 {
		t.Fatal("memo entry aliased a returned model")
	}
}

// A cancelled solve must never be memoized: a later uncancelled solve of
// the same set must run for real and find the right verdict.
func TestIncrementalCancelledNotMemoized(t *testing.T) {
	eng := NewIncremental()
	build := func() *Session {
		s := eng.NewSession()
		s.SetDomain("x", Byte)
		s.Assert(B(Eq, B(And, S("x"), C(0xF0)), C(0x40)))
		return s
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, r := build().SolveContext(cancelled, &Solver{}); r != Unknown {
		t.Fatalf("cancelled solve: %v, want Unknown", r)
	}
	if st := eng.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled solve was memoized: %+v", st)
	}
	if m, r := build().SolveContext(context.Background(), &Solver{}); r != Sat || m["x"]&0xF0 != 0x40 {
		t.Fatalf("post-cancel solve: %v %v", m, r)
	}
}

// Truncated (budget-exhausted) memo entries may only be replayed as
// Unknown, and only for budgets no larger than the recorded one; a
// bigger budget must re-search and may find the witness.
func TestIncrementalTruncationSoundness(t *testing.T) {
	eng := NewIncremental()
	build := func() *Session {
		s := eng.NewSession()
		s.SetDomain("x", Domain{0, 511})
		s.SetDomain("y", Domain{0, 511})
		s.Assert(B(Eq, B(Add, S("x"), S("y")), C(1000)))
		return s
	}
	ctx := context.Background()
	small := &Solver{MaxNodes: 50, Samples: 4}
	if _, r := build().SolveContext(ctx, small); r != Unknown {
		t.Fatalf("tiny budget: %v, want Unknown", r)
	}
	// Same budget again: replayed as Unknown from the memo.
	if _, r := build().SolveContext(ctx, small); r != Unknown {
		t.Fatalf("replayed tiny budget: %v, want Unknown", r)
	}
	if st := eng.Stats(); st.Hits != 1 {
		t.Fatalf("truncated entry not replayed: %+v", st)
	}
	// A larger budget must not reuse the truncated entry.
	big := &Solver{MaxNodes: 2_000_000, Samples: 4}
	m, r := build().SolveContext(ctx, big)
	if r != Sat || m["x"]+m["y"] != 1000 {
		t.Fatalf("big budget after truncated memo: %v %v, want Sat", m, r)
	}
	// And the completed search upgrades the entry: the tiny budget now
	// replays the recorded verdict only if it fits, else re-searches.
	if _, r := build().SolveContext(ctx, small); r == Sat {
		// Only legal if the completed search used <= 50 nodes, which it
		// did not for a 512x512 space.
		t.Fatalf("tiny budget claimed Sat it could not have found")
	}
}

// Sessions must replicate the ground-false Unsat through Known().
func TestSessionKnownUnsat(t *testing.T) {
	eng := NewIncremental()
	s := eng.NewSession()
	if r, ok := s.Known(); ok || r != Unknown {
		t.Fatalf("empty session Known = %v %v", r, ok)
	}
	s.SetDomain("x", Byte)
	s.Assert(B(Ult, S("x"), C(5)))
	s.Assert(B(Ugt, S("x"), C(10)))
	if r, ok := s.Known(); !ok || r != Unsat {
		t.Fatalf("contradiction Known = %v %v, want Unsat", r, ok)
	}
	if s.FeasibleContext(context.Background(), &Solver{}) {
		t.Fatal("contradicted session reported feasible")
	}
}

// The compiled evaluator must agree with the tree-walking Eval on
// random expressions and bindings (unit form of FuzzSolverEquivalence).
func TestCompiledEvalMatchesTree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomBoolExpr(r, 3)
		cs := CompileSet(e)
		vals := make([]uint64, len(cs.Slots()))
		bind := make(map[string]uint64, len(vals))
		for i, n := range cs.Slots() {
			v := uint64(r.Intn(64))
			vals[i] = v
			bind[n] = v
		}
		return cs.Eval(0, vals) == e.Eval(bind)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}
