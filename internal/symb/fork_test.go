package symb

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSessionFork drives random interleavings of Assert, AssertConjunct,
// SetDomain, SetDomains and Fork over a growing family of sessions on one
// engine — asserting on a parent after forking it, forking forks, and
// forking often enough that the layered tables flatten — and holds every
// session to its own history: after each operation, every live
// session's verdict and witness must equal a fresh Solver.SolveContext
// over the constraints and domains that session has seen. A session's
// answers depend only on its own history, so no operation on one session
// may change another's.
//
// Symbols arrive over time, so parents and children both add names and
// slots after a fork; each is bounded by a universe domain the moment a
// session first meets it, as FuzzSolverEquivalence bounds its symbols:
// interval propagation of an order cycle over unbounded domains would
// not finish in either engine.
func FuzzSessionFork(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 0, 0, 1, 9, 0, 2, 4, 1, 0})
	f.Add(int64(7), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 1, 2, 3, 5, 6, 7, 8})
	f.Add(int64(42), []byte{2, 3, 4, 0, 1, 4, 9, 9, 3, 2, 1, 0, 4, 4, 1, 1})
	f.Add(int64(-3), []byte{4, 0, 4, 5, 4, 10, 1, 6, 2, 7, 3, 8, 0, 4, 14, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d", "e"}
		universe := Domain{Lo: 0, Hi: 31}
		randDom := func() Domain {
			lo := uint64(r.Intn(24))
			return Domain{Lo: lo, Hi: lo + uint64(r.Intn(16))}
		}
		randCons := func() Expr {
			if r.Intn(3) == 0 {
				// Bring in c, d or e, alone or against another symbol.
				ops := []Op{Eq, Ne, Ult, Ule, Ugt, Uge}
				var rhs Expr = C(uint64(r.Intn(32)))
				if r.Intn(2) == 0 {
					rhs = S(names[r.Intn(len(names))])
				}
				return B(ops[r.Intn(len(ops))], S(names[2+r.Intn(3)]), rhs)
			}
			return randomBoolExpr(r, r.Intn(2))
		}

		type history struct {
			s   *Session
			cs  []Expr
			dom map[string]Domain
		}
		eng := NewIncremental()
		root := &history{s: eng.NewSession(), dom: map[string]Domain{"a": universe, "b": universe}}
		root.s.SetDomains(sortedDomains(root.dom))
		live := []*history{root}
		narrow := func(h *history, n string, d Domain) {
			old, ok := h.dom[n]
			if !ok {
				old = Full
			}
			nd, ok := old.intersect(d)
			if !ok {
				nd = Domain{Lo: 1, Hi: 0} // empty: the fresh solve refutes it too
			}
			h.dom[n] = nd
		}
		introduce := func(h *history, c Expr) {
			for _, n := range Symbols(c) {
				if _, ok := h.dom[n]; !ok {
					h.s.SetDomain(n, universe)
					h.dom[n] = universe
				}
			}
		}

		var sv Solver
		ctx := context.Background()
		check := func(h *history, step string) {
			wantM, wantR := sv.SolveContext(ctx, h.cs, h.dom)
			gotM, gotR := h.s.SolveContext(ctx, &sv)
			if gotR != wantR || !maps.Equal(gotM, wantM) {
				t.Fatalf("after %s: session %v %v, fresh %v %v\nconstraints %s\ndomains %v",
					step, gotR, gotM, wantR, wantM, ConjString(h.cs), h.dom)
			}
			if !h.s.FeasibleContext(ctx, &sv) != (wantR == Unsat) {
				t.Fatalf("after %s: feasibility disagrees with verdict %v", step, wantR)
			}
		}

		for i, op := range ops {
			h := live[r.Intn(len(live))]
			var step string
			switch op % 5 {
			case 0:
				c := randCons()
				introduce(h, c)
				h.s.Assert(c)
				h.cs = append(h.cs, c)
				step = fmt.Sprintf("op %d: Assert(%s)", i, c)
			case 1:
				c := randCons()
				introduce(h, c)
				h.s.AssertConjunct(Analyse(c))
				h.cs = append(h.cs, c)
				step = fmt.Sprintf("op %d: AssertConjunct(%s)", i, c)
			case 2:
				n, d := names[r.Intn(len(names))], randDom()
				h.s.SetDomain(n, d)
				narrow(h, n, d)
				step = fmt.Sprintf("op %d: SetDomain(%s, %v)", i, n, d)
			case 3:
				ds := map[string]Domain{names[r.Intn(len(names))]: randDom(), names[r.Intn(len(names))]: randDom()}
				h.s.SetDomains(sortedDomains(ds))
				for n, d := range ds {
					narrow(h, n, d)
				}
				step = fmt.Sprintf("op %d: SetDomains(%v)", i, ds)
			default:
				if len(live) == 8 {
					live = live[1:] // retire the oldest; its descendants stay
				}
				live = append(live, &history{s: h.s.Fork(), cs: append([]Expr(nil), h.cs...), dom: maps.Clone(h.dom)})
				step = fmt.Sprintf("op %d: Fork", i)
			}
			for _, x := range live {
				check(x, step)
			}
		}
	})
}

// sortedDomains lists a domain map in name order, for Session.SetDomains.
func sortedDomains(m map[string]Domain) []NamedDomain {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	out := make([]NamedDomain, len(names))
	for i, n := range names {
		out[i] = NamedDomain{Name: n, Domain: m[n]}
	}
	return out
}

// A feasibility check builds no witness, so the memo entry it leaves
// has none: a later SolveContext of the same set must solve again and
// return the fresh solve's witness, not a nil model — and a repeated
// FeasibleContext is still a hit.
func TestFeasibilityHitThenSolveContext(t *testing.T) {
	cs := []Expr{B(Ult, S("x"), C(50)), B(Eq, B(And, S("y"), C(0xF0)), C(0x40))}
	dom := map[string]Domain{"x": {Lo: 10, Hi: 200}, "y": Byte}
	eng := NewIncremental()
	build := func() *Session {
		s := eng.NewSession()
		s.SetDomains(sortedDomains(dom))
		s.AssertAll(cs)
		return s
	}
	var sv Solver
	ctx := context.Background()
	if !build().FeasibleContext(ctx, &sv) {
		t.Fatal("satisfiable set reported infeasible")
	}
	if !build().FeasibleContext(ctx, &sv) {
		t.Fatal("memo replay reported infeasible")
	}
	if st := eng.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after two feasibility checks: %+v, want 1 hit / 1 miss", st)
	}
	got, res := build().SolveContext(ctx, &sv)
	want, wantRes := sv.SolveContext(ctx, cs, dom)
	if res != Sat || wantRes != Sat || !maps.Equal(got, want) {
		t.Fatalf("SolveContext after a feasibility hit: %v %v, fresh %v %v", got, res, want, wantRes)
	}
	if st := eng.Stats(); st.Misses != 2 {
		t.Fatalf("a witness-less entry served SolveContext: %+v", st)
	}
	// The solve upgraded the entry: witnesses now replay from the memo.
	again, _ := build().SolveContext(ctx, &sv)
	if !maps.Equal(again, want) {
		t.Fatalf("replayed witness %v, want %v", again, want)
	}
	if st := eng.Stats(); st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("after the upgrade: %+v, want 2 hits / 1 entry", st)
	}
}

// A fork costs what the child adds, not what the parent holds: forking,
// asserting one conjunct and checking feasibility allocates the same
// amount over a 20-constraint and a 400-constraint prefix.
func TestForkAllocsIndependentOfPrefix(t *testing.T) {
	ctx := context.Background()
	sv := &Solver{MaxNodes: 20000, Samples: 24}
	allocs := func(n int) float64 {
		parent := NewIncremental().NewSession()
		for i := 0; i < n; i++ {
			x := fmt.Sprintf("x%d", i)
			parent.SetDomain(x, Word)
			parent.Assert(B(Ult, S(x), C(uint64(1000+i))))
		}
		suffix := []Expr{B(Eq, S("y"), C(7))}
		return testing.AllocsPerRun(50, func() {
			child := parent.Fork()
			child.AssertAll(suffix)
			if !child.FeasibleContext(ctx, sv) {
				t.Fatal("feasible fork refuted")
			}
		})
	}
	small, large := allocs(20), allocs(400)
	t.Logf("fork + assert + feasibility: %.0f allocations over 20 constraints, %.0f over 400", small, large)
	if d := large - small; d > 2 || d < -2 {
		t.Errorf("allocations grow with the prefix: %.0f over 20 constraints, %.0f over 400", small, large)
	}
}
