package symb

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// FuzzSessionFork drives random interleavings of Assert, AssertConjunct,
// SetDomain, SetDomains, Fork and ForkInto over a growing family of
// sessions on one engine — asserting on a parent after forking it,
// forking forks, forking often enough that the layered tables flatten,
// and recycling discarded sessions as new children — and holds every
// session to its own history: after each operation, every live
// session's verdict and witness must equal a fresh Solver.SolveContext
// over the constraints and domains that session has seen. A session's
// answers depend only on its own history, so no operation on one session
// may change another's: in particular, recycling a discarded session
// must leave its old parent and every live sibling as they were.
//
// A recycled child must also be the state a plain Fork would have made:
// its memo key equals that of a Fork of the same parent taken at the
// same moment, and of a fresh solve's state over its history.
//
// Symbols arrive over time, so parents and children both add names and
// slots after a fork; each is bounded by a universe domain the moment a
// session first meets it, as FuzzSolverEquivalence bounds its symbols,
// so an order cycle is refuted by propagation within a few rounds.
func FuzzSessionFork(f *testing.F) {
	// An op byte decodes as op % 6, 5 being ForkInto. The first four
	// seeds and the checked-in corpus entry 1a9ce5a02977f9b1 predate
	// ForkInto and use bytes 0–4 only, each meaning what it did when the
	// decoder was op % 5, so they still replay the same sequences.
	f.Add(int64(1), []byte{0, 4, 0, 0, 1, 4, 0, 2, 4, 1, 0})
	f.Add(int64(7), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add(int64(42), []byte{2, 3, 4, 0, 1, 4, 4, 4, 3, 2, 1, 0, 4, 4, 1, 1})
	f.Add(int64(-3), []byte{4, 0, 4, 0, 4, 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 1})
	f.Add(int64(11), []byte{4, 0, 4, 1, 5, 0, 5, 2, 11, 0, 4, 4, 17, 1, 5, 3, 23, 0})
	f.Add(int64(5), []byte{4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 0, 1, 5, 2, 3, 5, 5, 0})
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
			s      *Session
			parent *history
			cs     []Expr
			dom    map[string]Domain
		}
		eng := NewIncremental()
		root := &history{s: eng.NewSession(), dom: map[string]Domain{"a": universe, "b": universe}}
		root.s.SetDomains(sortedDomains(root.dom))
		live := []*history{root}
		// dead holds retired sessions: nothing reads them again, so one
		// with no live descendant may be recycled.
		var dead []*history
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
		hasLiveDescendant := func(x *history) bool {
			for _, l := range live {
				for a := l.parent; a != nil; a = a.parent {
					if a == x {
						return true
					}
				}
			}
			return false
		}
		child := func(h *history, s *Session) {
			if len(live) == 8 {
				dead = append(dead, live[0]) // retire the oldest; its descendants stay
				live = live[1:]
			}
			live = append(live, &history{s: s, parent: h, cs: slices.Clone(h.cs), dom: maps.Clone(h.dom)})
		}
		// recyclable removes and returns a session ForkInto may
		// overwrite: a retired one with no live descendant, or else a
		// live leaf other than h, retired on the spot; nil if none.
		recyclable := func(h *history) *history {
			for i, x := range dead {
				if !hasLiveDescendant(x) {
					dead = slices.Delete(dead, i, i+1)
					return x
				}
			}
			for i, x := range live {
				if x != h && !hasLiveDescendant(x) {
					live = slices.Delete(live, i, i+1)
					return x
				}
			}
			return nil
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
			switch op % 6 {
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
			case 4:
				child(h, h.s.Fork())
				step = fmt.Sprintf("op %d: Fork", i)
			default:
				dst := recyclable(h)
				if dst == nil {
					child(h, h.s.Fork())
					step = fmt.Sprintf("op %d: Fork (nothing to recycle)", i)
					break
				}
				s := h.s.ForkInto(dst.s)
				if s != dst.s {
					t.Fatalf("op %d: ForkInto returned a new session", i)
				}
				child(h, s)
				step = fmt.Sprintf("op %d: ForkInto", i)
				twin := h.s.Fork()
				if got, want := s.prep.memoKey(DefaultSamples), twin.prep.memoKey(DefaultSamples); got != want {
					t.Fatalf("after %s: recycled child's memo key %+v, a plain fork's %+v", step, got, want)
				}
				if fresh := prepare(h.cs, h.dom); !fresh.unsat && !s.prep.unsat {
					if got, want := s.prep.memoKey(DefaultSamples), fresh.memoKey(DefaultSamples); got != want {
						t.Fatalf("after %s: recycled child's memo key %+v, a fresh solve's %+v\nconstraints %s\ndomains %v",
							step, got, want, ConjString(h.cs), h.dom)
					}
				}
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
// amount over a 20-constraint and a 400-constraint prefix. Forking into
// the previous, discarded child (ForkInto) does not even copy the
// prefix's per-slot arrays into fresh memory: past the first fork it
// allocates fewer bytes than the smallest of them, the 400-slot domain
// array, would take.
func TestForkAllocsIndependentOfPrefix(t *testing.T) {
	ctx := context.Background()
	sv := &Solver{MaxNodes: 20000, Samples: 24}
	suffix := []Expr{B(Eq, S("y"), C(7))}
	prefix := func(n int) *Session {
		parent := NewIncremental().NewSession()
		for i := 0; i < n; i++ {
			x := fmt.Sprintf("x%d", i)
			parent.SetDomain(x, Word)
			parent.Assert(B(Ult, S(x), C(uint64(1000+i))))
		}
		return parent
	}
	query := func(child *Session) {
		child.AssertAll(suffix)
		if !child.FeasibleContext(ctx, sv) {
			t.Fatal("feasible fork refuted")
		}
	}
	allocs := func(n int) float64 {
		parent := prefix(n)
		return testing.AllocsPerRun(50, func() { query(parent.Fork()) })
	}
	small, large := allocs(20), allocs(400)
	t.Logf("fork + assert + feasibility: %.0f allocations over 20 constraints, %.0f over 400", small, large)
	if d := large - small; d > 2 || d < -2 {
		t.Errorf("allocations grow with the prefix: %.0f over 20 constraints, %.0f over 400", small, large)
	}

	const n, runs = 400, 50
	parent := prefix(n)
	var child *Session
	recycle := func() {
		child = parent.ForkInto(child)
		query(child)
	}
	recycle() // the first fork has no child to recycle
	recycledAllocs := testing.AllocsPerRun(runs, recycle)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recycle()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	domArray := uint64(n) * uint64(reflect.TypeOf(Domain{}).Size())
	t.Logf("recycled fork + assert + feasibility over %d constraints: %.0f allocations, %d bytes (a fresh fork: %.0f allocations)",
		n, recycledAllocs, bytes, large)
	if bytes >= domArray {
		t.Errorf("a recycled fork allocates %d bytes, at least the %d of the prefix's domain array", bytes, domArray)
	}
	if recycledAllocs > large-3 {
		t.Errorf("a recycled fork makes %.0f allocations, a fresh one %.0f: the child, its slot and domain arrays are not reused", recycledAllocs, large)
	}
}
