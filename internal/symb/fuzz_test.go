package symb

import (
	"context"
	"maps"
	"math/rand"
	"testing"
)

// FuzzSolverEquivalence is the differential check behind the incremental
// engine: for a random constraint system it requires that
//
//  1. the compiled (postfix) evaluator agrees with the tree-walking
//     Eval on every constraint under a random binding,
//  2. an incremental Session built constraint-by-constraint reaches the
//     same verdict and witness as a fresh Solver.SolveContext — also
//     when its domains arrive after the constraints, or split between
//     a parent session and a fork the way the chain join installs them,
//  3. re-solving through a Fork (memo hit path) never flips a Sat/Unsat
//     verdict, and
//  4. the compiled engine agrees with the independent reference
//     implementation (the pre-incremental solver kept in reference.go)
//     on verdict and witness.
//
// Run with `go test -fuzz=FuzzSolverEquivalence ./internal/symb/`; the
// seed corpus below also runs under plain `go test`.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(4))
	f.Add(int64(-7877226890531368631), uint8(3)) // store-truncation regression seed
	f.Add(int64(987654321), uint8(1))
	f.Add(int64(330), uint8(',')) // b > a ∧ b <= a: the order cycle the universe bound keeps finite

	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		nc := 1 + int(n%5)
		cs := make([]Expr, 0, nc)
		for i := 0; i < nc; i++ {
			cs = append(cs, randomBoolExpr(r, 1+r.Intn(2)))
		}
		dom := map[string]Domain{"a": {0, 15}, "b": {0, 63}}

		// (1) Compiled evaluation == tree evaluation.
		comp := CompileSet(cs...)
		bind := map[string]uint64{"a": uint64(r.Intn(16)), "b": uint64(r.Intn(64))}
		vals := make([]uint64, len(comp.Slots()))
		for i, name := range comp.Slots() {
			vals[i] = bind[name]
		}
		for i, c := range cs {
			got, want := comp.Eval(i, vals), c.Eval(bind)
			if (got != 0) != (want != 0) {
				t.Fatalf("constraint %d: compiled=%d tree=%d for %s under %v", i, got, want, c, bind)
			}
		}

		// (2) Session == fresh solve.
		var sv Solver
		ctx := context.Background()
		freshM, freshR := sv.SolveContext(ctx, cs, dom)

		eng := NewIncremental()
		sess := eng.NewSession()
		for name, d := range dom {
			sess.SetDomain(name, d)
		}
		for _, c := range cs {
			sess.Assert(c)
		}
		sessM, sessR := sess.Fork().SolveContext(ctx, &sv)
		if sessR != freshR {
			t.Fatalf("session verdict %v, fresh %v for %s", sessR, freshR, ConjString(cs))
		}
		if freshR == Sat {
			if !CheckModel(cs, sessM) {
				t.Fatalf("session model %v does not satisfy %s", sessM, ConjString(cs))
			}
			for k, v := range freshM {
				if sessM[k] != v {
					t.Fatalf("witness diverged: session %v, fresh %v", sessM, freshM)
				}
			}
		}

		// (2b) The chain join's call orders reach the same verdict and
		// witness: "late" asserts every constraint before any real domain
		// and installs them all in one SetDomains after; "split" is the
		// join's own order — a parent session with some domains and the
		// first constraints, a fork that asserts the rest and then
		// receives the remaining domains. Every session is first bounded
		// by a coarse universe that contains every domain above: interval
		// propagation of an order cycle (b > a ∧ b <= a) narrows one value
		// per round, so over full 64-bit domains it would not finish in
		// either engine, and a fresh solve never runs it there.
		universe := Domain{Lo: 0, Hi: 255}
		bounded := map[string]Domain{"a": universe, "b": universe}
		late := NewIncremental().NewSession()
		late.SetDomains(sortedDomains(bounded))
		late.AssertAll(cs)
		late.SetDomains(sortedDomains(dom))
		parentDom, forkDom := maps.Clone(bounded), map[string]Domain{}
		for name, d := range dom {
			if r.Intn(2) == 0 {
				parentDom[name] = d
			} else {
				forkDom[name] = d
			}
		}
		k := r.Intn(len(cs) + 1)
		parent := NewIncremental().NewSession()
		parent.SetDomains(sortedDomains(parentDom))
		parent.AssertAll(cs[:k])
		split := parent.Fork()
		split.AssertAll(cs[k:])
		split.SetDomains(sortedDomains(forkDom))
		for _, v := range []struct {
			label string
			s     *Session
		}{{"domains-after", late}, {"split", split}} {
			m, res := v.s.SolveContext(ctx, &sv)
			if res != freshR {
				t.Fatalf("%s session verdict %v, fresh %v for %s", v.label, res, freshR, ConjString(cs))
			}
			if freshR == Sat {
				for k, want := range freshM {
					if m[k] != want {
						t.Fatalf("%s witness diverged: session %v, fresh %v", v.label, m, freshM)
					}
				}
			}
		}

		// (4) The reference implementation agrees on verdict and witness.
		refM, refR := (&Solver{Reference: true}).SolveContext(ctx, cs, dom)
		if refR != freshR {
			t.Fatalf("reference verdict %v, compiled %v for %s", refR, freshR, ConjString(cs))
		}
		if freshR == Sat {
			for k, v := range freshM {
				if refM[k] != v {
					t.Fatalf("reference witness %v, compiled %v", refM, freshM)
				}
			}
		}

		// (3) Memo replay never flips a definite verdict.
		againM, againR := sess.Fork().SolveContext(ctx, &sv)
		if againR != sessR {
			t.Fatalf("memo replay flipped %v to %v", sessR, againR)
		}
		if sessR == Sat && !CheckModel(cs, againM) {
			t.Fatalf("replayed model %v does not satisfy %s", againM, ConjString(cs))
		}
	})
}
