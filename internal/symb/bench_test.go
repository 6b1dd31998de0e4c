package symb

import (
	"context"
	"testing"
)

// The path-shaped constraint system the exploration engine issues per
// branch, mirroring bench_test.go's BenchmarkSolverPathFeasibility.
func benchConstraints() ([]Expr, map[string]Domain) {
	cs := []Expr{
		B(Eq, S("pkt_12_2"), C(0x0800)),
		B(Ne, S("pkt_23_1"), C(6)),
		B(Eq, S("pkt_23_1"), C(17)),
		B(Ult, S("in_port"), C(2)),
	}
	dom := map[string]Domain{
		"pkt_12_2": Word, "pkt_23_1": Byte, "in_port": Byte,
	}
	return cs, dom
}

// From-scratch feasibility: flatten, compile, propagate and search on
// every call — the cost exploration paid per branch before sessions.
func BenchmarkFeasibilityFromScratch(b *testing.B) {
	cs, dom := benchConstraints()
	s := &Solver{MaxNodes: 4000, Samples: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Feasible(append(cs[:len(cs):len(cs)], benchFresh(i)), dom) {
			b.Fatal("infeasible")
		}
	}
}

// benchFresh yields a per-iteration unique disequality on the already
// pinned Word symbol: the search work is unchanged, but every iteration
// has a distinct constraint set, defeating the memo so the incremental
// machinery itself is measured.
func benchFresh(i int) Expr {
	v := uint64(i) + 1
	if v >= 0x0800 {
		v++ // never contradict pkt_12_2 == 0x0800
	}
	return B(Ne, S("pkt_12_2"), C(v))
}

// The same check on the reference (pre-incremental) implementation: the
// baseline the incremental engine replaced.
func BenchmarkFeasibilityReference(b *testing.B) {
	cs, dom := benchConstraints()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, res := referenceSolve(append(cs[:len(cs):len(cs)], benchFresh(i)), dom, 4000, 8); res == Unsat {
			b.Fatal("infeasible")
		}
	}
}

// Incremental feasibility: fork an already-prepared parent, assert one
// new constraint, solve. This is the per-branch cost with sessions.
func BenchmarkFeasibilityIncremental(b *testing.B) {
	cs, dom := benchConstraints()
	eng := NewIncremental()
	parent := eng.NewSession()
	for n, d := range dom {
		parent.SetDomain(n, d)
	}
	for _, c := range cs {
		parent.Assert(c)
	}
	sv := &Solver{MaxNodes: 4000, Samples: 8}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := parent.Fork()
		child.Assert(benchFresh(i))
		if !child.FeasibleContext(ctx, sv) {
			b.Fatal("infeasible")
		}
	}
}

// Memo-hit feasibility: the same constraint set re-checked — the case
// where sibling branches reconverge on an identical set.
func BenchmarkFeasibilityMemoHit(b *testing.B) {
	cs, dom := benchConstraints()
	eng := NewIncremental()
	parent := eng.NewSession()
	for n, d := range dom {
		parent.SetDomain(n, d)
	}
	for _, c := range cs {
		parent.Assert(c)
	}
	sv := &Solver{MaxNodes: 4000, Samples: 8}
	ctx := context.Background()
	parent.Fork().FeasibleContext(ctx, sv) // populate the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !parent.Fork().FeasibleContext(ctx, sv) {
			b.Fatal("infeasible")
		}
	}
}

// Compiled postfix evaluation vs the tree-walking interpreter, on one
// representative path constraint.
func BenchmarkEvalCompiled(b *testing.B) {
	cs, _ := benchConstraints()
	comp := CompileSet(cs...)
	vals := make([]uint64, len(comp.Slots()))
	for i, n := range comp.Slots() {
		switch n {
		case "pkt_12_2":
			vals[i] = 0x0800
		case "pkt_23_1":
			vals[i] = 17
		case "in_port":
			vals[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cs {
			if comp.Eval(j, vals) == 0 {
				b.Fatal("unexpected false")
			}
		}
	}
}

func BenchmarkEvalTree(b *testing.B) {
	cs, _ := benchConstraints()
	bind := map[string]uint64{"pkt_12_2": 0x0800, "pkt_23_1": 17, "in_port": 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if c.Eval(bind) == 0 {
				b.Fatal("unexpected false")
			}
		}
	}
}

// Session fork cost alone: what each explored branch pays up front.
func BenchmarkSessionFork(b *testing.B) {
	cs, dom := benchConstraints()
	eng := NewIncremental()
	parent := eng.NewSession()
	for n, d := range dom {
		parent.SetDomain(n, d)
	}
	for _, c := range cs {
		parent.Assert(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parent.Fork() == nil {
			b.Fatal("nil fork")
		}
	}
}
