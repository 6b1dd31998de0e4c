package core

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// buildBenchChain4 is the analysis benchmark's chain (bench/analysis.go):
// ingress-firewall → nat → bridge → lb from the shared roster.
func buildBenchChain4(t testing.TB) []ChainStage {
	t.Helper()
	var stages []ChainStage
	for _, name := range []string{"ingress-firewall", "nat", "bridge", "lb"} {
		inst, err := nf.Build(name, nf.BuildParams{Capacity: 8192})
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, ChainStage{Prog: inst.Prog, Models: inst.Models})
	}
	return stages
}

// The cold 4-chain's join accounting and allocation budget. The counts
// are a property of the chain, not of the join's implementation: moving
// work out of the per-pair loop must leave every fold's verdicts alone.
// The allocation ceiling is the count with recycled join scratch
// (49.8 k) plus 5 %; the per-pair join took ~230 k allocations per
// compose, the eagerly cloned fork ~111 k, the layered fork, adding
// map-based polynomials, 71.8 k, and a fresh fork per pair with
// sorted-term polynomials 62.4 k.
func TestComposeColdChainCounts(t *testing.T) {
	stages := buildBenchChain4(t)
	compose := func() (*Contract, []JoinStats) {
		g := NewGenerator()
		g.Parallelism = 1
		g.Cache = NewContractCache()
		ct, stats, err := ComposeManyStats(context.Background(), g, stages)
		if err != nil {
			t.Fatal(err)
		}
		return ct, stats
	}
	ct, stats := compose()
	want := [][5]uint64{{8, 2, 0, 0, 6}, {36, 0, 0, 0, 36}, {648, 36, 0, 36, 576}}
	if len(stats) != len(want) {
		t.Fatalf("%d folds, want %d", len(stats), len(want))
	}
	for i, s := range stats {
		got := [5]uint64{s.Pairs, s.IndexSkipped, s.PreFiltered, s.SolverRefuted, s.Kept}
		if got != want[i] {
			t.Errorf("fold %d: (pairs, index-skipped, prefiltered, refuted, kept) = %v, want %v", s.Fold, got, want[i])
		}
	}
	if len(ct.Paths) != 582 {
		t.Errorf("composite has %d paths, want 582", len(ct.Paths))
	}
	if testing.Short() {
		return
	}
	allocs := testing.AllocsPerRun(2, func() { compose() })
	t.Logf("cold 4-chain compose: %.0f allocations", allocs)
	if allocs > 52_300 {
		t.Errorf("cold 4-chain compose takes %.0f allocations, want <= 52300", allocs)
	}
}

// BenchmarkComposeCold is the go-test twin of the an-cold benchmark
// workload's operation: ComposeManyStats of the 4-chain on a fresh
// Generator with Parallelism 1 and an empty cache. Profile the cold
// join with
//
//	go test ./internal/core -run '^$' -bench ComposeCold -cpuprofile cpu.out
func BenchmarkComposeCold(b *testing.B) {
	stages := buildBenchChain4(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGenerator()
		g.Parallelism = 1
		g.Cache = NewContractCache()
		if _, _, err := ComposeManyStats(context.Background(), g, stages); err != nil {
			b.Fatal(err)
		}
	}
}

// chainRoster is experiments.ChainStages' roster at quick scale, cut
// at six stages: the longest chains still composed uncoalesced
// (TestChainDeepChainPruned composes the longer ones with coalescing).
// (package core cannot import experiments.)
var chainRoster = []string{"ingress-firewall", "nat", "bridge", "lb", "static-router", "lpm-router"}

// The join index must keep exactly the pairs exhaustive pairing keeps.
// Every fold of the 6-chain pairs each forwarding a-path with every
// b-path through joinPair directly; a pair the index prunes (partition
// or skip test) must be one joinPair refutes, and the fold's Kept count
// must equal the exhaustive one. FuzzJoinIndex checks the same
// property on random shapes; this pins it on the real roster.
func TestJoinIndexKeepsExhaustivePairs(t *testing.T) {
	ctx := context.Background()
	g := NewGenerator()
	g.Parallelism = 1
	gen := func(name string) (*Contract, []*nfir.Path) {
		inst, err := nf.Build(name, nf.BuildParams{Capacity: 512})
		if err != nil {
			t.Fatal(err)
		}
		ct, paths, err := g.GenerateWithPathsContext(ctx, inst.Prog, inst.Models)
		if err != nil {
			t.Fatal(err)
		}
		return ct, paths
	}
	ct, paths := gen(chainRoster[0])
	for i, name := range chainRoster[1:] {
		fold, bns := i+1, strings.Repeat("b.", i+1)
		bCt, bPaths := gen(name)
		ix := buildJoinIndex(bCt, bPaths, bns)
		jf := newJoinFeas()
		var kept uint64
		for ai, pa := range ct.Paths {
			if pa.Action != nfir.ActionForward {
				continue
			}
			rawA := paths[ai]
			jp := jf.prefix(pa, rawA, bns)
			aw := buildAJoinInfo(pa, rawA)
			cands, _ := ix.candidates(aw)
			inCands := make(map[int]bool, len(cands))
			for _, j := range cands {
				inCands[j] = true
			}
			for j, pb := range bCt.Paths {
				if _, ok := joinPair(ctx, pa, rawA, pb, bPaths[j], jp, bns, &ix.metas[j]); !ok {
					continue
				}
				kept++
				if (cands != nil && !inCands[j]) || ix.skip(aw, pa, j) {
					t.Errorf("fold %d (%s): the index prunes pair (a%d, b%d), which exhaustive pairing keeps", fold, name, ai, j)
				}
			}
		}
		var st JoinStats
		var err error
		ct, paths, err = composePrepared(ctx, g, ct, paths, name, bCt, bPaths, "", bns, &st)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kept != kept {
			t.Errorf("fold %d (%s): indexed pairing kept %d pairs, exhaustive kept %d", fold, name, st.Kept, kept)
		}
	}
}

// The join's fork of the hoisted a-side prefix must answer exactly what
// a fresh solve of the joined pair answers. For every pair of the quick
// 6-chain that reaches the solver — past the join index and the static
// pre-filter — coalesced and uncoalesced, the fork (pre-analysed
// b-conjuncts, re-substituted ones asserted as they stand, the sorted
// overlay) must reach the verdict and witness of Solver.SolveContext
// over the pair's full constraint list and merged domains.
// FuzzJoinHoistedPrefix checks random shapes; this pins the real roster.
func TestJoinForkMatchesFreshSolve(t *testing.T) {
	ctx := context.Background()
	for _, coalesce := range []bool{false, true} {
		g := NewGenerator()
		g.Parallelism = 1
		g.Coalesce = coalesce
		gen := func(name string) (*Contract, []*nfir.Path) {
			inst, err := nf.Build(name, nf.BuildParams{Capacity: 512})
			if err != nil {
				t.Fatal(err)
			}
			ct, paths, err := g.GenerateWithPathsContext(ctx, inst.Prog, inst.Models)
			if err != nil {
				t.Fatal(err)
			}
			return ct, paths
		}
		ct, paths := gen(chainRoster[0])
		solved, sat := 0, 0
		for i, name := range chainRoster[1:] {
			bns := strings.Repeat("b.", i+1)
			bCt, bPaths := gen(name)
			ix := buildJoinIndex(bCt, bPaths, bns)
			jf := newJoinFeas()
			for ai, pa := range ct.Paths {
				if pa.Action != nfir.ActionForward {
					continue
				}
				rawA := paths[ai]
				jp := jf.prefix(pa, rawA, bns)
				aw := buildAJoinInfo(pa, rawA)
				cands, _ := ix.candidates(aw)
				if cands == nil {
					for j := range bCt.Paths {
						cands = append(cands, j)
					}
				}
				for _, j := range cands {
					if ix.skip(aw, pa, j) {
						continue
					}
					q := mergePair(pa, rawA, bCt.Paths[j], bns, &ix.metas[j], new(pairScratch))
					if joinObviouslyInfeasible(q.constraints, q.domains) {
						continue
					}
					solved++
					gotM, gotR := jp.fork(&q).SolveContext(ctx, jf.sv)
					wantM, wantR := jf.sv.SolveContext(ctx, q.constraints, q.domains)
					if gotR != wantR || !maps.Equal(gotM, wantM) {
						t.Fatalf("coalesce=%v fold %d (%s), pair (a%d, b%d): fork %v %v, fresh solve %v %v",
							coalesce, i+1, name, ai, j, gotR, gotM, wantR, wantM)
					}
					if gotR == symb.Sat {
						sat++
					}
				}
			}
			var err error
			ct, paths, err = composePrepared(ctx, g, ct, paths, name, bCt, bPaths, "", bns, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("coalesce=%v: %d pairs reached the solver, %d sat", coalesce, solved, sat)
		if solved == 0 || sat == 0 {
			t.Fatalf("coalesce=%v: %d pairs solved, %d sat: the roster no longer exercises the fork", coalesce, solved, sat)
		}
	}
}

// freshJoinFeasible is the judge a join's verdict must agree with: the
// static pre-filter, then a fresh solve over mergePair's full merged
// map at the same budget — no session, no prefix, no overlay.
func freshJoinFeasible(pa *PathContract, rawA *nfir.Path, pb *PathContract, bns string, bm *bPathMeta) bool {
	q := mergePair(pa, rawA, pb, bns, bm, new(pairScratch))
	if joinObviouslyInfeasible(q.constraints, q.domains) {
		return false
	}
	return joinSolver.Feasible(q.constraints, q.domains)
}

// The merge's three rules, each pinned by the merged value and by a b
// guard whose verdict depends on the rule, for the join and for the
// fresh-solve judge:
//   - a b-domain for a field a wrote with a symbol OVERWRITES a's domain
//     of that symbol — here loosening it, so b's guard s > 30 is
//     satisfiable although a bounded s to [10, 20];
//   - a b-domain for a shared unwritten field is INTERSECTED with a's;
//   - a b-local's domain is INSTALLED under its namespaced name.
//
// The incremental prefix must withhold a's domain of s: installed there
// it could only be intersected, and the first case would be refuted.
func TestJoinDomainMerge(t *testing.T) {
	const (
		written = "pkt_12_2" // a writes s here
		shared  = "pkt_10_1" // unwritten by a, bounded by both sides
	)
	cases := []struct {
		name     string
		bDom     map[string]symb.Domain
		bGuard   symb.Expr
		key      string
		want     symb.Domain
		feasible bool
	}{
		{"overwrite a-written symbol",
			map[string]symb.Domain{written: {Lo: 0, Hi: 65535}},
			symb.B(symb.Ugt, symb.S(written), symb.C(30)),
			"s", symb.Domain{Lo: 0, Hi: 65535}, true},
		{"intersect shared unwritten field",
			map[string]symb.Domain{shared: {Lo: 50, Hi: 255}},
			symb.B(symb.Ugt, symb.S(shared), symb.C(100)),
			shared, symb.Domain{Lo: 50, Hi: 100}, false},
		{"install renamed b-local",
			map[string]symb.Domain{"t": {Lo: 3, Hi: 7}},
			symb.B(symb.Eq, symb.S("t"), symb.C(9)),
			"b.t", symb.Domain{Lo: 3, Hi: 7}, false},
	}
	aDoms := map[string]symb.Domain{"s": {Lo: 10, Hi: 20}, shared: {Lo: 0, Hi: 100}}
	aCons := []symb.Expr{symb.B(symb.Ule, symb.S("s"), symb.C(40))}
	pa := &PathContract{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms}
	rawA := &nfir.Path{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms,
		PktWrites: map[uint64]nfir.PktWrite{12: {Size: 2, Val: symb.S("s")}}}
	ctx := context.Background()
	for _, tc := range cases {
		pb := &PathContract{Action: nfir.ActionForward, Constraints: []symb.Expr{tc.bGuard}, Domains: tc.bDom}
		rawB := &nfir.Path{Action: nfir.ActionForward, Constraints: pb.Constraints, Domains: pb.Domains}
		bCt := &Contract{Paths: []*PathContract{pb}}
		ix := buildJoinIndex(bCt, nil, "b.")

		// The merged map itself, read off a pair the b guard cannot
		// refute.
		free := &PathContract{Action: nfir.ActionForward, Domains: tc.bDom}
		freeIx := buildJoinIndex(&Contract{Paths: []*PathContract{free}}, nil, "b.")
		jf := newJoinFeas()
		joined, ok := joinPair(ctx, pa, rawA, free, rawB, jf.prefix(pa, rawA, "b."), "b.", &freeIx.metas[0])
		if !ok {
			t.Fatalf("%s: unguarded pair refuted", tc.name)
		}
		if got := joined.Domains[tc.key]; got != tc.want {
			t.Errorf("%s: merged %s = %+v, want %+v", tc.name, tc.key, got, tc.want)
		}
		if got := pa.Domains["s"]; got != (symb.Domain{Lo: 10, Hi: 20}) {
			t.Fatalf("%s: the merge mutated a's domains", tc.name)
		}

		if _, ok := joinPair(ctx, pa, rawA, pb, rawB, jf.prefix(pa, rawA, "b."), "b.", &ix.metas[0]); ok != tc.feasible {
			t.Errorf("%s: the join keeps the pair = %v, want %v", tc.name, ok, tc.feasible)
		}
		if ok := freshJoinFeasible(pa, rawA, pb, "b.", &ix.metas[0]); ok != tc.feasible {
			t.Errorf("%s: a fresh solve keeps the pair = %v, want %v", tc.name, ok, tc.feasible)
		}
	}
}

// A refuted pair costs the question, not the prefix: once a joinPrefix
// has answered one pair, the next pairs reuse its solver fork, its
// substitution map and its scratch slices, so a pair the solver refutes
// allocates a fixed handful of objects (its merged constraints and
// domains, which a kept pair would keep, and the suffix the fork adds)
// however large a's prefix is: 5 over a 5-constraint prefix and 7 over
// 201, where forking afresh for every pair took 17 and 19.
func TestJoinPairAllocsPerRefutedPair(t *testing.T) {
	const shared = "pkt_10_1" // unwritten by a, bounded by both sides
	allocs := func(n int) float64 {
		aDoms := map[string]symb.Domain{"s": {Lo: 10, Hi: 20}, shared: {Lo: 0, Hi: 100}}
		aCons := []symb.Expr{symb.B(symb.Ule, symb.S("s"), symb.C(40))}
		for i := 0; i < n; i++ {
			x := fmt.Sprintf("x%d", i)
			aDoms[x] = symb.Word
			aCons = append(aCons, symb.B(symb.Ult, symb.S(x), symb.C(uint64(1000+i))))
		}
		pa := &PathContract{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms}
		rawA := &nfir.Path{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms,
			PktWrites: map[uint64]nfir.PktWrite{12: {Size: 2, Val: symb.S("s")}}}
		// b's guard on the shared field contradicts the intersected
		// domain [50, 100]; only the solver's propagation sees it.
		pb := &PathContract{Action: nfir.ActionForward,
			Constraints: []symb.Expr{symb.B(symb.Ugt, symb.S(shared), symb.C(100)), symb.B(symb.Ugt, symb.S("pkt_12_2"), symb.C(5))},
			Domains:     map[string]symb.Domain{shared: {Lo: 50, Hi: 255}, "pkt_12_2": symb.Word}}
		rawB := &nfir.Path{Action: nfir.ActionForward, Constraints: pb.Constraints, Domains: pb.Domains}
		ix := buildJoinIndex(&Contract{Paths: []*PathContract{pb}}, []*nfir.Path{rawB}, "b.")
		jf := newJoinFeas()
		jp := jf.prefix(pa, rawA, "b.")
		ctx := context.Background()
		pair := func() {
			if _, ok := joinPair(ctx, pa, rawA, pb, rawB, jp, "b.", &ix.metas[0]); ok {
				t.Fatal("the contradicting pair was kept")
			}
		}
		pair() // warm the prefix's scratch
		got := testing.AllocsPerRun(50, pair)
		if r := jf.solverRefuted.Load(); r < 51 {
			t.Fatalf("the solver refuted %d pairs, want every one: the pair never reached it", r)
		}
		return got
	}
	small, large := allocs(4), allocs(200)
	t.Logf("refuted pair on a warm prefix: %.0f allocations over a 5-constraint prefix, %.0f over 201", small, large)
	const ceiling = 10
	if small > ceiling || large > ceiling {
		t.Errorf("a refuted pair allocates %.0f objects over a 5-constraint prefix and %.0f over 201, want at most %d",
			small, large, ceiling)
	}
}
