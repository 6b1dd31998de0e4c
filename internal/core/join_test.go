package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
// The model-proved counts are the chain's too: how many kept pairs the
// stage witnesses and the models earlier folds kept already satisfy
// (fold 1's a-witnesses leave the protocol byte at 0, which most of the
// NAT's paths exclude). The allocation ceiling is the count with model
// reuse (44.3 k) plus 5 %, so a join that quietly stops reusing models
// (49.8 k) fails it; the per-pair join took ~230 k allocations per
// compose, the eagerly cloned fork ~111 k, the layered fork, adding
// map-based polynomials, 71.8 k, a fresh fork per pair with sorted-term
// polynomials 62.4 k, and recycled join scratch 49.8 k.
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
	want := [][6]uint64{{8, 2, 0, 0, 6, 1}, {36, 0, 0, 0, 36, 36}, {648, 36, 0, 36, 576, 540}}
	if len(stats) != len(want) {
		t.Fatalf("%d folds, want %d", len(stats), len(want))
	}
	for i, s := range stats {
		got := [6]uint64{s.Pairs, s.IndexSkipped, s.PreFiltered, s.SolverRefuted, s.Kept, s.ModelProved}
		if got != want[i] {
			t.Errorf("fold %d: (pairs, index-skipped, prefiltered, refuted, kept, model-proved) = %v, want %v", s.Fold, got, want[i])
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
	if allocs > 46_500 {
		t.Errorf("cold 4-chain compose takes %.0f allocations, want <= 46500", allocs)
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
	acc := foldSide{ct: ct, paths: paths}
	for i, name := range chainRoster[1:] {
		fold, bns := i+1, strings.Repeat("b.", i+1)
		bCt, bPaths := gen(name)
		ix := buildJoinIndex(bCt, bPaths, bns, true)
		jf := newJoinFeas()
		var kept uint64
		for ai, pa := range acc.ct.Paths {
			if pa.Action != nfir.ActionForward {
				continue
			}
			rawA := acc.paths[ai]
			jp := jf.prefix(pa, rawA, bns, nil)
			aw := buildAJoinInfo(pa, rawA)
			cands, _ := ix.candidates(aw)
			inCands := make(map[int]bool, len(cands))
			for _, j := range cands {
				inCands[j] = true
			}
			for j, pb := range bCt.Paths {
				if _, _, ok := joinPair(ctx, pa, rawA, pb, bPaths[j], jp, bns, &ix.metas[j]); !ok {
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
		acc, err = composePrepared(ctx, g, acc, name, foldSide{ct: bCt, paths: bPaths}, "", bns, true, &st)
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
// 6-chain that gets past the join index and the static pre-filter —
// coalesced and uncoalesced — the fork (pre-analysed b-conjuncts,
// re-substituted ones asserted as they stand, the sorted overlay) must
// reach the verdict and witness of Solver.SolveContext over the pair's
// full constraint list and merged domains. The prefix carries the model
// its fold received — a stage path's witness, then the models the
// earlier folds kept — and every pair the model check proves must also
// pass checkModelProof. FuzzJoinHoistedPrefix checks random shapes; this
// pins the real roster.
func TestJoinForkMatchesFreshSolve(t *testing.T) {
	ctx := context.Background()
	for _, coalesce := range []bool{false, true} {
		g := NewGenerator()
		g.Parallelism = 1
		g.Coalesce = coalesce
		gen := func(name string) foldSide {
			inst, err := nf.Build(name, nf.BuildParams{Capacity: 512})
			if err != nil {
				t.Fatal(err)
			}
			ct, paths, err := g.GenerateWithPathsContext(ctx, inst.Prog, inst.Models)
			if err != nil {
				t.Fatal(err)
			}
			return foldSide{ct: ct, paths: paths}
		}
		acc := gen(chainRoster[0])
		solved, sat, proved := 0, 0, 0
		for i, name := range chainRoster[1:] {
			bns := strings.Repeat("b.", i+1)
			b := gen(name)
			ix := buildJoinIndex(b.ct, b.paths, bns, true)
			jf := newJoinFeas()
			for ai, pa := range acc.ct.Paths {
				if pa.Action != nfir.ActionForward {
					continue
				}
				rawA := acc.paths[ai]
				jp := jf.prefix(pa, rawA, bns, acc.model(ai))
				aw := buildAJoinInfo(pa, rawA)
				cands, _ := ix.candidates(aw)
				if cands == nil {
					for j := range b.ct.Paths {
						cands = append(cands, j)
					}
				}
				for _, j := range cands {
					if ix.skip(aw, pa, j) {
						continue
					}
					q := mergePair(pa, rawA, b.ct.Paths[j], &ix.metas[j], new(pairScratch))
					if joinObviouslyInfeasible(q.constraints, q.domains) {
						continue
					}
					what := fmt.Sprintf("coalesce=%v fold %d (%s), pair (a%d, b%d)", coalesce, i+1, name, ai, j)
					if jp.proved(&q, rawA, &ix.metas[j]) {
						proved++
						checkModelProof(t, jp, &q, what)
					}
					solved++
					gotM, gotR := jp.fork(&q).SolveContext(ctx, jf.sv)
					wantM, wantR := jf.sv.SolveContext(ctx, q.constraints, q.domains)
					if gotR != wantR || !maps.Equal(gotM, wantM) {
						t.Fatalf("%s: fork %v %v, fresh solve %v %v", what, gotR, gotM, wantR, wantM)
					}
					if gotR == symb.Sat {
						sat++
					}
				}
			}
			var err error
			acc, err = composePrepared(ctx, g, acc, name, b, "", bns, i+2 < len(chainRoster), nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("coalesce=%v: %d pairs reached the solver, %d sat, %d model-proved", coalesce, solved, sat, proved)
		if solved == 0 || sat == 0 || proved == 0 {
			t.Fatalf("coalesce=%v: %d pairs solved, %d sat, %d model-proved: the roster no longer exercises the fork and the model check",
				coalesce, solved, sat, proved)
		}
	}
}

// checkModelProof is the model check's soundness oracle for a pair jp
// has just proved: the assignment the check used must bind every symbol
// of the merged query, satisfy every merged conjunct and lie in every
// merged domain under the map-based Expr.Eval, and a fresh solve of
// the query must not answer Unsat.
func checkModelProof(t *testing.T, jp *joinPrefix, q *pairQuery, what string) {
	t.Helper()
	m := jp.pairModel()
	for _, c := range q.constraints {
		for _, s := range symb.Symbols(c) {
			if _, ok := m[s]; !ok {
				t.Fatalf("%s: the proving model leaves %s of %v unbound", what, s, c)
			}
		}
		if c.Eval(m) == 0 {
			t.Fatalf("%s: the proving model %v falsifies %v", what, m, c)
		}
	}
	for name, d := range q.domains {
		if v, ok := m[name]; !ok || v < d.Lo || v > d.Hi {
			t.Fatalf("%s: the proving model puts %s at %d (bound %v), outside its merged domain %v", what, name, v, ok, d)
		}
	}
	if _, res := joinSolver.Solve(q.constraints, q.domains); res == symb.Unsat {
		t.Fatalf("%s: the model check proved a pair a fresh solve refutes\nconstraints %v\ndomains %v", what, q.constraints, q.domains)
	}
}

// A pair the model check proves costs no solver work and no scratch of
// its own: the check allocates nothing once the prefix's scratch has
// grown, and an a-path whose every pair it proves never builds its
// solver session.
func TestJoinModelCheckAllocatesNothing(t *testing.T) {
	const shared = "pkt_10_1" // unwritten by a, bounded by both sides
	aDoms := map[string]symb.Domain{"s": {Lo: 10, Hi: 20}, shared: {Lo: 0, Hi: 100}}
	aCons := []symb.Expr{symb.B(symb.Ule, symb.S("s"), symb.C(40))}
	pa := &PathContract{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms}
	rawA := &nfir.Path{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms,
		PktWrites: map[uint64]nfir.PktWrite{12: {Size: 2, Val: symb.S("s")}}}
	// b's guards hold at a's model (s = 12 through the write, the shared
	// field at 30) and at b's witness for its local t.
	pb := &PathContract{Action: nfir.ActionForward,
		Constraints: []symb.Expr{
			symb.B(symb.Ugt, symb.S(shared), symb.C(20)),
			symb.B(symb.Ugt, symb.S("pkt_12_2"), symb.C(5)),
			symb.B(symb.Eq, symb.S("t"), symb.C(3)),
		},
		Domains: map[string]symb.Domain{shared: {Lo: 0, Hi: 255}, "pkt_12_2": symb.Word, "t": {Lo: 0, Hi: 7}},
		Witness: map[string]uint64{shared: 30, "pkt_12_2": 12, "t": 3}}
	rawB := &nfir.Path{Action: nfir.ActionForward, Constraints: pb.Constraints, Domains: pb.Domains}
	ix := buildJoinIndex(&Contract{Paths: []*PathContract{pb}}, []*nfir.Path{rawB}, "b.", true)
	jf := newJoinFeas()
	jp := jf.prefix(pa, rawA, "b.", map[string]uint64{"s": 12, shared: 30})
	if _, _, ok := joinPair(context.Background(), pa, rawA, pb, rawB, jp, "b.", &ix.metas[0]); !ok {
		t.Fatal("the satisfiable pair was refuted")
	}
	if n := jf.modelProved.Load(); n != 1 {
		t.Fatalf("the model check proved %d pairs, want 1", n)
	}
	if jp.sess != nil {
		t.Error("the prefix built a solver session although no pair reached the solver")
	}
	q := mergePair(pa, rawA, pb, &ix.metas[0], &jp.pairScratch)
	checkModelProof(t, jp, &q, "the hand-built pair")
	allocs := testing.AllocsPerRun(50, func() {
		if !jp.proved(&q, rawA, &ix.metas[0]) {
			t.Fatal("the model check stopped proving the pair")
		}
	})
	if allocs != 0 {
		t.Errorf("the model check allocates %.0f objects per proved pair, want 0", allocs)
	}
}

// Model reuse changes which pairs the solver sees, never the result.
// The cold 4-chain is composed once from scratch and once with fold 2's
// composite already in the cache: a cached prefix carries no models, so
// fold 3 then solves every pair it would otherwise have proved. The
// composites must be byte-identical and every fold's accounting equal
// apart from ModelProved, serially and on a pool; the cold accounting,
// ModelProved included, must not depend on the pool.
func TestComposeModelReuseIdentity(t *testing.T) {
	stages := buildBenchChain4(t)
	var serialStats []JoinStats
	for _, par := range []int{1, 4} {
		g := NewGenerator()
		g.Parallelism = par
		g.Cache = NewContractCache()
		cold, coldStats, err := ComposeManyStats(context.Background(), g, stages)
		if err != nil {
			t.Fatal(err)
		}
		if serialStats == nil {
			serialStats = coldStats
		} else if !slices.Equal(coldStats, serialStats) {
			t.Errorf("parallelism %d: cold stats %+v, serial %+v", par, coldStats, serialStats)
		}

		g = NewGenerator()
		g.Parallelism = par
		g.Cache = NewContractCache()
		_, prefixStats, err := ComposeManyStats(context.Background(), g, stages[:3])
		if err != nil {
			t.Fatal(err)
		}
		warm, warmStats, err := ComposeManyStats(context.Background(), g, stages)
		if err != nil {
			t.Fatal(err)
		}
		if len(coldStats) != 3 || len(prefixStats) != 2 || len(warmStats) != 3 || !warmStats[1].Cached || warmStats[2].Cached {
			t.Fatalf("parallelism %d: fold stats cold %+v, prefix %+v, warm %+v: want fold 2 served from the cache and fold 3 joined",
				par, coldStats, prefixStats, warmStats)
		}
		if got, want := jsonDigest(t, warm), jsonDigest(t, cold); got != want {
			t.Errorf("parallelism %d: the composite over a cached prefix differs from the cold one", par)
		}
		if coldStats[2].ModelProved == 0 || warmStats[2].ModelProved != 0 {
			t.Errorf("parallelism %d: fold 3 model-proved %d cold and %d over a cached prefix, want > 0 and 0",
				par, coldStats[2].ModelProved, warmStats[2].ModelProved)
		}
		for i, got := range append(prefixStats, warmStats[2]) {
			want := coldStats[i]
			got.ModelProved, want.ModelProved = 0, 0
			if got != want {
				t.Errorf("parallelism %d, fold %d: stats %+v, cold compose %+v", par, i+1, got, want)
			}
		}
	}
}

// freshJoinFeasible is the judge a join's verdict must agree with: the
// static pre-filter, then a fresh solve over mergePair's full merged
// map at the same budget — no session, no prefix, no overlay.
func freshJoinFeasible(pa *PathContract, rawA *nfir.Path, pb *PathContract, bns string, bm *bPathMeta) bool {
	q := mergePair(pa, rawA, pb, bm, new(pairScratch))
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
		ix := buildJoinIndex(bCt, nil, "b.", true)

		// The merged map itself, read off a pair the b guard cannot
		// refute.
		free := &PathContract{Action: nfir.ActionForward, Domains: tc.bDom}
		freeIx := buildJoinIndex(&Contract{Paths: []*PathContract{free}}, nil, "b.", true)
		jf := newJoinFeas()
		joined, _, ok := joinPair(ctx, pa, rawA, free, rawB, jf.prefix(pa, rawA, "b.", nil), "b.", &freeIx.metas[0])
		if !ok {
			t.Fatalf("%s: unguarded pair refuted", tc.name)
		}
		if got := joined.Domains[tc.key]; got != tc.want {
			t.Errorf("%s: merged %s = %+v, want %+v", tc.name, tc.key, got, tc.want)
		}
		if got := pa.Domains["s"]; got != (symb.Domain{Lo: 10, Hi: 20}) {
			t.Fatalf("%s: the merge mutated a's domains", tc.name)
		}

		if _, _, ok := joinPair(ctx, pa, rawA, pb, rawB, jf.prefix(pa, rawA, "b.", nil), "b.", &ix.metas[0]); ok != tc.feasible {
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
		ix := buildJoinIndex(&Contract{Paths: []*PathContract{pb}}, []*nfir.Path{rawB}, "b.", true)
		jf := newJoinFeas()
		jp := jf.prefix(pa, rawA, "b.", nil)
		ctx := context.Background()
		pair := func() {
			if _, _, ok := joinPair(ctx, pa, rawA, pb, rawB, jp, "b.", &ix.metas[0]); ok {
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
