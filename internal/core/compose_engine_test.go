package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"gobolt/internal/dslib"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// buildChain4 is the 4-stage chain the composition-engine tests share:
// firewall → NAT → static router → LPM router.
func buildChain4() []ChainStage {
	fw := nf.NewFirewall(nf.FirewallConfig{
		Rules: []dslib.Rule{
			{SrcMask: 0xFF000000, SrcVal: 0x0A000000, Action: 1}, // accept 10/8
		},
		DefaultAccept: false,
	})
	nat := nf.NewNAT(nf.NATConfig{ExternalIP: 1, Capacity: 64, TimeoutNS: 3_600_000_000_000})
	sr := nf.NewStaticRouter(nf.StaticRouterConfig{Ports: 4})
	lpm := nf.NewLPMRouter(nf.LPMRouterConfig{Ports: 8})
	return []ChainStage{
		{Prog: fw.Prog, Models: fw.Models},
		{Prog: nat.Prog, Models: nat.Models},
		{Prog: sr.Prog, Models: sr.Models},
		{Prog: lpm.Prog, Models: lpm.Models},
	}
}

// The pooled fold must reproduce the serial fold byte for byte at every
// worker count — the acceptance bar for parallel composition.
func TestComposeMany4StageParallelMatchesSerial(t *testing.T) {
	serial := NewGenerator()
	serial.Parallelism = 1
	want, err := ComposeMany(serial, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)
	for _, workers := range []int{4, 8} {
		g := NewGenerator()
		g.Parallelism = workers
		got, err := ComposeMany(g, buildChain4())
		if err != nil {
			t.Fatal(err)
		}
		gotJS, _ := json.Marshal(got)
		if string(wantJS) != string(gotJS) {
			t.Errorf("ComposeMany at Parallelism=%d differs from serial", workers)
		}
		if want.Render(perf.Instructions) != got.Render(perf.Instructions) {
			t.Errorf("rendered composite at Parallelism=%d differs from serial", workers)
		}
	}
}

// Whole-generation oracle. The digests are SHA-256 sums of the
// json.Marshal bytes of each output as the pre-incremental reference
// solver produced it (every feasibility check and witness solve a
// from-scratch tree walk, no sessions, serial), recorded when that
// engine could still run a whole generation. The incremental engine
// must reproduce them byte for byte: the composite of buildChain4, and
// the stage contracts of the three NFs whose exploration issues the most
// feasibility checks, generated with no cache so the whole pipeline runs.
// The reference solver itself lives on in symb's tests as the oracle of
// FuzzSolverEquivalence.
func TestComposeManyIncrementalMatchesReference(t *testing.T) {
	g := NewGenerator()
	g.Parallelism = 1
	ct, err := ComposeMany(g, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonDigest(t, ct), "bbb5decc6973df188e6988d64873e7db4d61da5e7a721c27d9572d96e75175d2"; got != want {
		t.Errorf("4-stage composite (%d paths) digest %s, reference engine gave %s", len(ct.Paths), got, want)
	}

	const hour = uint64(3_600_000_000_000)
	lb, err := nf.NewLB(nf.LBConfig{
		Backends: 16, RingSize: 4099, BackendIPBase: 0xAC100000,
		FlowCapacity: 512, TimeoutNS: hour, GranularityNS: 1_000_000,
		HeartbeatTimeoutNS: hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		inst *nf.Instance
		want string
	}{
		{nf.NewNAT(nf.NATConfig{
			ExternalIP: 0xC0A80001, Capacity: 512,
			TimeoutNS: hour, GranularityNS: 1_000_000,
		}).Instance, "6affa311984add6ee7561eae32a4379c6dd6590fb5bfdee22e38189b91c2e57f"},
		{nf.NewBridge(nf.BridgeConfig{
			Ports: 4, Capacity: 512,
			TimeoutNS: hour, GranularityNS: 1_000_000, RehashThreshold: 6,
		}).Instance, "2be4fdfe72f8950e2f708631bc60dbf8d13e3b6e6fcdb1341ab139b97a1a55a3"},
		{lb.Instance, "8617afbef06defee68fca972691c8c56bf98fa4590f855d69698e03f989f91f2"},
	} {
		ct, err := g.Generate(tc.inst.Prog, tc.inst.Models)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonDigest(t, ct); len(ct.Paths) == 0 || got != tc.want {
			t.Errorf("%s: contract (%d paths) digest %s, reference engine gave %s", ct.NF, len(ct.Paths), got, tc.want)
		}
	}
}

// jsonDigest is the hex SHA-256 of v's json.Marshal bytes.
func jsonDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Re-composing a warm chain must come straight out of the contract
// cache: the fold prefix is content-addressed, so the second call
// returns the cached composite without redoing any joins.
func TestComposeManyWarmCacheRecompose(t *testing.T) {
	g := NewGenerator()
	g.Cache = NewContractCache()
	first, err := ComposeMany(g, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	cold := g.Cache.TierStats()
	if cold.Entries == 0 {
		t.Fatal("cold compose stored nothing in the cache")
	}
	second, err := ComposeMany(g, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("warm re-compose did not return the cached composite")
	}
	if warm := g.Cache.TierStats(); warm.MemHits <= cold.MemHits {
		t.Errorf("warm re-compose did not hit the cache (hits %d → %d)", cold.MemHits, warm.MemHits)
	}
	// A chain extending a cached prefix reuses it: composing 4 stages
	// after a 3-stage run of the same prefix hits the fold-prefix entry.
	g2 := NewGenerator()
	g2.Cache = NewContractCache()
	if _, err := ComposeMany(g2, buildChain4()[:3]); err != nil {
		t.Fatal(err)
	}
	extended, err := ComposeMany(g2, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	if g2.Cache.TierStats().MemHits == 0 {
		t.Error("extending a cached prefix reused nothing")
	}
	extJS, _ := json.Marshal(extended)
	firstJS, _ := json.Marshal(first)
	if string(extJS) != string(firstJS) {
		t.Error("prefix-extended composite differs from the cold composite")
	}
}

// A cross-stage contradiction that only the search can refute
// (interval propagation cannot — x+y == 5 ∧ x·y == 100 keeps non-empty
// intervals) is pruned by a composition at the join budget, but must
// survive as Unknown when the join's budget is starved.
func TestComposeRoutesFeasibilityBudgets(t *testing.T) {
	stage := func(name string, cons []symb.Expr, doms map[string]symb.Domain) (*Contract, []*nfir.Path) {
		pc := &PathContract{
			Action:      nfir.ActionForward,
			Constraints: cons,
			Domains:     doms,
			Events:      name,
		}
		raw := &nfir.Path{
			Constraints: cons, Domains: doms,
			Action:    nfir.ActionForward,
			PktWrites: map[uint64]nfir.PktWrite{},
		}
		return &Contract{NF: name, Paths: []*PathContract{pc}}, []*nfir.Path{raw}
	}
	aCons := []symb.Expr{
		symb.B(symb.Eq, symb.B(symb.Add, symb.S("x"), symb.S("y")), symb.C(5)),
		symb.B(symb.Eq, symb.B(symb.Mul, symb.S("x"), symb.S("y")), symb.C(100)),
	}
	aDoms := map[string]symb.Domain{"x": {Lo: 0, Hi: 50}, "y": {Lo: 0, Hi: 50}}
	bCons := []symb.Expr{symb.B(symb.Eq, symb.S("flag"), symb.C(1))}
	bDoms := map[string]symb.Domain{"flag": {Lo: 0, Hi: 1}}
	aCt, aPaths := stage("a", aCons, aDoms)
	bCt, bPaths := stage("b", bCons, bDoms)

	g := NewGenerator()
	g.Parallelism = 1
	out, err := composePrepared(context.Background(), g, foldSide{ct: aCt, paths: aPaths}, "b", foldSide{ct: bCt, paths: bPaths}, "", "b.", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.ct.Paths); got != 0 {
		t.Errorf("the join budget kept %d joined paths, want 0 (the pair is unsatisfiable)", got)
	}

	starved := &joinFeas{sv: &symb.Solver{MaxNodes: 5, Samples: joinSolver.Samples}, eng: symb.NewIncremental()}
	ix := buildJoinIndex(bCt, bPaths, "b.", true)
	jp := starved.prefix(aCt.Paths[0], aPaths[0], "b.", nil)
	if _, _, ok := joinPair(context.Background(), aCt.Paths[0], aPaths[0], bCt.Paths[0], bPaths[0], jp, "b.", &ix.metas[0]); !ok {
		t.Error("a starved join refuted the pair; a truncated search must keep it")
	}
}

// countdownCtx reports Canceled after a fixed number of Err() polls —
// a deterministic way to land a cancellation in the middle of the join
// loop rather than before work starts.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestComposeMidJoinCancellation(t *testing.T) {
	fw, sr := buildChainNFs()
	g := NewGenerator()
	g.Parallelism = 1
	fwCt, fwPaths, err := g.GenerateWithPathsContext(context.Background(), fw.Prog, fw.Models)
	if err != nil {
		t.Fatal(err)
	}
	srCt, srPaths, err := g.GenerateWithPathsContext(context.Background(), sr.Prog, sr.Models)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: with a live context the same join succeeds.
	fwSide, srSide := foldSide{ct: fwCt, paths: fwPaths}, foldSide{ct: srCt, paths: srPaths}
	if _, err := composePrepared(context.Background(), g, fwSide, sr.Prog.Name, srSide, "", "b.", false, nil); err != nil {
		t.Fatal(err)
	}
	// Now cancel partway: enough polls to get into the pair loop, far
	// fewer than a full composition consumes.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(5)
	out, err := composePrepared(ctx, g, fwSide, sr.Prog.Name, srSide, "", "b.", false, nil)
	if err == nil {
		t.Fatal("mid-join cancellation was swallowed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	if out.ct != nil {
		t.Error("cancelled composition still returned a contract")
	}
}

// fuzzJoinSet decodes fuzz bytes into a small constraint set and domain
// map shaped like joinPair's merged output: comparisons over a few
// shared/namespaced symbols, possibly ground-constant conjuncts,
// possibly empty domains.
func fuzzJoinSet(data []byte) ([]symb.Expr, map[string]symb.Domain) {
	syms := []string{"x", "y", "b.z"}
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	ops := []symb.Op{symb.Eq, symb.Ne, symb.Ult, symb.Ule, symb.Ugt, symb.Uge}
	var cons []symb.Expr
	n := int(next()%5) + 1
	for k := 0; k < n; k++ {
		switch next() % 6 {
		case 0:
			// Ground conjunct — the fold the pre-filter looks for.
			cons = append(cons, symb.C(uint64(next()%2)))
		case 1:
			cons = append(cons, symb.B(ops[next()%6], symb.S(syms[next()%3]), symb.C(uint64(next()))))
		case 2:
			cons = append(cons, symb.B(ops[next()%6], symb.S(syms[next()%3]), symb.S(syms[next()%3])))
		case 3:
			cons = append(cons, symb.B(symb.LAnd,
				symb.B(ops[next()%6], symb.S(syms[next()%3]), symb.C(uint64(next()))),
				symb.C(uint64(next()%2))))
		case 4:
			// Compound single-symbol shape (masked-field comparison) —
			// what the constant-propagation rule must only refute when
			// the engines' enumeration would too.
			cons = append(cons, symb.B(ops[next()%6],
				symb.B(symb.And, symb.S(syms[next()%3]), symb.C(uint64(next()%16))),
				symb.C(uint64(next()%16))))
		case 5:
			cons = append(cons, symb.Not{X: symb.B(ops[next()%6], symb.S(syms[next()%3]), symb.C(uint64(next())))})
		}
	}
	domains := make(map[string]symb.Domain)
	m := int(next() % 4)
	for k := 0; k < m; k++ {
		s := syms[next()%3]
		if next()%2 == 0 {
			// Singleton domain — the constant-propagation trigger.
			v := uint64(next())
			domains[s] = symb.Domain{Lo: v, Hi: v}
		} else {
			domains[s] = symb.Domain{Lo: uint64(next()), Hi: uint64(next())}
		}
	}
	return cons, domains
}

// FuzzJoinPreFilter pins the pre-filter's soundness contract: whenever
// it rejects a pair, a fresh solve at the join budget must also prove
// the pair Unsat. (The converse is not required — the filter is allowed
// to miss.) FuzzSolverEquivalence pins that fresh solve to the
// reference solver in symb's tests.
func FuzzJoinPreFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1})                         // single ground-false conjunct
	f.Add([]byte{2, 1, 0, 0, 42, 1, 0, 10, 3})     // eq + empty domain
	f.Add([]byte{3, 3, 2, 1, 7, 0, 2, 1, 2, 2, 0}) // land with ground arm
	f.Fuzz(func(t *testing.T, data []byte) {
		cons, domains := fuzzJoinSet(data)
		if !joinObviouslyInfeasible(cons, domains) {
			return
		}
		if joinSolver.Feasible(cons, domains) {
			t.Fatalf("pre-filter rejected a set a fresh solve finds feasible:\nconstraints %v\ndomains %v", cons, domains)
		}
	})
}

// The pre-filter itself, unit-level: each trigger fires, and a benign
// set passes.
func TestJoinPreFilter(t *testing.T) {
	if !joinObviouslyInfeasible([]symb.Expr{symb.C(0)}, nil) {
		t.Error("ground-false conjunct not rejected")
	}
	if !joinObviouslyInfeasible(nil, map[string]symb.Domain{"x": {Lo: 9, Hi: 3}}) {
		t.Error("empty domain not rejected")
	}
	ok := []symb.Expr{symb.B(symb.Eq, symb.S("x"), symb.C(4))}
	if joinObviouslyInfeasible(ok, map[string]symb.Domain{"x": {Lo: 0, Hi: 10}}) {
		t.Error("satisfiable set rejected by the static filter")
	}

	// Singleton constant-propagation rule: a single-symbol conjunct that
	// evaluates false at the symbol's only possible value is rejected…
	one := map[string]symb.Domain{"x": {Lo: 7, Hi: 7}}
	if !joinObviouslyInfeasible([]symb.Expr{symb.B(symb.Eq, symb.S("x"), symb.C(4))}, one) {
		t.Error("x==4 with x pinned to 7 not rejected")
	}
	if !joinObviouslyInfeasible([]symb.Expr{symb.Not{X: symb.B(symb.Ule, symb.S("x"), symb.C(7))}}, one) {
		t.Error("!(x<=7) with x pinned to 7 not rejected")
	}
	// …but one that holds there is kept, and multi-symbol conjuncts are
	// never evaluated (bounded search may return Unknown on them).
	if joinObviouslyInfeasible([]symb.Expr{symb.B(symb.Uge, symb.S("x"), symb.C(7))}, one) {
		t.Error("x>=7 with x pinned to 7 rejected")
	}
	two := map[string]symb.Domain{"x": {Lo: 7, Hi: 7}, "y": {Lo: 3, Hi: 3}}
	if joinObviouslyInfeasible([]symb.Expr{symb.B(symb.Ult, symb.S("x"), symb.S("y"))}, two) {
		t.Error("multi-symbol conjunct must be left to the solver")
	}
}
