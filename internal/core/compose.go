package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/par"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// joinFeas is the feasibility machinery for one composition: the join
// solver's budget and an incremental engine whose memo every join
// worker shares, so identical pair queries (common when many a-paths
// narrow to the same constraint set) are O(1) repeats.
type joinFeas struct {
	sv  *symb.Solver
	eng *symb.Incremental

	// ranges interns the kept paths' PCV-range maps.
	ranges rangeTable

	// keepModels asks for a model of every kept pair, for the next fold
	// (see joinmodel.go); only a fold with a successor sets it.
	keepModels bool

	// Pruning counters for JoinStats; updated atomically because join
	// workers run in parallel.
	prefiltered   atomic.Uint64
	solverRefuted atomic.Uint64
	modelProved   atomic.Uint64
}

func newJoinFeas() *joinFeas {
	return &joinFeas{sv: joinSolver, eng: symb.NewIncremental()}
}

// prefix prepares the shared a-side state one upstream path reuses
// across every b-candidate it is joined with: a's model (nil when none
// is known), made total and checked once (see totalModel), and a solver
// session in which the path's constraints and domains are flattened,
// compiled and propagated once, so each candidate pays only for its own
// suffix and domain overlay. The session is built when the first pair
// reaches the solver (see session): an a-path whose every pair the
// model check proves never builds one.
func (jf *joinFeas) prefix(pa *PathContract, rawA *nfir.Path, bns string, model map[string]uint64) *joinPrefix {
	return &joinPrefix{
		jf: jf, aLen: len(pa.Constraints), rangesKey: rangesKey(pa.PCVRanges),
		model: totalModel(pa, model),
		pa:    pa, rawA: rawA, bns: bns,
	}
}

// session returns the prefix's solver session, building it on first
// use from a's domains and constraints.
//
// The merge in joinPair intersects a b-domain with a's for a shared
// name, which is what the session's SetDomain does, but OVERWRITES a's
// domain of a symbol rawA writes into a field b bounds (b's bound for
// the field replaces a's for the symbol). Those domains are withheld
// from the prefix — installed there they could only be intersected,
// never replaced — and every fork installs them itself through the
// overlay (see fork). Names under the fold's namespace bns are
// withheld too: a b-local renamed onto one would overwrite it. In a
// chain fold no a-side name carries the deeper prefix, but composing a
// composite again with the same bns can produce one.
func (jp *joinPrefix) session() *symb.Session {
	if jp.sess != nil {
		return jp.sess
	}
	pa, rawA, bns := jp.pa, jp.rawA, jp.bns
	overwritten := func(name string) bool {
		if strings.HasPrefix(name, bns) {
			return true
		}
		for _, w := range rawA.PktWrites {
			if sym, ok := w.Val.(symb.Sym); ok && sym.Name == name {
				return true
			}
		}
		return false
	}
	names := make([]string, 0, len(pa.Domains))
	for n := range pa.Domains {
		names = append(names, n)
	}
	sort.Strings(names)
	install := make([]symb.NamedDomain, 0, len(names))
	for _, n := range names {
		if overwritten(n) {
			jp.held = append(jp.held, n)
		} else {
			install = append(install, symb.NamedDomain{Name: n, Domain: pa.Domains[n]})
		}
	}
	// Domains go in before the constraints, as in a fresh solve
	// (symb.prepare): interval propagation of an order cycle such as
	// x < y ∧ y <= x narrows by one value per round, so it should run
	// over the bounded domains, not over full 64-bit ones where only the
	// solver's strict-cycle check, thousands of steps in, would end it.
	s := jp.jf.eng.NewSession()
	s.SetDomains(install)
	s.AssertAll(pa.Constraints)
	jp.sess = s
	return s
}

// joinPrefix is a prepared a-side constraint prefix. decide calls
// must pass constraint slices whose first aLen entries are exactly the
// prefix this joinPrefix was built from, and a merged domain map that
// holds every a-domain the prefix withheld (held, sorted).
//
// A joinPrefix serves one a-path's pairs, one after another on one
// goroutine, so it also carries their scratch (see pairScratch).
type joinPrefix struct {
	jf        *joinFeas
	aLen      int
	rangesKey string // rangesKey of the a-path's PCVRanges
	// model is a's model, total and checked against a; nil when none is
	// known, which sends every pair to the solver.
	model map[string]uint64

	// session builds sess from a's path (pa, rawA, bns); held is set
	// with it.
	pa   *PathContract
	rawA *nfir.Path
	bns  string
	sess *symb.Session
	held []string

	pairScratch
}

// pairScratch is the working memory of one pair's question, reused by
// the next pair: the solver fork (recycled through ForkInto), b's
// substitution map, the merged names b wrote, the pair's own copy of
// the suffix pre-analysis, the domain overlay, and the model check's
// added bindings, b's values and evaluation stack. None of it outlives
// the pair's verdict; what a kept path retains (its constraints,
// domains, cost, ranges and model) is allocated fresh.
type pairScratch struct {
	child   *symb.Session
	subst   map[string]symb.Expr
	touched []string
	pre     []*symb.Conjunct
	overlay []symb.NamedDomain
	ext     []modelEntry
	vals    []uint64
	stack   []uint64
}

// rangeTable interns the PCV-range maps of one fold's joined paths. A
// joined path's ranges are a's plus b's, and a fold's a-paths and
// b-paths carry few distinct range maps (the 582 paths of the 4-chain
// carry 6), so each distinct merge is built once and every path that
// needs it shares it. Sharing is safe because nothing writes into a
// path's PCVRanges (decoded contracts already share them through the
// codec's ranges table); TestPCVRangesNeverWritten keeps it so.
type rangeTable struct {
	mu sync.Mutex
	m  map[[2]string]map[string]expr.Range
}

// merge returns a's ranges overridden by b's, where aKey and bKey are
// the maps' rangesKey. When b adds nothing to a non-empty a, that is a
// itself.
func (t *rangeTable) merge(aKey string, a map[string]expr.Range, bKey string, b map[string]expr.Range) map[string]expr.Range {
	if len(a) > 0 && subsetOf(b, a) {
		return a
	}
	k := [2]string{aKey, bKey}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.m[k]; ok {
		return m
	}
	m := make(map[string]expr.Range, len(a)+len(b))
	maps.Copy(m, a)
	maps.Copy(m, b)
	if t.m == nil {
		t.m = make(map[[2]string]map[string]expr.Range)
	}
	t.m[k] = m
	return m
}

// subsetOf reports whether every entry of b is in a with the same value.
func subsetOf(b, a map[string]expr.Range) bool {
	for v, r := range b {
		if ar, ok := a[v]; !ok || ar != r {
			return false
		}
	}
	return true
}

// rangesKey spells a PCV-range map canonically: equal maps, and only
// those, have equal keys.
func rangesKey(m map[string]expr.Range) string {
	var b []byte
	for _, v := range slices.Sorted(maps.Keys(m)) {
		r := m[v]
		b = strconv.AppendQuote(b, v)
		b = strconv.AppendUint(append(b, ':'), r.Lo, 10)
		b = strconv.AppendUint(append(b, ','), r.Hi, 10)
		b = append(b, ';')
	}
	return string(b)
}

// pairQuery is one feasibility question put to a joinPrefix: the
// joined constraint list (the prefix's aLen constraints, then the
// suffix), the full merged domain map, the merged entries the b-side
// wrote (touched), and the pre-analysed form of each suffix conjunct
// (pre; shorter than the suffix, or nil at a position, where a conjunct
// must be asserted as it stands).
type pairQuery struct {
	constraints []symb.Expr
	domains     map[string]symb.Domain
	touched     []string
	pre         []*symb.Conjunct
}

// decide reports whether a joined constraint set might be satisfiable,
// with the kept pair's model when the fold keeps models and one is
// known. The static pre-filter runs first: it only rejects sets the
// solver would also refute. The model check (see joinmodel.go) runs
// next: it only keeps sets the solver cannot refute. The solver then
// runs over a fork of the prefix (see fork), which reaches a fresh
// solve's verdict. So the kept-pair set (and hence the composite
// contract) is the one a fresh solve over the full merged map keeps. A
// fold that keeps models asks the solver for one; an Unknown pair is
// kept without.
func (jp *joinPrefix) decide(ctx context.Context, q *pairQuery, rawA *nfir.Path, bm *bPathMeta) (map[string]uint64, bool) {
	jf := jp.jf
	if joinObviouslyInfeasible(q.constraints, q.domains) {
		jf.prefiltered.Add(1)
		return nil, false
	}
	if jp.proved(q, rawA, bm) {
		jf.modelProved.Add(1)
		if jf.keepModels {
			return jp.pairModel(), true
		}
		return nil, true
	}
	child := jp.fork(q)
	if !jf.keepModels {
		ok := child.FeasibleContext(ctx, jf.sv)
		if !ok {
			jf.solverRefuted.Add(1)
		}
		return nil, ok
	}
	model, res := child.SolveContext(ctx, jf.sv)
	if res == symb.Unsat {
		jf.solverRefuted.Add(1)
		return nil, false
	}
	return model, true
}

// fork returns the prefix session extended to q: it asserts the suffix
// — pre-analysed conjuncts through AssertConjunct, the rest as they
// stand — and then applies only the overlay the prefix lacks: the held
// a-domains plus the touched entries, each with its merged value, in
// name order. Every other merged entry is either a's domain, already
// in the prefix, or the intersection of a's and b's, which intersecting
// into the prefix reproduces — so the fork's propagation fixpoint, and
// with it the verdict and witness, is the fresh solve's.
//
// The fork is the previous pair's, recycled: it is valid until the next
// call, which overwrites it.
func (jp *joinPrefix) fork(q *pairQuery) *symb.Session {
	child := jp.session().ForkInto(jp.child)
	jp.child = child
	for i, c := range q.constraints[jp.aLen:] {
		if i < len(q.pre) && q.pre[i] != nil {
			child.AssertConjunct(q.pre[i])
		} else {
			child.Assert(c)
		}
	}
	overlay := jp.overlay[:0]
	for _, n := range jp.held {
		overlay = append(overlay, symb.NamedDomain{Name: n, Domain: q.domains[n]})
	}
	for _, n := range q.touched {
		overlay = append(overlay, symb.NamedDomain{Name: n, Domain: q.domains[n]})
	}
	slices.SortFunc(overlay, func(x, y symb.NamedDomain) int { return strings.Compare(x.Name, y.Name) })
	overlay = slices.CompactFunc(overlay, func(x, y symb.NamedDomain) bool { return x.Name == y.Name })
	child.SetDomains(overlay)
	jp.overlay = overlay
	return child
}

// joinObviouslyInfeasible is the static pre-filter in front of the
// solver: it rejects pairs whose merged domains contain an empty range
// (two ranges for a shared symbol that do not intersect), whose
// substituted constraints folded to a ground-false conjunct (a wrote a
// constant the b path's branch condition contradicts), or — constant
// propagation — whose conjunct mentions exactly one symbol pinned to a
// single value by its merged domain and evaluates to false there. All
// three conditions are ones the solver proves Unsat before any bounded
// search: it refutes constant-false conjuncts while flattening, empty
// domains while intersecting bounds, and single-symbol conjuncts over
// singleton domains by enumeration during propagation. The
// single-symbol restriction matters: a ground-false conjunct over TWO
// pinned symbols is something the bounded search may return Unknown on
// (it requires complete candidate cover over every variable in the
// set), so rejecting it would drop pairs the full scan keeps.
// FuzzJoinPreFilter pins this against a fresh solve.
func joinObviouslyInfeasible(constraints []symb.Expr, domains map[string]symb.Domain) bool {
	singletons := false
	for _, d := range domains {
		if d.Lo > d.Hi {
			return true
		}
		if d.Lo == d.Hi {
			singletons = true
		}
	}
	for _, c := range constraints {
		if k, ok := c.(symb.Const); ok && k.V == 0 {
			return true
		}
		if !singletons {
			continue
		}
		if s, ok := singleSymOf(c); ok {
			if d, has := domains[s]; has && d.Lo == d.Hi {
				if c.Eval(map[string]uint64{s: d.Lo}) == 0 {
					return true
				}
			}
		}
	}
	return false
}

// singleSymOf reports the unique symbol of e when e mentions exactly
// one distinct symbol (any number of times).
func singleSymOf(e symb.Expr) (string, bool) {
	name, n := "", 0
	var walk func(symb.Expr) bool
	walk = func(e symb.Expr) bool {
		switch x := e.(type) {
		case symb.Sym:
			if n == 0 {
				name, n = x.Name, 1
			} else if x.Name != name {
				return false
			}
			return true
		case symb.Bin:
			return walk(x.L) && walk(x.R)
		case symb.Not:
			return walk(x.X)
		}
		return true
	}
	if !walk(e) || n == 0 {
		return "", false
	}
	return name, true
}

// joinPair attempts to join a forwarding path of a with a path of b,
// checking the conjoined constraint set against jp (which must have been
// prepared from pa and rawA under bns). bns is the namespace prefix for
// b's local symbols — "b." for a pairwise join, one more "b." per fold
// level in a chain, so every stage's variables stay distinct in the
// composite (stage 3's "x" must not collide with stage 2's "b.x").
// bm is the b-path's per-fold metadata (see buildJoinIndex), built
// under the same bns: everything that depends on b alone — the renamed
// constraints, costs, shared-MA and PCV ranges — is computed there once,
// and this function does only what depends on a as well. The returned
// path carries ID 0; the caller assigns IDs during assembly. model is
// the kept path's model when jp's fold keeps models and one is known.
func joinPair(ctx context.Context, pa *PathContract, rawA *nfir.Path, pb *PathContract, rawB *nfir.Path, jp *joinPrefix, bns string, bm *bPathMeta) (joined *PathContract, model map[string]uint64, ok bool) {
	q := mergePair(pa, rawA, pb, bm, &jp.pairScratch)
	if model, ok = jp.decide(ctx, &q, rawA, bm); !ok {
		return nil, nil, false
	}

	cost := make(map[perf.Metric]expr.Poly, perf.NumMetrics)
	for _, m := range perf.Metrics {
		cost[m] = pa.Cost[m].Add(bm.cost[m])
	}
	return &PathContract{
		Action:      pb.Action,
		Constraints: q.constraints,
		Domains:     q.domains,
		Events:      joinEvents(pa.Events, pb.Events),
		Cost:        cost,
		PCVRanges:   jp.jf.ranges.merge(jp.rangesKey, pa.PCVRanges, bm.rangesKey, bm.ranges),
		// Shared-MA composes exactly like cost: both stages run on the
		// same shard (the chain is dispatched once), so their shared
		// accesses add. EffectiveSharedMA keeps the composition
		// conservative when either side predates the sharability
		// analysis.
		SharedMA:      pa.EffectiveSharedMA().Add(bm.sharedMA),
		ShardAnalysed: true,
	}, model, true
}

// mergePair builds the pair's feasibility question: a's constraints
// followed by b's under the substitution, and a's domains merged with
// b's, each b symbol landing where bSym.merged puts it. The question's touched and pre slices live in sc, so they are
// valid until sc's next use; its constraints and domains are the kept
// path's own.
func mergePair(pa *PathContract, rawA *nfir.Path, pb *PathContract, bm *bPathMeta, sc *pairScratch) pairQuery {
	// b's symbol substitution: packet fields written by a map to a's
	// output expressions; unwritten fields stay shared with a's input;
	// b-locals are namespaced (bm.renames). Only the first part depends
	// on a, so the full map is built only when a wrote a field b reads.
	var subst map[string]symb.Expr
	for i := range bm.fields {
		f := &bm.fields[i]
		name, w, written := f.merged(rawA) // a field is own exactly when a wrote it
		if !written {
			continue
		}
		if subst == nil {
			if sc.subst == nil {
				sc.subst = make(map[string]symb.Expr, len(bm.renames)+len(bm.fields))
			}
			subst = sc.subst
			clear(subst)
			maps.Copy(subst, bm.renames)
		}
		if w == nil {
			// Overlapping mixed-size rewrite: sound fallback is an
			// unconstrained fresh symbol.
			w = symb.S(name)
		}
		subst[f.name] = w
	}

	// Conjuncts that mention no field a wrote are the same for every
	// a-path: they keep bm's form and its pre-analysis.
	constraints := make([]symb.Expr, len(pa.Constraints), len(pa.Constraints)+len(bm.cons))
	copy(constraints, pa.Constraints)
	pre, ownPre := bm.pre, false
	for i, c := range bm.cons {
		if subst != nil && mentionsWritten(bm.consOffs[i], rawA) {
			c = symb.Substitute(pb.Constraints[i], subst)
			if !ownPre {
				pre, ownPre = append(sc.pre[:0], bm.pre...), true
				sc.pre = pre
			}
			pre[i] = nil
		}
		constraints = append(constraints, c)
	}

	domains := make(map[string]symb.Domain, len(pa.Domains)+len(bm.doms))
	maps.Copy(domains, pa.Domains)
	touched := sc.touched[:0]
	for i := range bm.doms {
		bd := &bm.doms[i]
		name, _, overwrite := bd.merged(rawA)
		if name == "" {
			// Substituted to a non-symbol expression: the domain is
			// implied by a's constraints.
			continue
		}
		d := bd.d
		if old, ok := domains[name]; ok && !overwrite {
			// Shared symbol: intersect conservatively.
			if d.Lo < old.Lo {
				d.Lo = old.Lo
			}
			if d.Hi > old.Hi {
				d.Hi = old.Hi
			}
		}
		domains[name] = d
		touched = append(touched, name)
	}
	sc.touched = touched
	return pairQuery{constraints: constraints, domains: domains, touched: touched, pre: pre}
}

// mentionsWritten reports whether any of a conjunct's field offsets is
// one rawA writes.
func mentionsWritten(offs []uint64, rawA *nfir.Path) bool {
	for _, off := range offs {
		if _, ok := rawA.PktWrites[off]; ok {
			return true
		}
	}
	return false
}

func prefixEvents(prefix, events string) string {
	if events == "" {
		return ""
	}
	return prefix + events
}

// joinEvents always carries the " | " stage separator so joined pairs
// are distinguishable from a-only paths even when a stage made no
// stateful calls.
func joinEvents(a, b string) string {
	return "a." + a + " | b." + b
}

// JoinStats is the pruning accounting of one fold level: where each of
// the Pairs = forward-a-paths × b-paths candidate pairs ended up. Every
// considered pair lands in exactly one of IndexSkipped, PreFiltered,
// SolverRefuted, or Kept, so the four sum to Pairs (unless the fold was
// served from cache, in which case Cached is set and the counters are
// zero). ModelProved counts the Kept pairs the model check proved
// without a solve (see joinmodel.go); it is part of Kept, not a fifth
// share. CoalesceMerged counts composite paths merged away by
// coalescing after the join; PathsOut is the fold's final path count.
type JoinStats struct {
	Fold           int    `json:"fold"`
	Stage          string `json:"stage"`
	APaths         int    `json:"a_paths"`
	BPaths         int    `json:"b_paths"`
	Pairs          uint64 `json:"pairs"`
	IndexSkipped   uint64 `json:"index_skipped"`
	PreFiltered    uint64 `json:"prefiltered"`
	SolverRefuted  uint64 `json:"solver_refuted"`
	Kept           uint64 `json:"kept"`
	ModelProved    uint64 `json:"model_proved"`
	CoalesceMerged uint64 `json:"coalesce_merged"`
	PathsOut       int    `json:"paths_out"`
	Cached         bool   `json:"cached,omitempty"`
}

// foldSide is one side of a fold: a contract, the symbolic paths
// aligned with it, and — in memory only, never cached — a model per
// path known to satisfy it (see joinmodel.go). models may be nil, and
// an entry nil, where none is known; a stage path's Witness serves as
// its model.
type foldSide struct {
	ct     *Contract
	paths  []*nfir.Path
	models []map[string]uint64
}

// model returns path i's known model: models[i], or its Witness.
func (s *foldSide) model(i int) map[string]uint64 {
	if s.models != nil && s.models[i] != nil {
		return s.models[i]
	}
	return s.ct.Paths[i].Witness
}

// anyModel reports whether some forward path of s brings a model to
// the fold it is the a-side of.
func (s *foldSide) anyModel() bool {
	for i, pa := range s.ct.Paths {
		if pa.Action == nfir.ActionForward && s.model(i) != nil {
			return true
		}
	}
	return false
}

// composePrepared joins an already-generated pair of stages. The joins
// of distinct a-paths are independent, so they fan out over the
// generator's worker pool into result slots indexed by a's path order;
// the serial assembly pass then concatenates the slots, optionally
// coalesces, and assigns IDs in that order, which keeps the composite
// byte-identical to the serial fold at any Parallelism. key, when
// non-empty, content-addresses the composed stage in the generator's
// contract cache. bns is the namespace prefix applied to b's local
// symbols (see joinPair). next says a fold follows this one: the result
// then carries the kept paths' models for it. stats, when non-nil,
// receives the fold's pruning accounting.
func composePrepared(ctx context.Context, g *Generator, a foldSide, bName string, b foldSide, key, bns string, next bool, stats *JoinStats) (foldSide, error) {
	aCt, aPaths, bCt, bPaths := a.ct, a.paths, b.ct, b.paths
	if len(aCt.Paths) != len(aPaths) {
		return foldSide{}, fmt.Errorf("core: contract/path mismatch for %s", aCt.NF)
	}
	if len(bCt.Paths) != len(bPaths) {
		return foldSide{}, fmt.Errorf("core: contract/path mismatch for %s", bCt.NF)
	}
	name := aCt.NF + "+" + bName
	if stats != nil {
		stats.Stage = bName
		stats.APaths, stats.BPaths = len(aCt.Paths), len(bCt.Paths)
	}
	if key != "" {
		if ct, paths, ok := g.Cache.lookup(key); ok {
			if stats != nil {
				stats.Cached = true
				stats.PathsOut = len(ct.Paths)
			}
			return foldSide{ct: ct, paths: paths}, nil
		}
	}

	jf := newJoinFeas()
	jf.keepModels = next
	ix := buildJoinIndex(bCt, bPaths, bns, a.anyModel())
	var indexSkipped atomic.Uint64
	type slot struct {
		pcs    []*PathContract
		raws   []*nfir.Path
		models []map[string]uint64
	}
	slots := make([]slot, len(aCt.Paths))
	err := par.ForEach(ctx, g.workers(), len(aCt.Paths), func(i int) error {
		pa := aCt.Paths[i]
		rawA := aPaths[i]
		if pa.Action != nfir.ActionForward {
			// A pass-through path is never joined again, so it needs no
			// model.
			cp := *pa
			cp.Events = prefixEvents("a.", pa.Events)
			slots[i] = slot{pcs: []*PathContract{&cp}, raws: []*nfir.Path{rawA}, models: []map[string]uint64{nil}}
			return nil
		}
		jp := jf.prefix(pa, rawA, bns, a.model(i))
		aw := buildAJoinInfo(pa, rawA)
		cands, partPruned := ix.candidates(aw)
		if partPruned > 0 {
			indexSkipped.Add(uint64(partPruned))
		}
		var sl slot
		join := func(j int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ix.skip(aw, pa, j) {
				indexSkipped.Add(1)
				return nil
			}
			joined, model, ok := joinPair(ctx, pa, rawA, bCt.Paths[j], bPaths[j], jp, bns, &ix.metas[j])
			if !ok {
				return nil
			}
			sl.pcs = append(sl.pcs, joined)
			sl.raws = append(sl.raws, joinRawPaths(rawA, joined, &ix.metas[j]))
			sl.models = append(sl.models, model)
			return nil
		}
		if cands != nil {
			for _, j := range cands {
				if err := join(j); err != nil {
					return err
				}
			}
		} else {
			for j := range bCt.Paths {
				if err := join(j); err != nil {
					return err
				}
			}
		}
		slots[i] = sl
		return nil
	})
	if err != nil {
		return foldSide{}, fmt.Errorf("core: composing %s: %w", name, err)
	}

	var pcs []*PathContract
	var raws []*nfir.Path
	var shared []bool
	var models []map[string]uint64
	forward, kept := 0, uint64(0)
	for i, sl := range slots {
		for k, pc := range sl.pcs {
			pcs = append(pcs, pc)
			raws = append(raws, sl.raws[k])
			// The pass-through raw of a non-forward path is shared with
			// (and possibly cached by) the a-side, so it must stay
			// untouched during ID assignment and coalescing.
			shared = append(shared, sl.raws[k] == aPaths[i])
		}
		if next {
			models = append(models, sl.models...)
		}
		if aCt.Paths[i].Action == nfir.ActionForward {
			forward++
			kept += uint64(len(sl.pcs))
		}
	}
	var mergedAway uint64
	if g.Coalesce {
		in := pcs
		pcs, raws, shared, mergedAway = coalescePaths(pcs, raws, shared)
		if next {
			models = coalescedModels(in, models, pcs)
		}
	}

	out := &Contract{NF: name, Level: aCt.Level}
	for k, pc := range pcs {
		pc.ID = k
		if !shared[k] {
			raws[k].ID = k
		}
		out.Paths = append(out.Paths, pc)
	}
	if stats != nil {
		stats.Pairs = uint64(forward) * uint64(len(bCt.Paths))
		stats.IndexSkipped = indexSkipped.Load()
		stats.PreFiltered = jf.prefiltered.Load()
		stats.SolverRefuted = jf.solverRefuted.Load()
		stats.Kept = kept
		stats.ModelProved = jf.modelProved.Load()
		stats.CoalesceMerged = mergedAway
		stats.PathsOut = len(out.Paths)
	}
	if key != "" {
		g.Cache.store(key, out, raws)
	}
	return foldSide{ct: out, paths: raws, models: models}, nil
}

// coalescedModels realigns the models of in with out, the coalesced
// list: a path coalescing left as it was keeps its model, and a merged
// representative, whose constraints no member's model was checked
// against, gets none.
func coalescedModels(in []*PathContract, models []map[string]uint64, out []*PathContract) []map[string]uint64 {
	byPath := make(map[*PathContract]map[string]uint64, len(in))
	for k, pc := range in {
		byPath[pc] = models[k]
	}
	realigned := make([]map[string]uint64, len(out))
	for k, pc := range out {
		realigned[k] = byPath[pc]
	}
	return realigned
}

// joinRawPaths synthesises the composite symbolic path: the chain's
// output packet is b's writes (namespaced once per fold in bm.writes)
// over a's writes over the original input.
func joinRawPaths(rawA *nfir.Path, joined *PathContract, bm *bPathMeta) *nfir.Path {
	writes := make(map[uint64]nfir.PktWrite, len(rawA.PktWrites)+len(bm.writes))
	maps.Copy(writes, rawA.PktWrites)
	maps.Copy(writes, bm.writes)
	return &nfir.Path{
		ID:          joined.ID,
		Constraints: joined.Constraints,
		Domains:     joined.Domains,
		Action:      joined.Action,
		PktWrites:   writes,
	}
}

// renameChained namespaces b-local symbols with the join's bns prefix
// while leaving shared input symbols (packet fields, now, pkt_len;
// in_port is b-local) untouched.
func renameChained(bns, s string) string {
	if _, _, ok := nfir.ParseFieldSym(s); ok {
		return s
	}
	if s == nfir.SymNow || s == nfir.SymPktLen {
		return s
	}
	return bns + s
}

// ChainStage is one NF of a chain: the program and the symbolic models
// of the stateful structures it calls. It is the unit ComposeMany
// generates (and caches) per stage.
type ChainStage struct {
	Prog   *nfir.Program
	Models map[string]nfir.Model
}

// ComposeMany builds the performance contract of a chain of NFs (§3.4):
// stages[0] → stages[1] → … Every packet is processed by the first
// stage; packets a stage forwards continue into the next, and a stage's
// drop paths end the chain there, unchanged. The fold "pieces together
// compatible paths one at a time in sequence": each step joins the
// composite so far (a) with the next stage (b) by substituting a's
// output-packet expressions into b's input-packet symbols, conjoining
// the constraint sets, and keeping only pairs the join solver cannot
// rule out. Each step also synthesises composite symbolic paths aligned
// with the composite contract, which is what lets the next step join
// onto it.
//
// The PCVs and model symbols of stage k are namespaced one "b." per
// fold level, as in the composite contracts of Table 5c: stage 1 keeps
// its names, stage 2's "x" appears as "b.x", stage 3's as "b.b.x" — the
// prefix length tells you how many joins deep the stage sits, and no two
// stages can collide (examples/nf-chain walks through reading them).
//
// The stages' contracts are generated concurrently on the generator's
// worker pool (the stages are independent NFs); the joins then fold
// left to right, and the fold order is what keeps the composite
// deterministic. Within each fold step the per-a-path joins run on the
// pool too (see composePrepared).
//
// When the generator has a cache attached, every fold prefix is
// content-addressed: the key of stages[0..k] hashes the key of
// stages[0..k-1] with stage k's own generation key, so re-composing a
// warm chain — or extending a chain whose prefix was composed before —
// skips the joins (and, for a fully warm chain, the stage generations
// too).
func ComposeMany(g *Generator, stages []ChainStage) (*Contract, error) {
	ct, _, err := ComposeManyStats(context.Background(), g, stages)
	return ct, err
}

// ComposeManyStats is ComposeMany with cancellation, plus per-fold-level
// pruning statistics: one JoinStats per fold (len(stages)-1 entries), in
// fold order. A fully warm chain that returns its composite straight
// from the cache reports nil stats — no fold ran.
func ComposeManyStats(ctx context.Context, g *Generator, stages []ChainStage) (*Contract, []JoinStats, error) {
	if len(stages) < 2 {
		return nil, nil, fmt.Errorf("core: a chain needs at least two stages")
	}
	stageKeys := make([]string, len(stages))
	for i := range stages {
		stageKeys[i], _ = g.cacheKey(stages[i].Prog, stages[i].Models)
	}
	foldKeys := make([]string, len(stages))
	foldKeys[0] = stageKeys[0]
	for i := 1; i < len(stages); i++ {
		foldKeys[i] = g.composedKey(foldKeys[i-1], stageKeys[i])
	}
	// Keys derive from programs and models alone, so a fully warm chain
	// returns its composite before generating a single stage.
	if fk := foldKeys[len(stages)-1]; fk != "" {
		if ct, _, ok := g.Cache.lookup(fk); ok {
			return ct, nil, nil
		}
	}

	gens := make([]foldSide, len(stages))
	err := par.ForEach(ctx, g.workers(), len(stages), func(i int) error {
		ct, paths, err := g.GenerateWithPathsContext(ctx, stages[i].Prog, stages[i].Models)
		if err != nil {
			return err
		}
		gens[i] = foldSide{ct: ct, paths: paths}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating chain stages: %w", err)
	}
	stats := make([]JoinStats, 0, len(stages)-1)
	acc := gens[0]
	for i, st := range stages[1:] {
		// Fold step i joins stage i+2 one level deeper: its locals get
		// one more "b." than the previous stage's, so every stage owns a
		// distinct namespace in the composite.
		bns := strings.Repeat("b.", i+1)
		fs := JoinStats{Fold: i + 1}
		next := i+2 < len(stages)
		acc, err = composePrepared(ctx, g, acc, st.Prog.Name, gens[i+1], foldKeys[i+1], bns, next, &fs)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, fs)
	}
	return acc.ct, stats, nil
}

// NaiveAdd is the baseline composition Figure 3 compares against:
// simply adding the two NFs' independent worst-case bounds (each
// contract's Bound over all classes at the given PCV assignment),
// ignoring inter-NF dependencies. The gap between NaiveAdd and the
// composite contract's bound is the precision §3.4's join buys.
func NaiveAdd(a, b *Contract, metric perf.Metric, pcvs map[string]uint64) uint64 {
	av, _ := a.Bound(metric, nil, pcvs)
	bv, _ := b.Bound(metric, nil, pcvs)
	return av + bv
}
