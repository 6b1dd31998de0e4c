package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/par"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// Compose builds the performance contract of the chain a→b (§3.4): every
// packet is processed by a; packets a forwards continue into b. Path
// pairs are joined by substituting a's output-packet expressions into
// b's input-packet symbols, conjoining the constraint sets, and keeping
// only pairs the solver cannot rule out. a's drop paths appear unchanged
// (the packet never reaches b). b's symbols and PCVs are namespaced with
// "b." so the two NFs' variables stay distinguishable, as in the
// composite contracts of Table 5c.
//
// The composition needs b's symbolic paths (not just its contract), so
// it takes the second NF's program and models and generates it. The
// a-side usually comes from GenerateWithPaths (or a previous Compose),
// which keeps aCt.Paths and aPaths aligned by construction.
//
// Feasibility checks honour the generator's FeasibilityMaxNodes /
// FeasibilitySamples budgets and the NoIncremental ablation switch; see
// DefaultComposeFeasibilityMaxNodes for the defaults when unset.
func Compose(g *Generator, aCt *Contract, aPaths []*nfir.Path, bProg *nfir.Program, bModels map[string]nfir.Model) (*Contract, error) {
	ct, _, err := ComposeWithPaths(g, aCt, aPaths, bProg, bModels)
	return ct, err
}

// DefaultComposeFeasibilityMaxNodes and DefaultComposeFeasibilitySamples
// are the pairwise-join feasibility budget used when the Generator does
// not set FeasibilityMaxNodes / FeasibilitySamples. Joins conjoin two
// NFs' path constraints, so the default budget is deliberately larger
// than the exploration default (nfir.DefaultFeasibilityMaxNodes):
// proving a pair infeasible is what keeps composite contracts tight —
// an Unknown keeps the pair, soundly but loosely.
const (
	DefaultComposeFeasibilityMaxNodes = 20000
	DefaultComposeFeasibilitySamples  = 24
)

// composeSolver resolves the feasibility budget for composition joins.
// The same knobs that tune exploration pruning — FeasibilityMaxNodes /
// FeasibilitySamples, i.e. bolt's -feas-nodes / -feas-samples flags —
// apply here; zero falls back to the composition defaults above, and
// NoIncremental routes every check through the reference engine.
func (g *Generator) composeSolver() *symb.Solver {
	s := &symb.Solver{
		MaxNodes:  g.FeasibilityMaxNodes,
		Samples:   g.FeasibilitySamples,
		Reference: g.NoIncremental,
	}
	if s.MaxNodes == 0 {
		s.MaxNodes = DefaultComposeFeasibilityMaxNodes
	}
	if s.Samples == 0 {
		s.Samples = DefaultComposeFeasibilitySamples
	}
	return s
}

// joinFeas is the feasibility machinery for one composition: the solver
// budget resolved from the generator and — unless the NoIncremental
// ablation is on — an incremental engine whose memo every join worker
// shares, so identical pair queries (common when many a-paths narrow to
// the same constraint set) are O(1) repeats.
type joinFeas struct {
	sv  *symb.Solver
	eng *symb.Incremental

	// Pruning counters for JoinStats; updated atomically because join
	// workers run in parallel.
	prefiltered   atomic.Uint64
	solverRefuted atomic.Uint64
}

func (g *Generator) composeFeasibility() *joinFeas {
	jf := &joinFeas{sv: g.composeSolver()}
	if !g.NoIncremental {
		jf.eng = symb.NewIncremental()
	}
	return jf
}

// prefix prepares the shared a-side state one upstream path reuses
// across every b-candidate it is joined with: the path's constraints
// and domains are flattened, compiled and propagated once in a solver
// session, and each candidate pays only for its own suffix and domain
// overlay.
//
// The merge in joinPair intersects a b-domain with a's for a shared
// name, which is what the session's SetDomain does, but OVERWRITES a's
// domain of a symbol rawA writes into a field b bounds (b's bound for
// the field replaces a's for the symbol). Those domains are withheld
// from the prefix — installed there they could only be intersected,
// never replaced — and every fork installs them itself through the
// overlay (see feasible). Names under the fold's namespace bns are
// withheld too: a b-local renamed onto one would overwrite it. In a
// chain fold no a-side name carries the deeper prefix, but composing a
// composite again with the same bns can produce one.
func (jf *joinFeas) prefix(pa *PathContract, rawA *nfir.Path, bns string) *joinPrefix {
	jp := &joinPrefix{jf: jf, aLen: len(pa.Constraints)}
	if jf.eng == nil {
		return jp
	}
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
	// x < y ∧ y <= x narrows by one value per round, so it must not run
	// over full 64-bit domains a bound would have cut short.
	s := jf.eng.NewSession()
	s.SetDomains(install)
	s.AssertAll(pa.Constraints)
	jp.sess = s
	return jp
}

// joinPrefix is a prepared a-side constraint prefix. feasible() calls
// must pass constraint slices whose first aLen entries are exactly the
// prefix this joinPrefix was built from, and a merged domain map that
// holds every a-domain the prefix withheld (held, sorted).
type joinPrefix struct {
	jf   *joinFeas
	aLen int
	sess *symb.Session
	held []string
}

// extend returns a joinPrefix whose prefix is this one's plus extra,
// sharing the parent's prepared solver state (DAG composition narrows
// one root path to several output ports this way).
func (jp *joinPrefix) extend(extra ...symb.Expr) *joinPrefix {
	child := &joinPrefix{jf: jp.jf, aLen: jp.aLen + len(extra), held: jp.held}
	if jp.sess != nil {
		s := jp.sess.Fork()
		s.AssertAll(extra)
		child.sess = s
	}
	return child
}

// pairQuery is one feasibility question put to a joinPrefix: the
// joined constraint list (the prefix's aLen constraints, then the
// suffix), the full merged domain map, the merged entries the b-side
// wrote (touched; nil when there is no b-side), and the pre-analysed
// form of each suffix conjunct (pre; shorter than the suffix, or nil at
// a position, where a conjunct must be asserted as it stands).
type pairQuery struct {
	constraints []symb.Expr
	domains     map[string]symb.Domain
	touched     []string
	pre         []*symb.Conjunct
}

// feasible reports whether a joined constraint set might be satisfiable.
// The static pre-filter runs first in every mode — it only rejects sets
// both solver engines would also refute, so the kept-pair set (and
// hence the composite contract) is identical across incremental and
// reference feasibility. The reference engine solves over the full map;
// the incremental one over a fork of the prefix (see fork).
func (jp *joinPrefix) feasible(ctx context.Context, q *pairQuery) bool {
	if joinObviouslyInfeasible(q.constraints, q.domains) {
		jp.jf.prefiltered.Add(1)
		return false
	}
	var ok bool
	if jp.sess == nil {
		ok = jp.jf.sv.FeasibleContext(ctx, q.constraints, q.domains)
	} else {
		ok = jp.fork(q).FeasibleContext(ctx, jp.jf.sv)
	}
	if !ok {
		jp.jf.solverRefuted.Add(1)
	}
	return ok
}

// fork returns the prefix session extended to q: it asserts the suffix
// — pre-analysed conjuncts through AssertConjunct, the rest as they
// stand — and then applies only the overlay the prefix lacks: the held
// a-domains plus the touched entries, each with its merged value, in
// name order. Every other merged entry is either a's domain, already
// in the prefix, or the intersection of a's and b's, which intersecting
// into the prefix reproduces — so the fork's propagation fixpoint, and
// with it the verdict and witness, is the fresh solve's.
func (jp *joinPrefix) fork(q *pairQuery) *symb.Session {
	child := jp.sess.Fork()
	for i, c := range q.constraints[jp.aLen:] {
		if i < len(q.pre) && q.pre[i] != nil {
			child.AssertConjunct(q.pre[i])
		} else {
			child.Assert(c)
		}
	}
	var buf [16]symb.NamedDomain
	overlay := buf[:0]
	for _, n := range jp.held {
		overlay = append(overlay, symb.NamedDomain{Name: n, Domain: q.domains[n]})
	}
	for _, n := range q.touched {
		overlay = append(overlay, symb.NamedDomain{Name: n, Domain: q.domains[n]})
	}
	slices.SortFunc(overlay, func(x, y symb.NamedDomain) int { return strings.Compare(x.Name, y.Name) })
	overlay = slices.CompactFunc(overlay, func(x, y symb.NamedDomain) bool { return x.Name == y.Name })
	child.SetDomains(overlay)
	return child
}

// joinObviouslyInfeasible is the static pre-filter in front of the
// solver: it rejects pairs whose merged domains contain an empty range
// (two ranges for a shared symbol that do not intersect), whose
// substituted constraints folded to a ground-false conjunct (a wrote a
// constant the b path's branch condition contradicts), or — constant
// propagation — whose conjunct mentions exactly one symbol pinned to a
// single value by its merged domain and evaluates to false there. All
// three conditions are ones every solver engine proves Unsat before any
// bounded search: the reference implementation refutes constant-false
// conjuncts while flattening, empty domains while intersecting bounds,
// and single-symbol conjuncts over singleton domains by enumeration
// (refPropagateEnum; the incremental engine's propagation does the
// same). The single-symbol restriction matters: a ground-false conjunct
// over TWO pinned symbols is something the bounded search may return
// Unknown on (it requires complete candidate cover over every variable
// in the set), so rejecting it would drop pairs the full scan keeps.
// FuzzJoinPreFilter pins this against the reference engine.
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
// path carries ID 0; the caller assigns IDs during assembly.
func joinPair(ctx context.Context, pa *PathContract, rawA *nfir.Path, pb *PathContract, rawB *nfir.Path, jp *joinPrefix, bns string, bm *bPathMeta) (*PathContract, bool) {
	var touchedBuf [8]string
	q := mergePair(pa, rawA, pb, bns, bm, touchedBuf[:0])
	if !jp.feasible(ctx, &q) {
		return nil, false
	}

	cost := make(map[perf.Metric]expr.Poly, perf.NumMetrics)
	for _, m := range perf.Metrics {
		cost[m] = pa.Cost[m].Add(bm.cost[m])
	}
	ranges := make(map[string]expr.Range, len(pa.PCVRanges)+len(bm.ranges))
	maps.Copy(ranges, pa.PCVRanges)
	maps.Copy(ranges, bm.ranges)

	return &PathContract{
		Action:      pb.Action,
		Constraints: q.constraints,
		Domains:     q.domains,
		Events:      joinEvents(pa.Events, pb.Events),
		Cost:        cost,
		PCVRanges:   ranges,
		// Shared-MA composes exactly like cost: both stages run on the
		// same shard (the chain is dispatched once), so their shared
		// accesses add. EffectiveSharedMA keeps the composition
		// conservative when either side predates the sharability
		// analysis.
		SharedMA:      pa.EffectiveSharedMA().Add(bm.sharedMA),
		ShardAnalysed: true,
	}, true
}

// mergePair builds the pair's feasibility question: a's constraints
// followed by b's under the substitution, and a's domains merged with
// b's. touched is the buffer the b-written names are appended to.
func mergePair(pa *PathContract, rawA *nfir.Path, pb *PathContract, bns string, bm *bPathMeta, touched []string) pairQuery {
	// b's symbol substitution: packet fields written by a map to a's
	// output expressions; unwritten fields stay shared with a's input;
	// b-locals are namespaced (bm.renames). Only the first part depends
	// on a, so the full map is built only when a wrote a field b reads.
	var subst map[string]symb.Expr
	for _, f := range bm.fields {
		w, written := rawA.PktWrites[f.key.off]
		if !written {
			continue
		}
		if subst == nil {
			subst = make(map[string]symb.Expr, len(bm.renames)+len(bm.fields))
			maps.Copy(subst, bm.renames)
		}
		if w.Size == f.key.size {
			subst[f.name] = w.Val
		} else {
			// Overlapping mixed-size rewrite: sound fallback is an
			// unconstrained fresh symbol.
			subst[f.name] = symb.S(bns + f.name)
		}
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
				pre, ownPre = slices.Clone(bm.pre), true
			}
			pre[i] = nil
		}
		constraints = append(constraints, c)
	}

	domains := make(map[string]symb.Domain, len(pa.Domains)+len(bm.doms))
	maps.Copy(domains, pa.Domains)
	for _, bd := range bm.doms {
		name, overwrite := bd.name, false
		w, written := rawA.PktWrites[bd.key.off]
		switch {
		case bd.local:
			name, overwrite = bd.renamed, true
		case !bd.field || !written:
			// now, pkt_len or an unwritten field: shared with a.
		case w.Size != bd.key.size:
			// Mixed-size rewrite: the field became a fresh b symbol.
			name, overwrite = bd.renamed, true
		default:
			sym, isSym := w.Val.(symb.Sym)
			if !isSym {
				// Substituted to a non-symbol expression: the domain is
				// implied by a's constraints.
				continue
			}
			name, overwrite = sym.Name, true
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

// ComposeWithPaths is Compose plus synthetic composite paths aligned
// with the returned contract, so the result can itself be composed with
// a further NF — the §3.4 extension to longer chains, which "pieces
// together compatible paths one at a time in sequence". ComposeMany
// wraps exactly this fold, and additionally content-addresses each
// composite in the contract cache.
func ComposeWithPaths(g *Generator, aCt *Contract, aPaths []*nfir.Path, bProg *nfir.Program, bModels map[string]nfir.Model) (*Contract, []*nfir.Path, error) {
	return ComposeWithPathsContext(context.Background(), g, aCt, aPaths, bProg, bModels)
}

// ComposeWithPathsContext is ComposeWithPaths with cancellation. The
// second NF is generated through the pipeline once (contract and paths
// come from the same exploration, so they align by construction — and
// the generation hits the contract cache when one is attached). The
// composite itself is not cached here: the a-side is an arbitrary
// caller-supplied contract with no content address. Use ComposeMany for
// cached chains.
func ComposeWithPathsContext(ctx context.Context, g *Generator, aCt *Contract, aPaths []*nfir.Path, bProg *nfir.Program, bModels map[string]nfir.Model) (*Contract, []*nfir.Path, error) {
	bCt, bPaths, err := g.GenerateWithPathsContext(ctx, bProg, bModels)
	if err != nil {
		return nil, nil, err
	}
	return composePrepared(ctx, g, aCt, aPaths, bProg.Name, bCt, bPaths, "", "b.", nil)
}

// JoinStats is the pruning accounting of one fold level: where each of
// the Pairs = forward-a-paths × b-paths candidate pairs ended up. Every
// considered pair lands in exactly one of IndexSkipped, PreFiltered,
// SolverRefuted, or Kept, so the four sum to Pairs (unless the fold was
// served from cache, in which case Cached is set and the counters are
// zero). CoalesceMerged counts composite paths merged away by
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
	CoalesceMerged uint64 `json:"coalesce_merged"`
	PathsOut       int    `json:"paths_out"`
	Cached         bool   `json:"cached,omitempty"`
}

// composePrepared joins an already-generated pair of stages. The joins
// of distinct a-paths are independent, so they fan out over the
// generator's worker pool into result slots indexed by a's path order;
// the serial assembly pass then concatenates the slots, optionally
// coalesces, and assigns IDs in that order, which keeps the composite
// byte-identical to the serial fold at any Parallelism. key, when
// non-empty, content-addresses the composed stage in the generator's
// contract cache. bns is the namespace prefix applied to b's local
// symbols (see joinPair). stats, when non-nil, receives the fold's
// pruning accounting.
func composePrepared(ctx context.Context, g *Generator, aCt *Contract, aPaths []*nfir.Path, bName string, bCt *Contract, bPaths []*nfir.Path, key, bns string, stats *JoinStats) (*Contract, []*nfir.Path, error) {
	if len(aCt.Paths) != len(aPaths) {
		return nil, nil, fmt.Errorf("core: contract/path mismatch for %s", aCt.NF)
	}
	if len(bCt.Paths) != len(bPaths) {
		return nil, nil, fmt.Errorf("core: contract/path mismatch for %s", bCt.NF)
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
			return ct, paths, nil
		}
	}

	jf := g.composeFeasibility()
	ix := buildJoinIndex(bCt, bPaths, bns)
	var indexSkipped atomic.Uint64
	type slot struct {
		pcs  []*PathContract
		raws []*nfir.Path
	}
	slots := make([]slot, len(aCt.Paths))
	err := par.ForEach(ctx, g.workers(), len(aCt.Paths), func(i int) error {
		pa := aCt.Paths[i]
		rawA := aPaths[i]
		if pa.Action != nfir.ActionForward {
			cp := *pa
			cp.Events = prefixEvents("a.", pa.Events)
			slots[i] = slot{pcs: []*PathContract{&cp}, raws: []*nfir.Path{rawA}}
			return nil
		}
		jp := jf.prefix(pa, rawA, bns)
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
			joined, ok := joinPair(ctx, pa, rawA, bCt.Paths[j], bPaths[j], jp, bns, &ix.metas[j])
			if !ok {
				return nil
			}
			sl.pcs = append(sl.pcs, joined)
			sl.raws = append(sl.raws, joinRawPaths(rawA, joined, &ix.metas[j]))
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
		return nil, nil, fmt.Errorf("core: composing %s: %w", name, err)
	}

	var pcs []*PathContract
	var raws []*nfir.Path
	var shared []bool
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
		if aCt.Paths[i].Action == nfir.ActionForward {
			forward++
			kept += uint64(len(sl.pcs))
		}
	}
	var mergedAway uint64
	if g.Coalesce {
		pcs, raws, shared, mergedAway = coalescePaths(pcs, raws, shared)
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
		stats.CoalesceMerged = mergedAway
		stats.PathsOut = len(out.Paths)
	}
	if key != "" {
		g.Cache.store(key, out, raws)
	}
	return out, raws, nil
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

// ChainStage is one NF of a chain or DAG topology: the program and the
// symbolic models of the stateful structures it calls. It is the unit
// ComposeMany and ComposeDAG generate (and cache) per stage.
type ChainStage struct {
	Prog   *nfir.Program
	Models map[string]nfir.Model
}

// ComposeMany folds a chain of NFs left to right into one composite
// contract: nfs[0] → nfs[1] → … Every stage's drop paths terminate the
// chain there; forwarded packets continue. The PCVs and model symbols
// of stage k are namespaced one "b." per fold level: stage 1 keeps its
// names, stage 2's "x" appears as "b.x", stage 3's as "b.b.x", stage
// 4's as "b.b.b.x" — the prefix length tells you how many joins deep
// the stage sits, and no two stages can collide (examples/nf-chain
// walks through reading them).
func ComposeMany(g *Generator, stages []ChainStage) (*Contract, error) {
	return ComposeManyContext(context.Background(), g, stages)
}

// ComposeManyContext generates every stage's contract concurrently on
// the generator's worker pool (the stages are independent NFs), then
// folds the joins left to right — the fold order is what keeps the
// composite deterministic; within each fold step the per-a-path joins
// themselves run on the pool (see composePrepared).
//
// When the generator has a cache attached, every fold prefix is
// content-addressed: the key of stages[0..k] hashes the key of
// stages[0..k-1] with stage k's own generation key, so re-composing a
// warm chain — or extending a chain whose prefix was composed before —
// skips the joins (and, for a fully warm chain, the stage generations
// too).
func ComposeManyContext(ctx context.Context, g *Generator, stages []ChainStage) (*Contract, error) {
	ct, _, err := ComposeManyStats(ctx, g, stages)
	return ct, err
}

// ComposeManyStats is ComposeManyContext plus per-fold-level pruning
// statistics: one JoinStats per fold (len(stages)-1 entries), in fold
// order. A fully warm chain that returns its composite straight from
// the cache reports nil stats — no fold ran.
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

	type stageGen struct {
		ct    *Contract
		paths []*nfir.Path
	}
	gens := make([]stageGen, len(stages))
	err := par.ForEach(ctx, g.workers(), len(stages), func(i int) error {
		ct, paths, err := g.GenerateWithPathsContext(ctx, stages[i].Prog, stages[i].Models)
		if err != nil {
			return err
		}
		gens[i] = stageGen{ct: ct, paths: paths}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating chain stages: %w", err)
	}
	stats := make([]JoinStats, 0, len(stages)-1)
	ct, paths := gens[0].ct, gens[0].paths
	for i, st := range stages[1:] {
		// Fold step i joins stage i+2 one level deeper: its locals get
		// one more "b." than the previous stage's, so every stage owns a
		// distinct namespace in the composite.
		bns := strings.Repeat("b.", i+1)
		fs := JoinStats{Fold: i + 1}
		ct, paths, err = composePrepared(ctx, g, ct, paths, st.Prog.Name, gens[i+1].ct, gens[i+1].paths, foldKeys[i+1], bns, &fs)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, fs)
	}
	return ct, stats, nil
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
