package core

import (
	"sort"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// This file implements guard-partitioned join pruning: before the fold
// loop pairs every a-path with every b-path, the b-side is indexed by
// the predicates it places on packet fields — both the fields a-paths
// write (whose guards see a's output expression after substitution) and
// the shared unwritten fields (whose guards conjoin with a's own guards
// over the same input symbol). Each a-path then only forks solver
// sessions for b-candidates whose guards can intersect the a-path's
// output state, skipping the rest without building the substitution or
// touching joinPrefix.feasible.
//
// Soundness bar: the index must never drop a pair the full scan keeps.
// A pair is skipped only when the joined constraint set is *provably*
// refuted by machinery the full scan runs unconditionally in every
// solver mode:
//
//   - a constant write folds a Not-free single-field guard to a
//     ground-false Const during substitution (symb.Substitute folds
//     through symb.B), which joinObviouslyInfeasible rejects;
//   - a symbol write turns b's field guards into guards over that
//     symbol, and narrowing the symbol's merged domain through them
//     empties it — which both engines prove during propagation;
//   - for a shared unwritten field, the a-side and b-side "pinned
//     hulls" (see fieldPin) have an empty intersection, or intersect in
//     a single value some single-field conjunct of either side
//     evaluates false at.
//
// The hull argument: both solver engines propagate each single-symbol
// conjunct by narrowing the symbol's domain to the hull of its
// satisfying values — structurally for Sym-vs-Const comparisons
// (always), by exhaustive enumeration for other shapes when the domain
// is narrower than enumWidth (symb's propagateEnum). Each such narrowing
// operator is reductive and monotone, so the engines' propagation
// fixpoint — which starts from the merged (intersected) domain and
// applies a superset of the conjuncts the index models — always lands
// inside any hull the index computes from a superset starting domain
// with a subset of the conjuncts. Empty index hull ⟹ empty engine
// domain ⟹ Unsat before any bounded (Unknown-prone) search runs.
// Singleton hulls extend this: the engine's domain is at most that one
// value, and a conjunct evaluating false there is refuted by the same
// propagation (interval ops structurally, everything else by width-0
// enumeration).
//
// Everything else — compound write expressions, mixed-size rewrites,
// multi-symbol guards — is left to the solver. FuzzJoinIndex pins the
// skip predicate against exhaustive pairing the same way
// FuzzJoinPreFilter pins the static pre-filter.

// fieldKey identifies a packet field: byte offset and width. It is the
// parsed form of a canonical nfir field symbol ("pkt_12_2").
type fieldKey struct {
	off  uint64
	size int
}

// emptyDomain is the canonical empty range (Lo > Hi).
var emptyDomain = symb.Domain{Lo: 1, Hi: 0}

// fieldPin is one path's knowledge about one field symbol: the path's
// single-symbol conjuncts over the field, its hull (the propagation
// fixpoint of those conjuncts from the path's declared domain), and the
// subset of conjuncts that contain no Not nodes — exactly the ones
// symb.Substitute folds to a ground Const when the field is substituted
// with a constant.
type fieldPin struct {
	name     string // the field symbol
	dom      symb.Domain
	declared *symb.Domain // the path's declared domain, pre-narrowing
	cons     []symb.Expr
	notFree  []symb.Expr
}

// bPathMeta is the per-b-path state every join against that path
// shares. All of it depends only on the b-path and the fold's namespace
// prefix, so buildJoinIndex computes it once per fold and joinPair pays
// per pair only for what also depends on the a-path: the substitution
// entries of fields a wrote, the domain merge, and the cost sums.
type bPathMeta struct {
	// fields are b's packet-field symbols with their parsed keys, in
	// sorted order; whether a wrote each one is decided per pair.
	fields []bField
	// renames is the a-independent part of b's substitution: every
	// b-local symbol to its namespaced name. Packet fields, now and
	// pkt_len are shared with a and have no entry.
	renames map[string]symb.Expr
	// cons is pb.Constraints substituted through renames alone — the
	// exact joined form of every conjunct that mentions no field a
	// wrote. consOffs lists, per conjunct, the offsets of the fields it
	// mentions (nil when it mentions none).
	cons     []symb.Expr
	consOffs [][]uint64
	// pre is each cons entry pre-analysed for the solver, asserted into
	// every pair's fork that keeps the entry as it stands.
	pre []*symb.Conjunct
	// doms is b's declared domains, classified for the merge, in sorted
	// name order.
	doms []bDom
	// cost, sharedMA and ranges are b's per-metric cost, effective
	// shared-MA and PCV ranges with every PCV renamed into the fold's
	// namespace.
	cost     map[perf.Metric]expr.Poly
	sharedMA expr.Poly
	ranges   map[string]expr.Range
	// writes is b's packet writes as the composite path carries them:
	// b-local symbols in the write values renamed the way the
	// constraints are (see renameChained).
	writes map[uint64]nfir.PktWrite

	pins map[fieldKey]*fieldPin
	// eqConst records fields pinned by a direct (field == k) conjunct;
	// only those participate in equality partitions, because a bare
	// singleton declared domain is dropped (not contradicted) when the
	// field is substituted with a constant.
	eqConst map[fieldKey]uint64
}

// bField is one packet-field symbol of a b-path.
type bField struct {
	name string
	key  fieldKey
}

// bDom is one declared domain of a b-path. A b-local symbol's domain
// lands on its namespaced name (renamed); a field's depends on whether
// a wrote it, which joinPair decides per pair; now and pkt_len are
// shared with a as they stand.
type bDom struct {
	name    string
	d       symb.Domain
	renamed string // bns+name: the target for b-locals and mixed-size rewrites
	field   bool
	key     fieldKey
	local   bool
}

// fieldPartition is the equality index for one guarded field: b-paths
// carrying a direct equality conjunct on the field, bucketed by the
// compared constant, plus the rest. Bucket slices are in ascending
// b-path order so candidate enumeration preserves the serial pairing
// order.
type fieldPartition struct {
	eq   map[uint64][]int
	rest []int
}

// joinIndex is the prepared b-side of one fold: per-path metadata plus
// the per-field equality partitions.
type joinIndex struct {
	metas []bPathMeta
	parts map[fieldKey]*fieldPartition
}

// flipCmp mirrors a comparison so the symbol lands on the left; ok is
// false for non-comparison operators.
func flipCmp(op symb.Op) (symb.Op, bool) {
	switch op {
	case symb.Eq, symb.Ne:
		return op, true
	case symb.Ult:
		return symb.Ugt, true
	case symb.Ule:
		return symb.Uge, true
	case symb.Ugt:
		return symb.Ult, true
	case symb.Uge:
		return symb.Ule, true
	}
	return op, false
}

// symConstCmp decomposes e as a (Sym op Const) comparison in either
// orientation, normalised to symbol-on-left.
func symConstCmp(e symb.Expr) (name string, op symb.Op, k uint64, ok bool) {
	b, isBin := e.(symb.Bin)
	if !isBin {
		return "", 0, 0, false
	}
	l, r, bop := b.L, b.R, b.Op
	if _, lc := l.(symb.Const); lc {
		l, r = r, l
		var flipped bool
		if bop, flipped = flipCmp(bop); !flipped {
			return "", 0, 0, false
		}
	}
	ls, okL := l.(symb.Sym)
	rc, okR := r.(symb.Const)
	if !okL || !okR {
		return "", 0, 0, false
	}
	switch bop {
	case symb.Eq, symb.Ne, symb.Ult, symb.Ule, symb.Ugt, symb.Uge:
		return ls.Name, bop, rc.V, true
	}
	return "", 0, 0, false
}

// hasNot reports whether e contains a Not node (which symb.Substitute
// does not constant-fold).
func hasNot(e symb.Expr) bool {
	switch x := e.(type) {
	case symb.Bin:
		return hasNot(x.L) || hasNot(x.R)
	case symb.Not:
		return true
	}
	return false
}

// narrowOne applies one single-symbol conjunct to a domain exactly the
// way both solver engines' propagation does: interval arithmetic for
// Sym-vs-Const comparisons, exhaustive-enumeration hull for other
// shapes when the domain is narrower than the engines' enumeration
// cutoff, identity otherwise.
func narrowOne(c symb.Expr, name string, d symb.Domain) symb.Domain {
	if s, op, k, ok := symConstCmp(c); ok && s == name {
		switch op {
		case symb.Eq:
			if k < d.Lo || k > d.Hi {
				return emptyDomain
			}
			return symb.Domain{Lo: k, Hi: k}
		case symb.Ne:
			if d.Lo == d.Hi {
				if d.Lo == k {
					return emptyDomain
				}
				return d
			}
			if d.Lo == k {
				d.Lo++
			}
			if d.Hi == k {
				d.Hi--
			}
			return d
		case symb.Ult:
			if k == 0 {
				return emptyDomain
			}
			if d.Hi > k-1 {
				d.Hi = k - 1
			}
		case symb.Ule:
			if d.Hi > k {
				d.Hi = k
			}
		case symb.Ugt:
			if k == ^uint64(0) {
				return emptyDomain
			}
			if d.Lo < k+1 {
				d.Lo = k + 1
			}
		case symb.Uge:
			if d.Lo < k {
				d.Lo = k
			}
		}
		if d.Lo > d.Hi {
			return emptyDomain
		}
		return d
	}
	// Compound single-symbol shape: mirror the engines' enumeration
	// cutoff so the hull never claims more than propagation proves.
	width := d.Hi - d.Lo
	if width >= symb.EnumWidth {
		return d
	}
	lo, hi := d.Hi, d.Lo
	any := false
	prog := symb.CompileSet(c) // c mentions name alone: slot 0
	vals := []uint64{0}
	for v := d.Lo; ; v++ {
		vals[0] = v
		if prog.Eval(0, vals) != 0 {
			any = true
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if v == d.Hi {
			break
		}
	}
	if !any {
		return emptyDomain
	}
	return symb.Domain{Lo: lo, Hi: hi}
}

// pinHull iterates narrowOne over the conjuncts to a fixpoint.
func pinHull(d symb.Domain, name string, cons []symb.Expr) symb.Domain {
	for changed := true; changed; {
		changed = false
		for _, c := range cons {
			nd := narrowOne(c, name, d)
			if nd != d {
				d = nd
				changed = true
			}
			if d.Lo > d.Hi {
				return emptyDomain
			}
		}
	}
	return d
}

// computePins builds the per-field pins of one path: every field symbol
// mentioned by a single-symbol conjunct or carrying a declared domain.
func computePins(cons []symb.Expr, doms map[string]symb.Domain) map[fieldKey]*fieldPin {
	var pins map[fieldKey]*fieldPin
	add := func(name string) *fieldPin {
		off, size, isField := nfir.ParseFieldSym(name)
		if !isField {
			return nil
		}
		if pins == nil {
			pins = make(map[fieldKey]*fieldPin)
		}
		f := fieldKey{off: off, size: size}
		p, ok := pins[f]
		if !ok {
			p = &fieldPin{name: name, dom: symb.Full}
			if d, has := doms[name]; has {
				dd := d
				p.dom, p.declared = d, &dd
			}
			pins[f] = p
		}
		return p
	}
	for _, c := range cons {
		name, ok := singleSymOf(c)
		if !ok {
			continue
		}
		p := add(name)
		if p == nil {
			continue
		}
		p.cons = append(p.cons, c)
		if !hasNot(c) {
			p.notFree = append(p.notFree, c)
		}
	}
	for name := range doms {
		add(name)
	}
	for _, p := range pins {
		p.dom = pinHull(p.dom, p.name, p.cons)
	}
	return pins
}

// buildJoinIndex prepares the b-side of a fold whose b-locals are
// namespaced with bns: per-path join metadata (see bPathMeta), field
// pins, and the per-field equality partitions. bPaths, aligned with
// bCt.Paths, supplies the packet writes; nil leaves them out.
func buildJoinIndex(bCt *Contract, bPaths []*nfir.Path, bns string) *joinIndex {
	ix := &joinIndex{metas: make([]bPathMeta, len(bCt.Paths))}
	for j, pb := range bCt.Paths {
		var rawB *nfir.Path
		if bPaths != nil {
			rawB = bPaths[j]
		}
		ix.metas[j] = buildBPathMeta(pb, rawB, bns)
	}
	// Partition by every field that at least one b-path equality-pins.
	ix.parts = make(map[fieldKey]*fieldPartition)
	for _, m := range ix.metas {
		for f := range m.eqConst {
			if _, ok := ix.parts[f]; !ok {
				ix.parts[f] = &fieldPartition{eq: make(map[uint64][]int)}
			}
		}
	}
	for f, p := range ix.parts {
		for j, m := range ix.metas {
			if k, ok := m.eqConst[f]; ok {
				p.eq[k] = append(p.eq[k], j)
			} else {
				p.rest = append(p.rest, j)
			}
		}
	}
	return ix
}

func buildBPathMeta(pb *PathContract, rawB *nfir.Path, bns string) bPathMeta {
	m := bPathMeta{
		renames:  make(map[string]symb.Expr),
		cons:     make([]symb.Expr, len(pb.Constraints)),
		consOffs: make([][]uint64, len(pb.Constraints)),
		pre:      make([]*symb.Conjunct, len(pb.Constraints)),
		cost:     make(map[perf.Metric]expr.Poly, perf.NumMetrics),
		ranges:   make(map[string]expr.Range, len(pb.PCVRanges)),
		pins:     computePins(pb.Constraints, pb.Domains),
	}
	rename := func(v string) string { return bns + v }
	fieldOf := func(s string) (fieldKey, bool) {
		off, size, ok := nfir.ParseFieldSym(s)
		return fieldKey{off: off, size: size}, ok
	}
	syms := symb.Symbols(pb.Constraints...)
	for s := range pb.Domains {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for i, s := range syms {
		if i > 0 && syms[i-1] == s {
			continue
		}
		if f, isField := fieldOf(s); isField {
			m.fields = append(m.fields, bField{name: s, key: f})
		} else if s != nfir.SymNow && s != nfir.SymPktLen {
			m.renames[s] = symb.S(rename(s))
		}
	}
	for i, c := range pb.Constraints {
		m.cons[i] = symb.Substitute(c, m.renames)
		m.pre[i] = symb.Analyse(m.cons[i])
		for _, s := range symb.Symbols(c) {
			if f, isField := fieldOf(s); isField {
				m.consOffs[i] = append(m.consOffs[i], f.off)
			}
		}
		if name, op, k, ok := symConstCmp(c); ok && op == symb.Eq {
			if f, isField := fieldOf(name); isField {
				if m.eqConst == nil {
					m.eqConst = make(map[fieldKey]uint64)
				}
				m.eqConst[f] = k
			}
		}
	}
	names := make([]string, 0, len(pb.Domains))
	for s := range pb.Domains {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		bd := bDom{name: s, d: pb.Domains[s], renamed: rename(s)}
		bd.key, bd.field = fieldOf(s)
		_, bd.local = m.renames[s]
		m.doms = append(m.doms, bd)
	}
	for _, mt := range perf.Metrics {
		m.cost[mt] = pb.Cost[mt].RenameVars(rename)
	}
	m.sharedMA = pb.EffectiveSharedMA().RenameVars(rename)
	if rawB != nil && len(rawB.PktWrites) > 0 {
		m.writes = make(map[uint64]nfir.PktWrite, len(rawB.PktWrites))
		for off, w := range rawB.PktWrites {
			m.writes[off] = nfir.PktWrite{
				Size: w.Size,
				Val:  symb.RenameSymbols(w.Val, func(s string) string { return renameChained(bns, s) }),
			}
		}
	}
	for v, r := range pb.PCVRanges {
		m.ranges[rename(v)] = r
	}
	return m
}

// aJoinInfo classifies one a-path for the skip test: constant-valued
// packet writes fold b's guards at index time; plain-symbol writes
// carry the symbol name for the interval test; pins describe a's own
// guards over shared input fields. A written symbol is excluded when
// the classification would be ambiguous — it is written to two offsets
// (joinPair's domain overwrite order would then depend on map
// iteration) or it is itself a shared input symbol (b's own domain for
// it may intersect rather than overwrite).
type aJoinInfo struct {
	consts     map[fieldKey]uint64
	syms       map[fieldKey]string
	writtenOff map[uint64]bool
	pins       map[fieldKey]*fieldPin
}

func buildAJoinInfo(pa *PathContract, rawA *nfir.Path) aJoinInfo {
	aw := aJoinInfo{pins: computePins(pa.Constraints, pa.Domains)}
	symTargets := make(map[string]int)
	for off, w := range rawA.PktWrites {
		if aw.writtenOff == nil {
			aw.writtenOff = make(map[uint64]bool)
		}
		aw.writtenOff[off] = true
		switch v := w.Val.(type) {
		case symb.Const:
			if aw.consts == nil {
				aw.consts = make(map[fieldKey]uint64)
			}
			aw.consts[fieldKey{off: off, size: w.Size}] = v.V
		case symb.Sym:
			if _, _, isField := nfir.ParseFieldSym(v.Name); isField ||
				v.Name == nfir.SymNow || v.Name == nfir.SymPktLen {
				continue // shared input symbol: merged domain not pinned
			}
			if aw.syms == nil {
				aw.syms = make(map[fieldKey]string)
			}
			aw.syms[fieldKey{off: off, size: w.Size}] = v.Name
			symTargets[v.Name]++
		}
	}
	for f, s := range aw.syms {
		if symTargets[s] > 1 {
			delete(aw.syms, f)
		}
	}
	return aw
}

func intersectDom(a, b symb.Domain) symb.Domain {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	if a.Lo > a.Hi {
		return emptyDomain
	}
	return a
}

// skip reports whether the pair (a-path described by aw/pa, b-path j)
// can be pruned without a solver fork: some field pin of j is provably
// refuted against the a-path's output state for that field.
func (ix *joinIndex) skip(aw aJoinInfo, pa *PathContract, j int) bool {
	for f, bpin := range ix.metas[j].pins {
		if aw.writtenOff[f.off] {
			if c, ok := aw.consts[f]; ok {
				// Substitution folds each Not-free conjunct to a ground
				// Const; a false one is rejected by the static
				// pre-filter. (b's declared domain for the field is
				// dropped by the merge here, so it must not be used.)
				binding := map[string]uint64{bpin.name: c}
				for _, e := range bpin.notFree {
					if e.Eval(binding) == 0 {
						return true
					}
				}
				continue
			}
			if s, ok := aw.syms[f]; ok {
				// joinPair's merge: b's own declared bound for the field
				// replaces the a-side domain of the written symbol;
				// otherwise a's bound (or Full) stands. b's conjuncts
				// over the field become conjuncts over s, so the
				// engines narrow s's domain through them.
				d := symb.Full
				if bpin.declared != nil {
					d = *bpin.declared
				} else if ad, has := pa.Domains[s]; has {
					d = ad
				}
				if h := pinHull(d, bpin.name, bpin.cons); h.Lo > h.Hi {
					return true
				}
			}
			// Mixed-size rewrite (fresh symbol): no information.
			continue
		}
		// Shared unwritten field: a's and b's hulls both bound the
		// engines' propagation fixpoint for the field symbol.
		ad := symb.Full
		if apin, ok := aw.pins[f]; ok {
			ad = apin.dom
		} else if d, has := pa.Domains[bpin.name]; has {
			ad = d
		}
		d := intersectDom(ad, bpin.dom)
		if d.Lo > d.Hi {
			return true
		}
		if d.Lo == d.Hi {
			binding := map[string]uint64{bpin.name: d.Lo}
			for _, e := range bpin.cons {
				if e.Eval(binding) == 0 {
					return true
				}
			}
			if apin, ok := aw.pins[f]; ok {
				for _, e := range apin.cons {
					if e.Eval(binding) == 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// candidates returns the ascending b-path candidate list for an a-path,
// using the most selective equality partition over fields the a-path
// pins to a single value (by constant write, or — when unwritten — by
// its own guard hull), plus the number of b-paths pruned by the
// partition alone. A nil list means "no applicable partition: consider
// every b-path" (the per-pair skip test still applies).
func (ix *joinIndex) candidates(aw aJoinInfo) ([]int, int) {
	if len(ix.parts) == 0 {
		return nil, 0
	}
	var best []int
	bestN := -1
	consider := func(v uint64, p *fieldPartition) {
		n := len(p.eq[v]) + len(p.rest)
		if bestN < 0 || n < bestN {
			bestN = n
			best = mergeSorted(p.eq[v], p.rest)
		}
	}
	for f, p := range ix.parts {
		if aw.writtenOff[f.off] {
			if c, ok := aw.consts[f]; ok {
				consider(c, p)
			}
			continue
		}
		if apin, ok := aw.pins[f]; ok && apin.dom.Lo == apin.dom.Hi {
			consider(apin.dom.Lo, p)
		}
	}
	if bestN < 0 {
		return nil, 0
	}
	return best, len(ix.metas) - len(best)
}

// mergeSorted merges two ascending int slices into one ascending slice.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
