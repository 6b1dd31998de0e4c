package symb

import (
	"maps"
	"sort"
)

// prepared is the solver's front-half state: flattened constraints,
// union-found symbol classes, slot-indexed propagated domains, and the
// compiled program for every constraint. A fresh solve builds one from
// scratch; an incremental Session maintains one across branch forks so
// each fork pays only for the newly added constraint.
//
// Fork sharing: append-only slices (flat, progs, csyms, cconsts, consts,
// names, slotName) are shared between parent and children through
// three-index slicing, so a child's append copies on write. Index-
// mutated state (dom, excluded, symCons, the maps) is copied eagerly.
type prepared struct {
	// names lists every original (pre-substitution) symbol seen, in
	// first-encounter order; a Sat model binds each of them through its
	// union-find representative. nameSet dedupes.
	names   []string
	nameSet map[string]bool

	uf *unionFind

	// symtab assigns a slot to every representative symbol; slotName is
	// the inverse. dom and excluded are indexed by slot and hold the
	// propagated (not original) domains.
	symtab   map[string]int32
	slotName []string
	dom      []Domain
	excluded []map[uint64]bool

	// flat holds the flattened, representative-substituted constraints.
	// progs, csyms (slots mentioned, deduped) and cconsts (constants
	// mentioned) are parallel caches computed once per constraint.
	flat    []Expr
	progs   []program
	csyms   [][]int32
	cconsts [][]uint64
	consts  []uint64 // shared constant pool for progs

	// symCons indexes slot -> constraints mentioning it (the propagation
	// worklist fan-out and the candidate "mentioned constants" source).
	symCons [][]int32

	// hasUnion records whether any symbol equality merged two distinct
	// classes. It gates representative substitution: the legacy solver
	// only rewrote (and thereby constant-folded) constraints when its
	// substitution map was non-empty, and verdict-identical behaviour
	// requires reproducing that, folding included.
	hasUnion bool

	// key accumulates per-constraint structural digests; with the domain
	// digests it forms the canonical memo key for this constraint set.
	key lanes

	// maxStack sizes the shared evaluation stack.
	maxStack int

	// unsat is set as soon as flattening, domain intersection or
	// propagation proves the set unsatisfiable.
	unsat bool

	// Propagation scratch, grown lazily and reused across asserts. Never
	// shared with forks (fork leaves them nil): no live data survives a
	// propagate call.
	pvals   []uint64
	pstack  []uint64
	pqueue  []int32
	pqueued []bool
}

func newPrepared() *prepared {
	return &prepared{
		nameSet:  make(map[string]bool),
		uf:       newUnionFind(),
		symtab:   make(map[string]int32),
		maxStack: 1,
	}
}

// prepare builds the state for one fresh solve, mirroring the staged
// legacy pipeline: flatten everything, union symbol equalities, apply
// the caller's domains, then add each constraint with worklist
// propagation. The fixpoint is identical to sweeping all constraints
// repeatedly (the propagators are monotone and reductive, so chaotic
// iteration order does not change the result).
func prepare(constraints []Expr, domains map[string]Domain) *prepared {
	p := newPrepared()
	var flat []Expr
	for _, c := range constraints {
		if !flattenInto(c, &flat) {
			p.unsat = true
			return p
		}
	}
	// Union symbol equalities first so every constraint is substituted
	// with its final representative on insertion.
	for _, c := range flat {
		if b, ok := c.(Bin); ok && b.Op == Eq && sameKind(b.L, b.R) {
			la, rb := b.L.(Sym).Name, b.R.(Sym).Name
			if p.uf.find(la) != p.uf.find(rb) {
				p.uf.union(la, rb)
				p.hasUnion = true
			}
		}
	}
	p.setDomains(domains)
	if p.unsat {
		return p
	}
	for _, c := range flat {
		p.addConstraint(c)
		if p.unsat {
			return p
		}
	}
	return p
}

// flattenInto splits conjunctions and folds constant constraints; it
// reports false when a constraint is constant-false.
func flattenInto(e Expr, out *[]Expr) bool {
	if b, ok := e.(Bin); ok && b.Op == LAnd {
		return flattenInto(b.L, out) && flattenInto(b.R, out)
	}
	if c, ok := e.(Const); ok {
		return c.V != 0
	}
	*out = append(*out, e)
	return true
}

// fork clones the prepared state for a child branch. Cost is linear in
// the number of symbols (slot tables) but shares all per-constraint
// data with the parent.
func (p *prepared) fork() *prepared {
	q := &prepared{
		names:    p.names[:len(p.names):len(p.names)],
		nameSet:  maps.Clone(p.nameSet),
		uf:       p.uf.clone(),
		symtab:   maps.Clone(p.symtab),
		slotName: p.slotName[:len(p.slotName):len(p.slotName)],
		dom:      append([]Domain(nil), p.dom...),
		excluded: make([]map[uint64]bool, len(p.excluded)),
		flat:     p.flat[:len(p.flat):len(p.flat)],
		progs:    p.progs[:len(p.progs):len(p.progs)],
		csyms:    p.csyms[:len(p.csyms):len(p.csyms)],
		cconsts:  p.cconsts[:len(p.cconsts):len(p.cconsts)],
		consts:   p.consts[:len(p.consts):len(p.consts)],
		symCons:  make([][]int32, len(p.symCons)),
		key:      p.key,
		maxStack: p.maxStack,
		hasUnion: p.hasUnion,
		unsat:    p.unsat,
	}
	for i, m := range p.excluded {
		if m != nil {
			q.excluded[i] = maps.Clone(m)
		}
	}
	for i, cs := range p.symCons {
		q.symCons[i] = cs[:len(cs):len(cs)]
	}
	return q
}

func (p *prepared) addName(n string) {
	if !p.nameSet[n] {
		p.nameSet[n] = true
		p.names = append(p.names, n)
	}
}

// slot returns (allocating if needed) the slot of a representative
// symbol. New slots start with the full 64-bit domain, mirroring the
// legacy "every symbol in the constraints has a domain" rule.
func (p *prepared) slot(name string) int32 {
	if s, ok := p.symtab[name]; ok {
		return s
	}
	s := int32(len(p.slotName))
	p.symtab[name] = s
	p.slotName = append(p.slotName, name)
	p.dom = append(p.dom, Full)
	p.excluded = append(p.excluded, nil)
	p.symCons = append(p.symCons, nil)
	return s
}

// setDomain intersects a symbol's domain with d (through its
// representative) and re-propagates constraints watching the symbol.
// Exploration sets each symbol's domain exactly once, which makes this
// coincide with the legacy map semantics.
func (p *prepared) setDomain(name string, d Domain) {
	if s, changed := p.narrow(name, d); changed {
		p.propagate(nil, []int32{s})
	}
}

// setDomains intersects every binding of the map, then runs one
// propagation seeded by all the slots that narrowed. Propagation is
// confluent, so this reaches the fixpoint one propagate per name would.
// Names are applied in sorted order so slot numbering is deterministic
// regardless of map iteration; the verdict does not depend on it, but
// determinism is cheap insurance.
func (p *prepared) setDomains(domains map[string]Domain) {
	names := make([]string, 0, len(domains))
	for n := range domains {
		names = append(names, n)
	}
	sort.Strings(names)
	var seeds []int32
	for _, n := range names {
		if s, changed := p.narrow(n, domains[n]); changed {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) > 0 {
		p.propagate(nil, seeds)
	}
}

// narrow intersects the domain of name's representative with d without
// propagating, reporting the slot and whether its domain changed.
func (p *prepared) narrow(name string, d Domain) (int32, bool) {
	if p.unsat {
		return 0, false
	}
	p.addName(name)
	s := p.slot(p.uf.find(name))
	nd, ok := p.dom[s].intersect(d)
	if !ok {
		p.unsat = true
		return s, false
	}
	if nd == p.dom[s] {
		return s, false
	}
	p.dom[s] = nd
	return s, true
}

// assert adds one constraint (flattening conjunctions) and propagates.
func (p *prepared) assert(c Expr) {
	if p.unsat {
		return
	}
	var flat []Expr
	if !flattenInto(c, &flat) {
		p.unsat = true
		return
	}
	for _, e := range flat {
		p.addConstraint(e)
		if p.unsat {
			return
		}
	}
}

// addConstraint inserts one flattened constraint. A symbol-symbol
// equality that merges two union-find classes invalidates the
// representative substitution of everything already inserted, so that
// (rare) case rebuilds the state; every other constraint is substituted,
// compiled, indexed and propagated incrementally.
func (p *prepared) addConstraint(e Expr) {
	if b, ok := e.(Bin); ok && b.Op == Eq && sameKind(b.L, b.R) {
		la, rb := b.L.(Sym).Name, b.R.(Sym).Name
		p.addName(la)
		p.addName(rb)
		if p.uf.find(la) != p.uf.find(rb) {
			p.rebuildWith(e)
			return
		}
	}
	// Every symbol of the original constraint becomes (via its
	// representative) a search variable, even when substitution folds the
	// constraint away entirely — the legacy solver kept such symbols as
	// Full-domain variables, and models must keep binding them.
	for _, n := range Symbols(e) {
		p.addName(n)
		p.slot(p.uf.find(n))
	}
	ci := p.insert(p.substitute(e))
	if p.unsat || ci < 0 {
		return
	}
	p.propagate([]int32{int32(ci)}, nil)
}

// substitute rewrites symbols to their union-find representatives.
// Matching the legacy pipeline exactly: when no union ever merged two
// classes the expression is left untouched; when one did, the whole
// expression is rebuilt through the folding constructors (Substitute
// uses B), so e.g. Eq(rep, rep) folds to Const{1} — even in constraints
// that mention no renamed symbol.
func (p *prepared) substitute(e Expr) Expr {
	if !p.hasUnion {
		return e
	}
	m := make(map[string]Expr)
	for _, n := range Symbols(e) {
		if rep := p.uf.find(n); rep != n {
			m[n] = Sym{Name: rep}
		}
	}
	return Substitute(e, m)
}

// insert compiles and indexes one substituted constraint, returning its
// index, or -1 for a ground constraint (no symbols), which is decided
// immediately: evaluating to false proves UNSAT — the legacy search
// could only answer Unknown here because exhaustion was never recorded
// for a zero-variable search. Ground-true constraints are dropped.
func (p *prepared) insert(e Expr) int {
	syms, consts := exprInfo(e)
	if len(syms) == 0 {
		if e.Eval(nil) == 0 {
			p.unsat = true
		}
		return -1
	}
	prog := compileExpr(e, func(name string) int32 { return p.slot(name) }, &p.consts)
	if prog.maxStack > p.maxStack {
		p.maxStack = prog.maxStack
	}
	slots := make([]int32, len(syms))
	for i, n := range syms {
		slots[i] = p.symtab[n] // compiled above, so present
	}
	ci := len(p.flat)
	p.flat = append(p.flat, e)
	p.progs = append(p.progs, prog)
	p.csyms = append(p.csyms, slots)
	p.cconsts = append(p.cconsts, consts)
	for _, s := range slots {
		p.symCons[s] = append(p.symCons[s], int32(ci))
	}
	p.key.add(exprDigest(e))
	return ci
}

// rebuildWith reprocesses the whole constraint set after eq united two
// symbol classes. Starting domains are the already-propagated ones —
// sound, and convergent to the same fixpoint a from-scratch build
// reaches, because the propagators are monotone. Union-find
// representatives are the lexicographic minimum of each class, so the
// rebuilt substitution matches what a fresh batch build would produce.
func (p *prepared) rebuildWith(eq Expr) {
	oldFlat := p.flat
	oldDom := p.dom
	oldNames := p.slotName
	b := eq.(Bin)
	p.uf.union(b.L.(Sym).Name, b.R.(Sym).Name)
	p.hasUnion = true

	p.symtab = make(map[string]int32, len(oldNames))
	p.slotName = nil
	p.dom = nil
	p.excluded = nil
	p.symCons = nil
	p.flat = nil
	p.progs = nil
	p.csyms = nil
	p.cconsts = nil
	p.consts = nil
	p.key = lanes{}
	p.maxStack = 1

	for i, name := range oldNames {
		p.setDomain(name, oldDom[i])
		if p.unsat {
			return
		}
	}
	for _, c := range append(append([]Expr(nil), oldFlat...), eq) {
		p.addConstraint(c)
		if p.unsat {
			return
		}
	}
}

// memoKey canonically identifies (constraint set, propagated domains,
// candidate sampling) for the feasibility memo. Constraint and domain
// digests are summed, so the key is independent of insertion order —
// and so is the verdict: candidates are sorted, propagation is
// confluent, and the search's variable order depends only on domains
// and names.
func (p *prepared) memoKey(samples int) memoKey {
	k := p.key
	for s, name := range p.slotName {
		k.add(domainDigest(name, p.dom[s]))
	}
	return memoKey{
		a:       k.a,
		b:       k.b,
		nc:      int32(len(p.flat)),
		ns:      int32(len(p.slotName)),
		samples: int32(samples),
	}
}

// --- worklist interval propagation ---

// propagate runs constraint propagation to fixpoint from the given seed
// constraints and/or changed slots. Every constraint is re-examined
// whenever a domain or exclusion set of a symbol it mentions changes,
// which reaches the same fixpoint as the legacy sweep-until-stable loop.
func (p *prepared) propagate(seedCons, seedSlots []int32) {
	n := len(p.flat)
	if n == 0 {
		return
	}
	// queued is all false between calls (every exit path below restores
	// that), so only growth allocates and nothing is cleared up front.
	if cap(p.pqueued) < n {
		p.pqueued = make([]bool, n)
	}
	queued := p.pqueued[:n]
	queue := p.pqueue[:0]
	push := func(ci int32) {
		if !queued[ci] {
			queued[ci] = true
			queue = append(queue, ci)
		}
	}
	for _, ci := range seedCons {
		push(ci)
	}
	for _, s := range seedSlots {
		for _, ci := range p.symCons[s] {
			push(ci)
		}
	}
	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		queued[ci] = false
		changed := p.propagateOne(int(ci))
		if p.unsat {
			for _, cj := range queue[head+1:] {
				queued[cj] = false
			}
			p.pqueue = queue[:0]
			return
		}
		for _, s := range changed {
			for _, cj := range p.symCons[s] {
				push(cj)
			}
		}
	}
	p.pqueue = queue[:0]
}

// propagateOne narrows domains using one constraint, returning the slots
// whose domain or exclusion set changed. It mirrors the legacy
// propagate(): structurally recognised comparison shapes first, then
// exact enumeration for single-symbol constraints over small domains.
func (p *prepared) propagateOne(ci int) []int32 {
	if b, ok := p.flat[ci].(Bin); ok {
		if changed, handled := p.propagateBin(b); handled {
			return changed
		}
	}
	return p.propagateEnum(ci)
}

// enumWidth is the largest domain propagateEnum will fully enumerate for
// single-symbol constraints (masked-field comparisons and similar).
const enumWidth = 4096

// EnumWidth exports the enumeration cutoff: both engines fully decide
// any single-symbol constraint whose symbol's domain is narrower than
// this during propagation. Join-index pruning (internal/core) relies on
// exactly that guarantee, so it must mirror the same cutoff.
const EnumWidth = enumWidth

// propagateEnum decides a constraint mentioning exactly one symbol with
// a small domain by trying every value, tightening the domain to the
// satisfying hull (or proving UNSAT).
func (p *prepared) propagateEnum(ci int) []int32 {
	if len(p.csyms[ci]) != 1 {
		return nil
	}
	s := p.csyms[ci][0]
	d := p.dom[s]
	width := d.Hi - d.Lo
	if width >= enumWidth {
		return nil
	}
	lo, hi := d.Hi, d.Lo
	any := false
	if cap(p.pvals) < len(p.slotName) {
		p.pvals = make([]uint64, len(p.slotName))
	}
	if cap(p.pstack) < p.maxStack {
		p.pstack = make([]uint64, p.maxStack)
	}
	vals, stack := p.pvals[:len(p.slotName)], p.pstack[:p.maxStack]
	excl := p.excluded[s]
	for v := d.Lo; ; v++ {
		if !excl[v] {
			vals[s] = v
			if evalProgram(&p.progs[ci], p.consts, vals, stack) != 0 {
				any = true
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		if v == d.Hi {
			break
		}
	}
	if !any {
		p.unsat = true
		return nil
	}
	if lo > d.Lo || hi < d.Hi {
		p.dom[s] = Domain{Lo: lo, Hi: hi}
		return []int32{s}
	}
	return nil
}

// propagateBin handles the structurally recognised comparison shapes;
// handled is false when the constraint matches none of them.
func (p *prepared) propagateBin(b Bin) (changed []int32, handled bool) {
	l, r := b.L, b.R
	op := b.Op
	if _, lc := l.(Const); lc {
		l, r = r, l
		op = flipOp(op)
	}
	ls, lIsSym := l.(Sym)
	if !lIsSym {
		return nil, false
	}
	sl := p.symtab[ls.Name]
	if rc, rIsConst := r.(Const); rIsConst {
		d := p.dom[sl]
		nd := d
		switch op {
		case Eq:
			if !d.contains(rc.V) || p.excluded[sl][rc.V] {
				p.unsat = true
				return nil, true
			}
			nd = Domain{Lo: rc.V, Hi: rc.V}
		case Ne:
			if p.excluded[sl] == nil {
				p.excluded[sl] = make(map[uint64]bool)
			}
			chg := false
			if !p.excluded[sl][rc.V] {
				p.excluded[sl][rc.V] = true
				chg = true
			}
			for nd.Lo <= nd.Hi && p.excluded[sl][nd.Lo] {
				if nd.Lo == ^uint64(0) {
					p.unsat = true
					return nil, true
				}
				nd.Lo++
				chg = true
			}
			for nd.Hi >= nd.Lo && p.excluded[sl][nd.Hi] {
				if nd.Hi == 0 {
					p.unsat = true
					return nil, true
				}
				nd.Hi--
				chg = true
			}
			if nd.Lo > nd.Hi {
				p.unsat = true
				return nil, true
			}
			p.dom[sl] = nd
			if chg {
				return []int32{sl}, true
			}
			return nil, true
		case Ult:
			if rc.V == 0 {
				p.unsat = true
				return nil, true
			}
			if rc.V-1 < nd.Hi {
				nd.Hi = rc.V - 1
			}
		case Ule:
			if rc.V < nd.Hi {
				nd.Hi = rc.V
			}
		case Ugt:
			if rc.V == ^uint64(0) {
				p.unsat = true
				return nil, true
			}
			if rc.V+1 > nd.Lo {
				nd.Lo = rc.V + 1
			}
		case Uge:
			if rc.V > nd.Lo {
				nd.Lo = rc.V
			}
		default:
			return nil, false
		}
		if nd.Lo > nd.Hi {
			p.unsat = true
			return nil, true
		}
		if nd != d {
			p.dom[sl] = nd
			return []int32{sl}, true
		}
		return nil, true
	}
	if rs, rIsSym := r.(Sym); rIsSym {
		sr := p.symtab[rs.Name]
		dl, dr := p.dom[sl], p.dom[sr]
		switch op {
		case Ult:
			if dr.Hi == 0 {
				p.unsat = true
				return nil, true
			}
			changed = p.tightenHi(sl, dr.Hi-1, changed)
			if dl.Lo == ^uint64(0) {
				p.unsat = true
				return nil, true
			}
			changed = p.tightenLo(sr, dl.Lo+1, changed)
		case Ule:
			changed = p.tightenHi(sl, dr.Hi, changed)
			changed = p.tightenLo(sr, dl.Lo, changed)
		case Ugt:
			if dl.Hi == 0 {
				p.unsat = true
				return nil, true
			}
			changed = p.tightenLo(sl, dr.Lo+1, changed)
			changed = p.tightenHi(sr, dl.Hi-1, changed)
		case Uge:
			changed = p.tightenLo(sl, dr.Lo, changed)
			changed = p.tightenHi(sr, dl.Hi, changed)
		case Eq:
			nd, ok := dl.intersect(dr)
			if !ok {
				p.unsat = true
				return nil, true
			}
			if nd != dl || nd != dr {
				p.dom[sl], p.dom[sr] = nd, nd
				changed = append(changed, sl, sr)
			}
		default:
			return nil, false
		}
		if p.dom[sl].Lo > p.dom[sl].Hi || p.dom[sr].Lo > p.dom[sr].Hi {
			p.unsat = true
			return nil, true
		}
		return changed, true
	}
	return nil, false
}

func (p *prepared) tightenLo(s int32, lo uint64, changed []int32) []int32 {
	if lo > p.dom[s].Lo {
		p.dom[s].Lo = lo
		return append(changed, s)
	}
	return changed
}

func (p *prepared) tightenHi(s int32, hi uint64, changed []int32) []int32 {
	if hi < p.dom[s].Hi {
		p.dom[s].Hi = hi
		return append(changed, s)
	}
	return changed
}

func flipOp(op Op) Op {
	switch op {
	case Ult:
		return Ugt
	case Ule:
		return Uge
	case Ugt:
		return Ult
	case Uge:
		return Ule
	default:
		return op // Eq, Ne and bitwise ops are symmetric enough here
	}
}
