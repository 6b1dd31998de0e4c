package symb

import (
	"slices"
	"sort"
)

// prepared is the solver's front-half state: flattened constraints,
// union-found symbol classes, slot-indexed propagated domains, and the
// compiled program for every constraint. A fresh solve builds one from
// scratch; an incremental Session maintains one across branch forks so
// each fork pays only for what it adds.
//
// Forks are layered. fork freezes what the session holds so far and
// shares it, read-only, between parent and child; from then on each
// adds only to layers of its own:
//   - the name set, symbol table and union-find are layered maps: a
//     lookup falls through the session's own top map to the frozen
//     levels below, and a fork freezes the top (flattening the levels
//     into one past maxLayers);
//   - the constraint records are frozen segments plus an owned tail, so
//     a child's first constraint copies nothing of the prefix;
//   - the per-slot arrays are copied, with headroom for the child's new
//     slots: dom because propagation writes it in place, slots because
//     its entries grow — each slot's constraint list is shared capped (a
//     child's first append to it copies that list) and its exclusion set
//     is an immutable sorted slice, replaced on write.
//
// Nothing frozen is ever written again: exploration keeps extending the
// parent after a fork, and the child must not see it.
//
// A fork can also be recycled (forkInto): a child nothing reads any more
// becomes the next child, its per-slot arrays, owned top levels,
// constraint tail, arena and propagation scratch reused in place. The
// join checks every candidate pair of one upstream path on a fork of the
// same prefix and drops each fork once it has its verdict, so one
// recycled child serves them all.
type prepared struct {
	// nameSet holds every original (pre-substitution) symbol seen; a Sat
	// model binds each of them through its union-find representative.
	// namesKey sums their digests: the memo key must tell apart sessions
	// whose slots and constraints agree but whose models bind different
	// names (a union can fold a symbol's only constraint away).
	nameSet  layered[struct{}]
	nNames   int
	namesKey lanes

	// uf maps a symbol to its union-find parent; roots have no entry.
	uf layered[string]

	// symtab assigns a slot to every representative symbol; slots is
	// the inverse, with each slot's other append-only state. dom is
	// indexed by slot and holds the propagated (not original) domains.
	symtab layered[int32]
	slots  []slotInfo
	dom    []Domain

	// cons holds the flattened, representative-substituted constraints
	// with their shared analyses and slot bindings.
	cons conList

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

	// arena backs the constraints' slot bindings (see slotList). Never
	// shared with forks.
	arena []int32

	// Propagation scratch, grown lazily and reused across asserts. Never
	// shared with forks: no live data survives a propagate call.
	pqueue   []int32
	pqueued  []bool
	pchanged []int32
}

// slotInfo is the state of one slot that only ever grows: its
// representative's name and hasher state (for the memo key), the
// constraints mentioning it (the propagation worklist fan-out and the
// candidate "mentioned constants" source), and the values Ne constraints
// ruled out — sorted, and replaced rather than modified, so forks share
// it safely.
type slotInfo struct {
	name string
	hash hasher
	cons []int32
	excl []uint64
}

// slotHeadroom is the spare capacity a fork gives the child's per-slot
// arrays, so its first few new slots append in place.
const slotHeadroom = 8

// maxLayers bounds the frozen levels a lookup may fall through; a fork
// past it flattens them into one.
const maxLayers = 8

// smallLevel is the most entries a level keeps in a slice before it
// switches to a map: a join fork adds a handful of names, and a map
// would cost more to create than the scans it saves.
const smallLevel = 8

type entry[V any] struct {
	k string
	v V
}

// level is one level of a layered map: a short slice, or a map once it
// outgrows smallLevel.
type level[V any] struct {
	kv []entry[V]
	m  map[string]V
}

func (l *level[V]) get(k string) (V, bool) {
	if l.m != nil {
		v, ok := l.m[k]
		return v, ok
	}
	for i := range l.kv {
		if l.kv[i].k == k {
			return l.kv[i].v, true
		}
	}
	var zero V
	return zero, false
}

func (l *level[V]) set(k string, v V) {
	if l.m != nil {
		l.m[k] = v
		return
	}
	for i := range l.kv {
		if l.kv[i].k == k {
			l.kv[i].v = v
			return
		}
	}
	if len(l.kv) < smallLevel {
		if l.kv == nil {
			l.kv = make([]entry[V], 0, smallLevel)
		}
		l.kv = append(l.kv, entry[V]{k, v})
		return
	}
	l.m = make(map[string]V, 2*smallLevel)
	for _, e := range l.kv {
		l.m[e.k] = e.v
	}
	l.m[k] = v
	l.kv = nil
}

func (l *level[V]) size() int { return len(l.kv) + len(l.m) }

func (l *level[V]) each(fn func(string, V)) {
	for _, e := range l.kv {
		fn(e.k, e.v)
	}
	for k, v := range l.m {
		fn(k, v)
	}
}

// frozen is one immutable level of a layered map.
type frozen[V any] struct {
	level[V]
	below *frozen[V]
	depth int
}

// layered is a string-keyed map whose entries live in an owned top level
// over shared frozen levels. Entries are never deleted.
type layered[V any] struct {
	top   level[V]
	below *frozen[V]
}

func (l *layered[V]) get(k string) (V, bool) {
	if v, ok := l.top.get(k); ok {
		return v, true
	}
	for f := l.below; f != nil; f = f.below {
		if v, ok := f.get(k); ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

func (l *layered[V]) set(k string, v V) { l.top.set(k, v) }

// fork freezes the top level (if it holds anything) and returns a child
// over the same frozen levels; l continues with an empty top of its own.
// The child's top level reuses kv's backing array (nil allocates one on
// the first set).
func (l *layered[V]) fork(kv []entry[V]) layered[V] {
	if l.top.size() > 0 {
		f := &frozen[V]{level: l.top, below: l.below, depth: 1}
		if l.below != nil {
			f.depth = l.below.depth + 1
		}
		if f.depth > maxLayers {
			f = f.flatten()
		}
		l.top, l.below = level[V]{}, f
	}
	return layered[V]{top: level[V]{kv: kv[:0]}, below: l.below}
}

// flatten merges every level into one, upper levels overriding lower.
func (f *frozen[V]) flatten() *frozen[V] {
	var levels []*frozen[V]
	n := 0
	for g := f; g != nil; g = g.below {
		levels = append(levels, g)
		n += g.size()
	}
	m := make(map[string]V, n)
	for i := len(levels) - 1; i >= 0; i-- {
		levels[i].each(func(k string, v V) { m[k] = v })
	}
	return &frozen[V]{level: level[V]{m: m}, depth: 1}
}

// each calls fn for every key. Keys set only when absent (as the name
// set's are) are visited exactly once.
func (l *layered[V]) each(fn func(string)) {
	visit := func(k string, _ V) { fn(k) }
	l.top.each(visit)
	for f := l.below; f != nil; f = f.below {
		f.each(visit)
	}
}

// conRec is one inserted constraint: its shared analysis and the slot of
// each of the analysis's symbols.
type conRec struct {
	an    *analysis
	slots []int32
}

// conList is a session's constraint records: frozen segments shared
// with forks, then the session's own tail. Records are never modified
// after insertion.
type conList struct {
	segs [][]conRec
	own  []conRec
	n    int
}

func (l *conList) at(ci int32) *conRec {
	i := int(ci)
	for _, s := range l.segs {
		if i < len(s) {
			return &s[i]
		}
		i -= len(s)
	}
	return &l.own[i]
}

func (l *conList) add(r conRec) int32 {
	if l.own == nil {
		l.own = make([]conRec, 0, 8)
	}
	l.own = append(l.own, r)
	l.n++
	return int32(l.n - 1)
}

// each calls fn for every record in insertion order.
func (l *conList) each(fn func(ci int32, r *conRec)) {
	ci := int32(0)
	for _, s := range l.segs {
		for i := range s {
			fn(ci, &s[i])
			ci++
		}
	}
	for i := range l.own {
		fn(ci, &l.own[i])
		ci++
	}
}

// fork freezes the owned tail into a new segment and returns a child
// sharing every segment, whose own tail reuses own's backing array.
func (l *conList) fork(own []conRec) conList {
	if len(l.own) > 0 {
		segs := make([][]conRec, 0, len(l.segs)+1)
		segs = append(segs, l.segs...)
		segs = append(segs, l.own[:len(l.own):len(l.own)])
		if len(segs) > maxLayers {
			all := make([]conRec, 0, l.n)
			for _, s := range segs {
				all = append(all, s...)
			}
			segs = [][]conRec{all}
		}
		l.segs, l.own = segs, nil
	}
	return conList{segs: l.segs, own: own[:0], n: l.n}
}

func newPrepared() *prepared {
	return &prepared{maxStack: 1}
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
			if p.union(b.L.(Sym).Name, b.R.(Sym).Name) {
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

// fork returns the state of a child branch. It freezes p's own layers
// (p keeps working on fresh ones) and copies only the per-slot arrays,
// so its cost is linear in the number of slots and independent of the
// number of constraints.
func (p *prepared) fork() *prepared {
	return p.forkInto(&prepared{})
}

// forkInto is fork into q, a discarded state whose buffers the child
// reuses: the per-slot arrays with their headroom, the top levels of the
// layered maps, the owned constraint tail, the arena and the propagation
// scratch. q's old contents are overwritten, so nothing may read q, or
// any state forked from q, again — the arena's old bindings back the
// constraint records q's own forks froze — and q must not be p or one of
// p's ancestors.
func (p *prepared) forkInto(q *prepared) *prepared {
	n := len(p.slots)
	slots, dom := q.slots[:0], q.dom[:0]
	if cap(slots) < n {
		slots = make([]slotInfo, 0, n+slotHeadroom)
	}
	if cap(dom) < n {
		dom = make([]Domain, 0, n+slotHeadroom)
	}
	slots = append(slots, p.slots...)
	dom = append(dom, p.dom...)
	for i := range slots {
		cs := slots[i].cons
		slots[i].cons = cs[:len(cs):len(cs)]
	}
	*q = prepared{
		nameSet:  p.nameSet.fork(q.nameSet.top.kv),
		nNames:   p.nNames,
		namesKey: p.namesKey,
		uf:       p.uf.fork(q.uf.top.kv),
		symtab:   p.symtab.fork(q.symtab.top.kv),
		slots:    slots,
		dom:      dom,
		cons:     p.cons.fork(q.cons.own),
		key:      p.key,
		maxStack: p.maxStack,
		hasUnion: p.hasUnion,
		unsat:    p.unsat,
		arena:    q.arena[:0],
		// pqueued is all false between propagate calls.
		pqueue:   q.pqueue[:0],
		pqueued:  q.pqueued,
		pchanged: q.pchanged[:0],
	}
	return q
}

func (p *prepared) addName(n string) {
	if _, ok := p.nameSet.get(n); !ok {
		p.nameSet.set(n, struct{}{})
		p.nNames++
		h := nameHasher(n)
		p.namesKey.add(h.sum())
	}
}

// find returns x's union-find representative. There is no path
// compression: it would write into frozen levels, and classes stay
// small (a union links one root under another).
func (p *prepared) find(x string) string {
	for {
		px, ok := p.uf.get(x)
		if !ok {
			return x
		}
		x = px
	}
}

// union merges the classes of a and b, reporting whether they were
// distinct. Deterministic: the smaller name becomes the representative.
func (p *prepared) union(a, b string) bool {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	p.uf.set(rb, ra)
	return true
}

// slot returns (allocating if needed) the slot of a representative
// symbol. New slots start with the full 64-bit domain, mirroring the
// legacy "every symbol in the constraints has a domain" rule.
func (p *prepared) slot(name string) int32 {
	if s, ok := p.symtab.get(name); ok {
		return s
	}
	s := int32(len(p.slots))
	p.symtab.set(name, s)
	p.slots = append(p.slots, slotInfo{name: name, hash: nameHasher(name)})
	p.dom = append(p.dom, Full)
	return s
}

// isExcluded reports whether a Ne constraint ruled v out for slot s.
func (p *prepared) isExcluded(s int32, v uint64) bool {
	_, found := slices.BinarySearch(p.slots[s].excl, v)
	return found
}

// exclude rules v out for slot s, reporting whether it was new. The set
// is replaced, never modified, so forks may share it.
func (p *prepared) exclude(s int32, v uint64) bool {
	set := p.slots[s].excl
	i, found := slices.BinarySearch(set, v)
	if found {
		return false
	}
	ns := make([]uint64, len(set)+1)
	copy(ns, set[:i])
	ns[i] = v
	copy(ns[i+1:], set[i:])
	p.slots[s].excl = ns
	return true
}

// setDomain intersects a symbol's domain with d (through its
// representative) and re-propagates constraints watching the symbol.
// Exploration sets each symbol's domain exactly once, which makes this
// coincide with the legacy map semantics.
func (p *prepared) setDomain(name string, d Domain) {
	if s, changed := p.narrow(name, d); changed {
		p.propagate(-1, []int32{s})
	}
}

// setDomains applies the map through setDomainList in sorted name order,
// so slot numbering is deterministic regardless of map iteration; the
// verdict does not depend on it, but determinism is cheap insurance.
func (p *prepared) setDomains(domains map[string]Domain) {
	names := make([]string, 0, len(domains))
	for n := range domains {
		names = append(names, n)
	}
	sort.Strings(names)
	list := make([]NamedDomain, len(names))
	for i, n := range names {
		list[i] = NamedDomain{Name: n, Domain: domains[n]}
	}
	p.setDomainList(list)
}

// setDomainList intersects every binding, in order, then runs one
// propagation seeded by all the slots that narrowed. Propagation is
// confluent, so this reaches the fixpoint one propagate per name would.
func (p *prepared) setDomainList(ds []NamedDomain) {
	var seeds []int32
	for _, nd := range ds {
		if s, changed := p.narrow(nd.Name, nd.Domain); changed {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) > 0 {
		p.propagate(-1, seeds)
	}
}

// narrow intersects the domain of name's representative with d without
// propagating, reporting the slot and whether its domain changed.
func (p *prepared) narrow(name string, d Domain) (int32, bool) {
	if p.unsat {
		return 0, false
	}
	p.addName(name)
	s := p.slot(p.find(name))
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

// assertConjunct adds a pre-analysed constraint: the state assert
// reaches for the constraint, without flattening, walking or compiling
// it again.
func (p *prepared) assertConjunct(c *Conjunct) {
	if p.unsat {
		return
	}
	if c.falsified {
		p.unsat = true
		return
	}
	for i := range c.parts {
		p.addPart(&c.parts[i])
		if p.unsat {
			return
		}
	}
}

// addPart is addConstraint for one pre-analysed flattened part. The
// analysis to insert is the one substitute would produce: the part as
// it stands while no union merged two classes, its folded image once
// one did — unless one of its own symbols was renamed, which only the
// plain path can rewrite.
func (p *prepared) addPart(pt *conjPart) {
	if pt.symEq {
		p.addConstraint(pt.e)
		return
	}
	p.register(pt.syms)
	an := pt.plain
	if p.hasUnion {
		an = pt.folded
		for _, n := range pt.syms {
			if p.find(n) != n {
				an = analyse(p.substitute(pt.e))
				break
			}
		}
	}
	p.insert(an)
}

// register makes every symbol of an original constraint (via its
// representative) a search variable, even when substitution folds the
// constraint away entirely — the legacy solver kept such symbols as
// Full-domain variables, and models must keep binding them.
func (p *prepared) register(syms []string) {
	for _, n := range syms {
		p.addName(n)
		p.slot(p.find(n))
	}
}

// addConstraint inserts one flattened constraint. A symbol-symbol
// equality that merges two union-find classes invalidates the
// representative substitution of everything already inserted, so that
// (rare) case rebuilds the state; every other constraint is substituted,
// analysed, indexed and propagated incrementally.
func (p *prepared) addConstraint(e Expr) {
	if b, ok := e.(Bin); ok && b.Op == Eq && sameKind(b.L, b.R) {
		la, rb := b.L.(Sym).Name, b.R.(Sym).Name
		p.addName(la)
		p.addName(rb)
		if p.find(la) != p.find(rb) {
			p.rebuildWith(e)
			return
		}
	}
	p.register(Symbols(e))
	p.insert(analyse(p.substitute(e)))
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
		if rep := p.find(n); rep != n {
			m[n] = Sym{Name: rep}
		}
	}
	return Substitute(e, m)
}

// insert binds, indexes and propagates one substituted constraint's
// analysis. A ground constraint (no symbols) is decided immediately:
// evaluating to false proves UNSAT — the legacy search could only answer
// Unknown here because exhaustion was never recorded for a zero-variable
// search. Ground-true constraints are dropped.
func (p *prepared) insert(an *analysis) {
	if len(an.names) == 0 {
		if an.e.Eval(nil) == 0 {
			p.unsat = true
		}
		return
	}
	if an.prog.maxStack > p.maxStack {
		p.maxStack = an.prog.maxStack
	}
	slots := p.slotList(len(an.names))
	for i, n := range an.names {
		slots[i] = p.slot(n) // registered above, so present
	}
	ci := p.cons.add(conRec{an: an, slots: slots})
	for _, s := range slots {
		p.slots[s].cons = append(p.slots[s].cons, ci)
	}
	p.key.add(an.digest)
	p.propagate(ci, nil)
}

// slotList carves an n-entry slot binding out of the session's arena.
// Handed-out bindings are never written again, and the arena is never
// shared with forks, so appends past them are safe.
func (p *prepared) slotList(n int) []int32 {
	if cap(p.arena)-len(p.arena) < n {
		p.arena = make([]int32, 0, max(64, n))
	}
	start := len(p.arena)
	p.arena = p.arena[:start+n]
	return p.arena[start : start+n : start+n]
}

// rebuildWith reprocesses the whole constraint set after eq united two
// symbol classes. Starting domains are the already-propagated ones —
// sound, and convergent to the same fixpoint a from-scratch build
// reaches, because the propagators are monotone. Union-find
// representatives are the lexicographic minimum of each class, so the
// rebuilt substitution matches what a fresh batch build would produce.
func (p *prepared) rebuildWith(eq Expr) {
	old := make([]Expr, 0, p.cons.n+1)
	p.cons.each(func(_ int32, r *conRec) { old = append(old, r.an.e) })
	old = append(old, eq)
	oldDom := p.dom
	oldSlots := p.slots
	b := eq.(Bin)
	p.union(b.L.(Sym).Name, b.R.(Sym).Name)
	p.hasUnion = true

	p.symtab = layered[int32]{}
	p.slots = nil
	p.dom = nil
	p.cons = conList{}
	p.key = lanes{}
	p.maxStack = 1

	for i, si := range oldSlots {
		p.setDomain(si.name, oldDom[i])
		if p.unsat {
			return
		}
	}
	for _, c := range old {
		p.addConstraint(c)
		if p.unsat {
			return
		}
	}
}

// memoKey canonically identifies (constraint set, propagated domains,
// model names, candidate sampling) for the feasibility memo. Constraint and domain
// digests are summed, so the key is independent of insertion order —
// and so is the verdict: candidates are sorted, propagation is
// confluent, and the search's variable order depends only on domains
// and names.
func (p *prepared) memoKey(samples int) memoKey {
	k := p.key
	k.add(p.namesKey)
	for s := range p.slots {
		k.add(domainDigest(p.slots[s].hash, p.dom[s]))
	}
	return memoKey{
		a:       k.a,
		b:       k.b,
		nc:      int32(p.cons.n),
		ns:      int32(len(p.slots)),
		samples: int32(samples),
	}
}

// --- worklist interval propagation ---

// propagate runs constraint propagation to fixpoint from the given seed
// constraint (none when negative) and/or changed slots. Every constraint
// is re-examined whenever a domain or exclusion set of a symbol it
// mentions changes, which reaches the same fixpoint as the legacy
// sweep-until-stable loop.
func (p *prepared) propagate(seedCon int32, seedSlots []int32) {
	n := p.cons.n
	if n == 0 {
		return
	}
	// queued is all false between calls (every exit path below restores
	// that), so only growth allocates and nothing is cleared up front.
	if cap(p.pqueued) < n {
		p.pqueued = make([]bool, n, n+n/2)
	}
	queued := p.pqueued[:n]
	queue := p.pqueue[:0]
	push := func(ci int32) {
		if !queued[ci] {
			queued[ci] = true
			queue = append(queue, ci)
		}
	}
	if seedCon >= 0 {
		push(seedCon)
	}
	for _, s := range seedSlots {
		for _, ci := range p.slots[s].cons {
			push(ci)
		}
	}
	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		queued[ci] = false
		changed := p.propagateOne(p.cons.at(ci))
		if step := head + 1; step >= cycleCheckFrom && step&(step-1) == 0 && p.strictOrderCycle() {
			p.unsat = true
		}
		if p.unsat {
			for _, cj := range queue[head+1:] {
				queued[cj] = false
			}
			p.pqueue = queue[:0]
			return
		}
		for _, s := range changed {
			for _, cj := range p.slots[s].cons {
				push(cj)
			}
		}
	}
	p.pqueue = queue[:0]
}

// cycleCheckFrom is the number of propagation steps after which
// propagate looks for a strict order cycle, and again at every doubling.
// No roster propagation comes near it; an order cycle over wide domains
// passes it within a millisecond.
const cycleCheckFrom = 1 << 12

// strictOrderCycle reports whether the symbol-symbol order constraints
// form a cycle through at least one strict edge (x < y ≤ … ≤ x), which
// no assignment satisfies. Interval propagation refutes such a cycle
// only by narrowing one value per round — 2^64 rounds over full domains
// — but the refutation is certain: at any non-empty fixpoint each edge
// u < v forces lo(v) ≥ lo(u)+1 and each u ≤ v forces lo(v) ≥ lo(u), so
// around the cycle lo(x) > lo(x). Declaring Unsat on finding the cycle
// is therefore exactly the verdict propagation would reach, at once.
// Symbol equalities count as a non-strict edge each way.
func (p *prepared) strictOrderCycle() bool {
	type edge struct {
		to     int32
		strict bool
	}
	adj := make([][]edge, len(p.slots))
	p.cons.each(func(_ int32, r *conRec) {
		sh := &r.an.shape
		if sh.kind != shapeSymSym {
			return
		}
		l, g := r.slots[sh.l], r.slots[sh.r] // l op g
		switch sh.op {
		case Ult, Ule:
			adj[l] = append(adj[l], edge{g, sh.op == Ult})
		case Ugt, Uge:
			adj[g] = append(adj[g], edge{l, sh.op == Ugt})
		case Eq:
			adj[l] = append(adj[l], edge{g, false})
			adj[g] = append(adj[g], edge{l, false})
		}
	})
	// Tarjan's strongly connected components; a strict edge inside one
	// closes a strict cycle.
	n := len(adj)
	index, low, comp := make([]int32, n), make([]int32, n), make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	next, ncomp := int32(1), int32(0)
	var visit func(v int32)
	visit = func(v int32) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			if index[e.to] == 0 {
				visit(e.to)
				low[v] = min(low[v], low[e.to])
			} else if onStack[e.to] {
				low[v] = min(low[v], index[e.to])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := range adj {
		if index[v] == 0 {
			visit(int32(v))
		}
	}
	for v, es := range adj {
		for _, e := range es {
			if e.strict && comp[v] == comp[e.to] {
				return true
			}
		}
	}
	return false
}

// propagateOne narrows domains using one constraint, returning the slots
// whose domain or exclusion set changed (in p.pchanged, valid until the
// next call). It mirrors the legacy propagate(): structurally
// recognised comparison shapes first, then exact enumeration for
// single-symbol constraints over small domains.
func (p *prepared) propagateOne(r *conRec) []int32 {
	switch sh := &r.an.shape; sh.kind {
	case shapeSymConst:
		return p.propagateSymConst(r.slots[sh.l], sh.op, sh.k)
	case shapeSymSym:
		return p.propagateSymSym(r.slots[sh.l], sh.op, r.slots[sh.r])
	}
	return p.propagateEnum(r)
}

// enumWidth is the largest domain propagateEnum will fully enumerate for
// single-symbol constraints (masked-field comparisons and similar).
const enumWidth = 4096

// EnumWidth exports the enumeration cutoff: the solver fully decides
// any single-symbol constraint whose symbol's domain is narrower than
// this during propagation. Join-index pruning (internal/core) relies on
// exactly that guarantee, so it must mirror the same cutoff.
const EnumWidth = enumWidth

// localSlot0 binds a single-symbol program's only symbol to vals[0].
var localSlot0 = []int32{0}

// propagateEnum decides a constraint mentioning exactly one symbol with
// a small domain by trying every value, tightening the domain to the
// satisfying hull (or proving UNSAT).
func (p *prepared) propagateEnum(r *conRec) []int32 {
	if len(r.slots) != 1 {
		return nil
	}
	s := r.slots[0]
	d := p.dom[s]
	width := d.Hi - d.Lo
	if width >= enumWidth {
		return nil
	}
	prog := &r.an.prog
	var stackBuf [16]uint64
	stack := stackBuf[:]
	if prog.maxStack > len(stackBuf) {
		stack = make([]uint64, prog.maxStack)
	}
	var vals [1]uint64
	excl := p.slots[s].excl
	lo, hi := d.Hi, d.Lo
	any := false
	for v := d.Lo; ; v++ {
		for len(excl) > 0 && excl[0] < v {
			excl = excl[1:]
		}
		if len(excl) == 0 || excl[0] != v {
			vals[0] = v
			if evalProgram(prog, localSlot0, vals[:], stack) != 0 {
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
		p.pchanged = append(p.pchanged[:0], s)
		return p.pchanged
	}
	return nil
}

// propagateSymConst narrows slot sl through (sl op k).
func (p *prepared) propagateSymConst(sl int32, op Op, k uint64) []int32 {
	d := p.dom[sl]
	nd := d
	switch op {
	case Eq:
		if !d.contains(k) || p.isExcluded(sl, k) {
			p.unsat = true
			return nil
		}
		nd = Domain{Lo: k, Hi: k}
	case Ne:
		chg := p.exclude(sl, k)
		for nd.Lo <= nd.Hi && p.isExcluded(sl, nd.Lo) {
			if nd.Lo == ^uint64(0) {
				p.unsat = true
				return nil
			}
			nd.Lo++
			chg = true
		}
		for nd.Hi >= nd.Lo && p.isExcluded(sl, nd.Hi) {
			if nd.Hi == 0 {
				p.unsat = true
				return nil
			}
			nd.Hi--
			chg = true
		}
		if nd.Lo > nd.Hi {
			p.unsat = true
			return nil
		}
		p.dom[sl] = nd
		if chg {
			p.pchanged = append(p.pchanged[:0], sl)
			return p.pchanged
		}
		return nil
	case Ult:
		if k == 0 {
			p.unsat = true
			return nil
		}
		if k-1 < nd.Hi {
			nd.Hi = k - 1
		}
	case Ule:
		if k < nd.Hi {
			nd.Hi = k
		}
	case Ugt:
		if k == ^uint64(0) {
			p.unsat = true
			return nil
		}
		if k+1 > nd.Lo {
			nd.Lo = k + 1
		}
	case Uge:
		if k > nd.Lo {
			nd.Lo = k
		}
	}
	if nd.Lo > nd.Hi {
		p.unsat = true
		return nil
	}
	if nd != d {
		p.dom[sl] = nd
		p.pchanged = append(p.pchanged[:0], sl)
		return p.pchanged
	}
	return nil
}

// propagateSymSym narrows slots sl and sr through (sl op sr).
func (p *prepared) propagateSymSym(sl int32, op Op, sr int32) []int32 {
	dl, dr := p.dom[sl], p.dom[sr]
	changed := p.pchanged[:0]
	switch op {
	case Ult:
		if dr.Hi == 0 {
			p.unsat = true
			return nil
		}
		changed = p.tightenHi(sl, dr.Hi-1, changed)
		if dl.Lo == ^uint64(0) {
			p.unsat = true
			return nil
		}
		changed = p.tightenLo(sr, dl.Lo+1, changed)
	case Ule:
		changed = p.tightenHi(sl, dr.Hi, changed)
		changed = p.tightenLo(sr, dl.Lo, changed)
	case Ugt:
		if dl.Hi == 0 {
			p.unsat = true
			return nil
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
			return nil
		}
		if nd != dl || nd != dr {
			p.dom[sl], p.dom[sr] = nd, nd
			changed = append(changed, sl, sr)
		}
	}
	p.pchanged = changed
	if p.dom[sl].Lo > p.dom[sl].Hi || p.dom[sr].Lo > p.dom[sr].Hi {
		p.unsat = true
		return nil
	}
	return changed
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
