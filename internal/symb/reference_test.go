package symb

import (
	"math/rand"
	"sort"
)

// This file preserves the pre-incremental solver verbatim (modulo
// renames): flatten → substitute → propagate-to-fixpoint → backtracking
// search, all over Expr trees and map[string]uint64 bindings, with no
// state carried between calls.
//
// It is the oracle for the differential tests (FuzzSolverEquivalence,
// BenchmarkFeasibilityReference): two independent implementations
// agreeing on verdict and witness is much stronger evidence than one
// implementation agreeing with itself. Whole contracts and composites
// are pinned against it through SHA-256 digests of its output, recorded
// when it could still run a whole generation
// (core's TestComposeManyIncrementalMatchesReference, experiments'
// TestChainFourStageQuick).
//
// Keep it dumb. Performance work belongs in prepared.go/solver.go.

// referenceSolve is the legacy Solve: identical verdicts and witnesses
// to Solver.Solve, built from scratch on every call.
func referenceSolve(constraints []Expr, domains map[string]Domain, maxNodes, samples int) (map[string]uint64, Result) {
	st := &refSearchState{maxNodes: maxNodes, samples: samples}

	// 1. Flatten conjunctions and fold trivial constraints.
	var flat []Expr
	var flatten func(e Expr) bool
	flatten = func(e Expr) bool {
		if b, ok := e.(Bin); ok && b.Op == LAnd {
			return flatten(b.L) && flatten(b.R)
		}
		if c, ok := e.(Const); ok {
			return c.V != 0
		}
		flat = append(flat, e)
		return true
	}
	for _, c := range constraints {
		if !flatten(c) {
			return nil, Unsat
		}
	}
	// Ground constraints (no symbols) are decided immediately; the
	// original returned Unknown for false ones when some domain was too
	// wide to enumerate, which the incremental engine fixed. Mirror the
	// fix so the two implementations stay witness-identical.
	kept := flat[:0]
	for _, c := range flat {
		if len(Symbols(c)) == 0 {
			if c.Eval(nil) == 0 {
				return nil, Unsat
			}
			continue
		}
		kept = append(kept, c)
	}
	flat = kept

	// 2. Union symbol equalities so equal symbols share one search
	// variable, then substitute representatives everywhere.
	uf := newUnionFind()
	for _, c := range flat {
		if b, ok := c.(Bin); ok && b.Op == Eq && sameKind(b.L, b.R) {
			if ls, ok1 := b.L.(Sym); ok1 {
				uf.union(ls.Name, b.R.(Sym).Name)
			}
		}
	}
	subst := make(map[string]Expr)
	allSyms := Symbols(flat...)
	for name := range domains {
		allSyms = append(allSyms, name)
	}
	allSyms = refDedupe(allSyms)
	for _, n := range allSyms {
		if rep := uf.find(n); rep != n {
			subst[n] = S(rep)
		}
	}
	if len(subst) > 0 {
		for i, c := range flat {
			flat[i] = Substitute(c, subst)
		}
		// Substitution folds (e.g. Ne(rep,rep) → 0); decide those folds
		// immediately, as the incremental engine's insert does.
		kept2 := flat[:0]
		for _, c := range flat {
			if len(Symbols(c)) == 0 {
				if c.Eval(nil) == 0 {
					return nil, Unsat
				}
				continue
			}
			kept2 = append(kept2, c)
		}
		flat = kept2
	}

	// 3. Initialise domains, merging via representatives.
	dom := make(map[string]Domain)
	excluded := make(map[string]map[uint64]bool)
	for _, n := range allSyms {
		rep := uf.find(n)
		d, ok := dom[rep]
		if !ok {
			d = Full
		}
		if nd, has := domains[n]; has {
			var okInt bool
			d, okInt = d.intersect(nd)
			if !okInt {
				return nil, Unsat
			}
		}
		dom[rep] = d
	}
	for _, n := range Symbols(flat...) {
		if _, ok := dom[n]; !ok {
			dom[n] = Full
		}
	}

	// 4. Interval propagation to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, c := range flat {
			verdict, chg := refPropagate(c, dom, excluded)
			if verdict == Unsat {
				return nil, Unsat
			}
			changed = changed || chg
		}
	}

	// 5. Backtracking search over the remaining variables, narrowest
	// domain first, names breaking ties for determinism.
	vars := make([]string, 0, len(dom))
	for n := range dom {
		vars = append(vars, n)
	}
	sort.Slice(vars, func(i, j int) bool {
		wi := dom[vars[i]].Hi - dom[vars[i]].Lo
		wj := dom[vars[j]].Hi - dom[vars[j]].Lo
		if wi != wj {
			return wi < wj
		}
		return vars[i] < vars[j]
	})

	st.vars = vars
	st.dom = dom
	st.excluded = excluded
	st.constraints = flat
	st.candidates = refBuildCandidates(flat, dom, excluded, st.samples)
	st.assignment = make(map[string]uint64, len(vars))
	st.constraintSyms = make([][]string, len(flat))
	for i, c := range flat {
		st.constraintSyms[i] = Symbols(c)
	}

	if st.search(0) {
		model := make(map[string]uint64, len(allSyms))
		for _, n := range allSyms {
			model[n] = st.assignment[uf.find(n)]
		}
		return model, Sat
	}
	if st.exhausted && st.complete && !st.truncated {
		return nil, Unsat
	}
	return nil, Unknown
}

type refSearchState struct {
	vars           []string
	dom            map[string]Domain
	excluded       map[string]map[uint64]bool
	constraints    []Expr
	constraintSyms [][]string
	candidates     map[string][]uint64
	assignment     map[string]uint64
	maxNodes       int
	samples        int
	nodes          int
	exhausted      bool
	complete       bool
	truncated      bool
}

func (st *refSearchState) search(i int) bool {
	if st.nodes >= st.maxNodes {
		st.truncated = true
		return false
	}
	st.nodes++
	if i == len(st.vars) {
		return CheckModel(st.constraints, st.assignment)
	}
	v := st.vars[i]
	for _, cand := range st.candidates[v] {
		st.assignment[v] = cand
		if st.partialOK(i) && st.search(i+1) {
			return true
		}
	}
	delete(st.assignment, v)
	if i == 0 {
		st.exhausted = true
		st.complete = st.allCandidatesComplete()
	}
	return false
}

// partialOK evaluates every constraint whose symbols are all assigned
// after the i-th variable got its value.
func (st *refSearchState) partialOK(i int) bool {
	assigned := make(map[string]bool, i+1)
	for j := 0; j <= i; j++ {
		assigned[st.vars[j]] = true
	}
	for ci, c := range st.constraints {
		ready := true
		uses := false
		for _, s := range st.constraintSyms[ci] {
			if s == st.vars[i] {
				uses = true
			}
			if !assigned[s] {
				ready = false
				break
			}
		}
		if ready && uses && c.Eval(st.assignment) == 0 {
			return false
		}
	}
	return true
}

func (st *refSearchState) allCandidatesComplete() bool {
	for _, v := range st.vars {
		d := st.dom[v]
		width := d.Hi - d.Lo
		if width+1 == 0 {
			return false
		}
		if uint64(len(st.candidates[v])) < width+1 {
			return false
		}
	}
	return true
}

func refPropagate(c Expr, dom map[string]Domain, excluded map[string]map[uint64]bool) (Result, bool) {
	b, ok := c.(Bin)
	if !ok {
		return refPropagateEnum(c, dom, excluded)
	}
	if verdict, changed, handled := refTryPropagateBin(b, dom, excluded); handled {
		return verdict, changed
	}
	return refPropagateEnum(c, dom, excluded)
}

func refPropagateEnum(c Expr, dom map[string]Domain, excluded map[string]map[uint64]bool) (Result, bool) {
	syms := Symbols(c)
	if len(syms) != 1 {
		return Unknown, false
	}
	name := syms[0]
	d := dom[name]
	width := d.Hi - d.Lo
	if width >= enumWidth {
		return Unknown, false
	}
	lo, hi := d.Hi, d.Lo
	any := false
	binding := map[string]uint64{}
	for v := d.Lo; ; v++ {
		if !excluded[name][v] {
			binding[name] = v
			if c.Eval(binding) != 0 {
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
		return Unsat, false
	}
	if lo > d.Lo || hi < d.Hi {
		dom[name] = Domain{Lo: lo, Hi: hi}
		return Unknown, true
	}
	return Unknown, false
}

func refTryPropagateBin(b Bin, dom map[string]Domain, excluded map[string]map[uint64]bool) (Result, bool, bool) {
	l, r := b.L, b.R
	op := b.Op
	if _, lc := l.(Const); lc {
		l, r = r, l
		op = flipOp(op)
	}
	ls, lIsSym := l.(Sym)
	if !lIsSym {
		return Unknown, false, false
	}
	if rc, rIsConst := r.(Const); rIsConst {
		d := dom[ls.Name]
		nd := d
		switch op {
		case Eq:
			if !d.contains(rc.V) || excluded[ls.Name][rc.V] {
				return Unsat, false, true
			}
			nd = Domain{rc.V, rc.V}
		case Ne:
			if excluded[ls.Name] == nil {
				excluded[ls.Name] = make(map[uint64]bool)
			}
			changed := false
			if !excluded[ls.Name][rc.V] {
				excluded[ls.Name][rc.V] = true
				changed = true
			}
			for nd.Lo <= nd.Hi && excluded[ls.Name][nd.Lo] {
				if nd.Lo == ^uint64(0) {
					return Unsat, false, true
				}
				nd.Lo++
				changed = true
			}
			for nd.Hi >= nd.Lo && excluded[ls.Name][nd.Hi] {
				if nd.Hi == 0 {
					return Unsat, false, true
				}
				nd.Hi--
				changed = true
			}
			if nd.Lo > nd.Hi {
				return Unsat, false, true
			}
			dom[ls.Name] = nd
			return Unknown, changed, true
		case Ult:
			if rc.V == 0 {
				return Unsat, false, true
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
				return Unsat, false, true
			}
			if rc.V+1 > nd.Lo {
				nd.Lo = rc.V + 1
			}
		case Uge:
			if rc.V > nd.Lo {
				nd.Lo = rc.V
			}
		default:
			return Unknown, false, false
		}
		if nd.Lo > nd.Hi {
			return Unsat, false, true
		}
		if nd != d {
			dom[ls.Name] = nd
			return Unknown, true, true
		}
		return Unknown, false, true
	}
	if rs, rIsSym := r.(Sym); rIsSym {
		dl, dr := dom[ls.Name], dom[rs.Name]
		changed := false
		switch op {
		case Ult:
			if dr.Hi == 0 {
				return Unsat, false, true
			}
			changed = refTightenHi(dom, ls.Name, dr.Hi-1) || changed
			if dl.Lo == ^uint64(0) {
				return Unsat, false, true
			}
			changed = refTightenLo(dom, rs.Name, dl.Lo+1) || changed
		case Ule:
			changed = refTightenHi(dom, ls.Name, dr.Hi) || changed
			changed = refTightenLo(dom, rs.Name, dl.Lo) || changed
		case Ugt:
			if dl.Hi == 0 {
				return Unsat, false, true
			}
			changed = refTightenLo(dom, ls.Name, dr.Lo+1) || changed
			changed = refTightenHi(dom, rs.Name, dl.Hi-1) || changed
		case Uge:
			changed = refTightenLo(dom, ls.Name, dr.Lo) || changed
			changed = refTightenHi(dom, rs.Name, dl.Hi) || changed
		case Eq:
			nd, ok := dl.intersect(dr)
			if !ok {
				return Unsat, false, true
			}
			if nd != dl || nd != dr {
				dom[ls.Name], dom[rs.Name] = nd, nd
				changed = true
			}
		default:
			return Unknown, false, false
		}
		if dom[ls.Name].Lo > dom[ls.Name].Hi || dom[rs.Name].Lo > dom[rs.Name].Hi {
			return Unsat, false, true
		}
		return Unknown, changed, true
	}
	return Unknown, false, false
}

func refTightenLo(dom map[string]Domain, name string, lo uint64) bool {
	d := dom[name]
	if lo > d.Lo {
		d.Lo = lo
		dom[name] = d
		return true
	}
	return false
}

func refTightenHi(dom map[string]Domain, name string, hi uint64) bool {
	d := dom[name]
	if hi < d.Hi {
		d.Hi = hi
		dom[name] = d
		return true
	}
	return false
}

func refBuildCandidates(constraints []Expr, dom map[string]Domain, excluded map[string]map[uint64]bool, samples int) map[string][]uint64 {
	mentioned := make(map[string][]uint64)
	collect := func(e Expr) (consts []uint64, syms []string) {
		var rec func(Expr)
		rec = func(e Expr) {
			switch x := e.(type) {
			case Const:
				consts = append(consts, x.V)
			case Sym:
				syms = append(syms, x.Name)
			case Bin:
				rec(x.L)
				rec(x.R)
			case Not:
				rec(x.X)
			}
		}
		rec(e)
		return
	}
	for _, c := range constraints {
		consts, syms := collect(c)
		for _, s := range syms {
			mentioned[s] = append(mentioned[s], consts...)
		}
	}

	out := make(map[string][]uint64, len(dom))
	for name, d := range dom {
		seen := make(map[uint64]bool)
		var cands []uint64
		add := func(v uint64) {
			if d.contains(v) && !excluded[name][v] && !seen[v] {
				seen[v] = true
				cands = append(cands, v)
			}
		}
		add(d.Lo)
		add(d.Hi)
		add(d.Lo + (d.Hi-d.Lo)/2)
		for _, v := range mentioned[name] {
			add(v)
			if v > 0 {
				add(v - 1)
			}
			if v < ^uint64(0) {
				add(v + 1)
			}
		}
		if width := d.Hi - d.Lo; width < 512 {
			for v := d.Lo; ; v++ {
				add(v)
				if v == d.Hi {
					break
				}
			}
		} else {
			rng := rand.New(rand.NewSource(int64(hashName(name))))
			for i := 0; i < samples; i++ {
				if width == ^uint64(0) {
					add(rng.Uint64())
				} else {
					add(d.Lo + rng.Uint64()%(width+1))
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		out[name] = cands
	}
	return out
}

func refDedupe(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || ss[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	// Deterministic: smaller name becomes the representative.
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}
