package core

import (
	"maps"
	"slices"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// This file is the join's model check: before a pair's question goes to
// the solver, the join tries an assignment it already knows. The a-path
// brings a model — a stage path its solved Witness, a path the previous
// fold kept the model that proved it — and the b-path its stage
// Witness. Joined, they often satisfy the merged query as they stand,
// and then the pair is kept without a solve.
//
// Soundness: a total assignment that satisfies every merged conjunct
// and lies in every merged domain proves the query Sat, and the solver
// never answers Unsat for a satisfiable query (it proves Unsat only by
// refutation or by an exhaustive search). A pair the check proves is
// therefore one the solver would keep too, so the kept set, the
// composite and every cache key are those of solving every pair. The
// check never refutes: a pair whose model fails goes to the solver.
//
// What the check evaluates is split by who can change it:
//
//   - a's model is made total over a's constraint symbols and domain
//     names and checked against a's constraints and domains once per
//     a-path (totalModel, in joinFeas.prefix). The pair model agrees
//     with it on every a-side name, and every merged domain b does not
//     touch is a's, so no pair needs to check a's side again;
//   - per pair, only b's suffix and the merged domains b touched are
//     checked (joinPrefix.proved). b's conjuncts are compiled once per
//     fold over b's own names; a pair binds each name to the value the
//     merged query gives it (a's write for a written field, the model's
//     value of the renamed name otherwise), which evaluates the
//     substituted conjunct without substituting.
//
// Models live in memory only, between the folds of one composition.
// They never enter PathContract.Witness, a raw path, an artifact or the
// store: a prefix decoded from the cache and a coalesced path carry
// none, and their pairs go to the solver.

// bVar is one symbol of a b-path — a constraint symbol or a domain
// name — with b's witness value for it.
type bVar struct {
	bSym
	wit    uint64
	hasWit bool
}

// modelEntry is one binding a pair adds to a's model.
type modelEntry struct {
	name string
	v    uint64
}

// buildModelCheck fills the b-path metadata the model check reads: b's
// constraints compiled over b's own names, and every b symbol (classes,
// sorted by name) in the compiled set's slot order followed by the
// domain-only names, so the first len(check.Slots()) values a pair
// binds are the programs' binding.
func (m *bPathMeta) buildModelCheck(pb *PathContract, classes []bSym) {
	m.check = symb.CompileSet(pb.Constraints...)
	slots := m.check.Slots()
	m.vars = make([]bVar, 0, len(classes))
	for _, s := range slots {
		m.vars = append(m.vars, bVar{bSym: classOf(classes, s)})
	}
	for _, c := range classes {
		if !slices.Contains(slots, c.name) {
			m.vars = append(m.vars, bVar{bSym: c})
		}
	}
	for i := range m.vars {
		m.vars[i].wit, m.vars[i].hasWit = pb.Witness[m.vars[i].name]
	}
}

// totalModel returns m made total over pa's constraint symbols and
// domain names — a name m lacks takes its domain's low end, or 0 — or
// nil when m is nil or the result violates a constraint or a domain of
// pa. m itself is never written.
func totalModel(pa *PathContract, m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out, cloned := m, false
	fill := func(name string) {
		if _, ok := out[name]; ok {
			return
		}
		if !cloned {
			out, cloned = maps.Clone(m), true
		}
		out[name] = pa.Domains[name].Lo
	}
	for name := range pa.Domains {
		fill(name)
	}
	for _, s := range symb.Symbols(pa.Constraints...) {
		fill(s)
	}
	for name, d := range pa.Domains {
		if v := out[name]; v < d.Lo || v > d.Hi {
			return nil
		}
	}
	if !symb.CheckModel(pa.Constraints, out) {
		return nil
	}
	return out
}

// proved reports whether the prefix's model, extended by b's witness,
// satisfies the pair's merged query. It checks b's suffix and the
// touched domains only (a's side was checked once, in prefix) and
// leaves the bindings it added in jp.ext, valid until the next call.
// It allocates nothing once the prefix's scratch has grown.
func (jp *joinPrefix) proved(q *pairQuery, rawA *nfir.Path, bm *bPathMeta) bool {
	if jp.model == nil {
		return false
	}
	jp.ext, jp.vals = jp.ext[:0], jp.vals[:0]
	for i := range bm.vars {
		v, ok := jp.bValue(&bm.vars[i], rawA)
		if !ok {
			return false
		}
		jp.vals = append(jp.vals, v)
	}
	if n := bm.check.StackSize(); len(jp.stack) < n {
		jp.stack = make([]uint64, n)
	}
	for i := 0; i < bm.check.NumPrograms(); i++ {
		if bm.check.EvalOn(i, jp.vals, jp.stack) == 0 {
			return false
		}
	}
	for _, name := range q.touched {
		v, ok := jp.lookup(name)
		if d := q.domains[name]; !ok || v < d.Lo || v > d.Hi {
			return false
		}
	}
	return true
}

// bValue is the value the merged query gives b's symbol v: a's written
// expression where bSym.merged maps v to one, otherwise the value of the
// name v merges onto — a's model's where it has one, else b's
// witness's, which the first b symbol merging onto that name adds to
// jp.ext.
func (jp *joinPrefix) bValue(v *bVar, rawA *nfir.Path) (uint64, bool) {
	name, w, _ := v.merged(rawA)
	if name == "" {
		if !boundIn(w, jp.model) {
			return 0, false
		}
		return w.Eval(jp.model), true
	}
	if x, ok := jp.lookup(name); ok {
		return x, true
	}
	if !v.hasWit {
		return 0, false
	}
	jp.ext = append(jp.ext, modelEntry{name: name, v: v.wit})
	return v.wit, true
}

// lookup reads a name of the pair model: a's model, then jp.ext.
func (jp *joinPrefix) lookup(name string) (uint64, bool) {
	if x, ok := jp.model[name]; ok {
		return x, true
	}
	for _, e := range jp.ext {
		if e.name == name {
			return e.v, true
		}
	}
	return 0, false
}

// pairModel is the model proved's last success used, as a map of its
// own: a's model plus the bindings the pair added.
func (jp *joinPrefix) pairModel() map[string]uint64 {
	m := make(map[string]uint64, len(jp.model)+len(jp.ext))
	maps.Copy(m, jp.model)
	for _, e := range jp.ext {
		m[e.name] = e.v
	}
	return m
}

// boundIn reports whether m binds every symbol of e.
func boundIn(e symb.Expr, m map[string]uint64) bool {
	switch x := e.(type) {
	case symb.Sym:
		_, ok := m[x.Name]
		return ok
	case symb.Bin:
		return boundIn(x.L, m) && boundIn(x.R, m)
	case symb.Not:
		return boundIn(x.X, m)
	}
	return true
}
