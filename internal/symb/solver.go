package symb

import (
	"cmp"
	"context"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
)

// Domain is an inclusive value range for a symbol. The zero Domain is the
// single value 0; Full is the unconstrained 64-bit domain.
type Domain struct{ Lo, Hi uint64 }

// Full is the unconstrained domain.
var Full = Domain{Lo: 0, Hi: ^uint64(0)}

// Byte, Word, DWord and QWord are the domains of the common packet-field
// widths.
var (
	Byte  = Domain{0, 0xff}
	Word  = Domain{0, 0xffff}
	DWord = Domain{0, 0xffffffff}
	QWord = Full
)

func (d Domain) contains(v uint64) bool { return v >= d.Lo && v <= d.Hi }

func (d Domain) intersect(o Domain) (Domain, bool) {
	if o.Lo > d.Lo {
		d.Lo = o.Lo
	}
	if o.Hi < d.Hi {
		d.Hi = o.Hi
	}
	return d, d.Lo <= d.Hi
}

// Result classifies a solver verdict.
type Result int

const (
	// Unsat: the constraints are proved unsatisfiable.
	Unsat Result = iota
	// Sat: a witness was found.
	Sat
	// Unknown: the bounded search found no witness but could not prove
	// unsatisfiability. Callers treat Unknown paths as feasible
	// (conservative for contract soundness) but cannot replay them.
	Unknown
)

// String names the verdict.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Solver finds witnesses for conjunctions of constraints. The zero value
// is ready to use with default limits.
type Solver struct {
	// MaxNodes bounds the backtracking search; 0 means DefaultMaxNodes.
	MaxNodes int
	// Samples is the number of pseudo-random candidate values tried per
	// symbol beyond the structurally derived ones; 0 means DefaultSamples.
	Samples int
	// Reference switches Solve to the pre-incremental tree-walking
	// implementation (reference.go): same verdicts and witnesses, no
	// compilation, no state reuse. It is the baseline of the solver
	// ablation (experiments.SolverBench) and the oracle for differential
	// tests; production code leaves it false.
	Reference bool
}

// DefaultMaxNodes and DefaultSamples are the default search limits.
const (
	DefaultMaxNodes = 200000
	DefaultSamples  = 48
)

func (s *Solver) maxNodes() int {
	if s.MaxNodes == 0 {
		return DefaultMaxNodes
	}
	return s.MaxNodes
}

func (s *Solver) sampleCount() int {
	if s.Samples == 0 {
		return DefaultSamples
	}
	return s.Samples
}

// Solve searches for an assignment satisfying every constraint (each must
// evaluate non-zero). domains bounds symbols (missing symbols get Full).
// On Sat the returned model binds every symbol appearing in constraints
// and every symbol listed in domains.
func (s *Solver) Solve(constraints []Expr, domains map[string]Domain) (map[string]uint64, Result) {
	return s.SolveContext(context.Background(), constraints, domains)
}

// SolveContext is Solve with cancellation: the backtracking search polls
// ctx periodically and returns Unknown once it is cancelled (Unknown is
// the sound verdict for an interrupted search — the constraints were
// neither satisfied nor refuted). Callers that need to distinguish
// cancellation from an ordinary budget exhaustion check ctx.Err().
func (s *Solver) SolveContext(ctx context.Context, constraints []Expr, domains map[string]Domain) (map[string]uint64, Result) {
	return s.solve(ctx, constraints, domains, true)
}

func (s *Solver) solve(ctx context.Context, constraints []Expr, domains map[string]Domain, withModel bool) (map[string]uint64, Result) {
	if ctx.Err() != nil {
		return nil, Unknown
	}
	if s.Reference {
		return referenceSolve(constraints, domains, s.maxNodes(), s.sampleCount())
	}
	p := prepare(constraints, domains)
	model, res, _ := solvePrepared(ctx, p, s.maxNodes(), s.sampleCount(), withModel)
	return model, res
}

// Feasible reports whether the constraints might be satisfiable (Sat or
// Unknown). Symbolic execution uses it to prune provably dead paths while
// keeping uncertain ones, which is the conservative direction.
func (s *Solver) Feasible(constraints []Expr, domains map[string]Domain) bool {
	return s.FeasibleContext(context.Background(), constraints, domains)
}

// FeasibleContext is Feasible with cancellation; a cancelled check
// reports feasible (the conservative direction), so exploration keeps the
// path and the caller notices the cancellation via ctx.Err().
func (s *Solver) FeasibleContext(ctx context.Context, constraints []Expr, domains map[string]Domain) bool {
	_, r := s.solve(ctx, constraints, domains, false)
	return r != Unsat
}

// CheckModel reports whether the binding satisfies every constraint.
func CheckModel(constraints []Expr, model map[string]uint64) bool {
	for _, c := range constraints {
		if c.Eval(model) == 0 {
			return false
		}
	}
	return true
}

// solveStats reports how a search ended, for memoization: nodes is the
// node count consumed, truncated whether the node budget (or a
// cancellation) cut the search short — a truncated verdict proves
// nothing and must never be upgraded to Unsat.
type solveStats struct {
	nodes     int
	truncated bool
}

// solvePrepared runs the backtracking search over a prepared state.
// The result is a pure function of (prepared state, maxNodes, samples):
// variable order, candidate sets and node accounting are deterministic,
// which is what makes both memoization and incremental reuse sound.
// withModel asks for the Sat witness; feasibility checks leave it off
// and get a nil model with the same verdict.
func solvePrepared(ctx context.Context, p *prepared, maxNodes, samples int, withModel bool) (map[string]uint64, Result, solveStats) {
	if p.unsat {
		return nil, Unsat, solveStats{}
	}
	sc := scratchPool.Get().(*scratch)
	defer func() {
		sc.release()
		scratchPool.Put(sc)
	}()
	sc.init(p, samples)
	sc.ctx = ctx
	sc.maxNodes = maxNodes
	if sc.search(0) {
		if !withModel {
			return nil, Sat, solveStats{nodes: sc.nodes}
		}
		// Extend the model to the original (pre-substitution) symbols.
		model := make(map[string]uint64, p.nNames)
		p.nameSet.each(func(n string) {
			s, _ := p.symtab.get(p.find(n))
			model[n] = sc.vals[s]
		})
		return model, Sat, solveStats{nodes: sc.nodes}
	}
	if sc.exhausted && sc.complete && !sc.truncated {
		// Every candidate list covered its whole domain and the search
		// ran to completion, so exhaustion is a proof of UNSAT. A
		// node-budget cutoff (truncated) proves nothing — reporting
		// Unsat then could prune feasible paths, which would be unsound.
		return nil, Unsat, solveStats{nodes: sc.nodes}
	}
	return nil, Unknown, solveStats{nodes: sc.nodes, truncated: sc.truncated}
}

// scratch is the reusable search workspace: variable order, per-variable
// candidate lists, per-depth constraint watch lists, and the slot-indexed
// assignment vector. Pooled so steady-state solving allocates nothing
// beyond the Sat model itself.
//
// Candidate lists are built lazily: a position's list is built the first
// time the search has to go past its first candidate, which is the
// domain's low end whenever that is not excluded (every candidate lies
// in the domain, so the sorted list starts there). Most positions of a
// satisfiable set never go past it. The candidates are tried in the same
// order either way, so node counts, verdicts and witnesses are those of
// building every list up front; an Unsat proof builds the rest first.
type scratch struct {
	p       *prepared
	ctx     context.Context
	samples int
	order   []int32     // search position -> slot
	pos     []int32     // slot -> search position
	cands   [][]uint64  // search position -> sorted candidate values, once built
	built   []bool      // search position -> cands is built
	watch   [][]*conRec // search position -> constraints fully bound there
	vals    []uint64    // slot -> assigned value
	stack   []uint64    // shared evaluation stack

	maxNodes  int
	nodes     int
	exhausted bool
	complete  bool
	truncated bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// init rebuilds the workspace for one solve of p, reusing prior
// capacity. The variable order is the legacy one — narrow domains first
// to fail fast, names breaking ties for determinism.
func (sc *scratch) init(p *prepared, samples int) {
	n := len(p.slots)
	sc.p = p
	sc.samples = samples
	sc.nodes = 0
	sc.exhausted = false
	sc.complete = false
	sc.truncated = false
	sc.order = resizeI32(sc.order, n)
	sc.pos = resizeI32(sc.pos, n)
	sc.vals = resizeU64(sc.vals, n)
	if cap(sc.stack) < p.maxStack {
		sc.stack = make([]uint64, p.maxStack)
	} else {
		sc.stack = sc.stack[:p.maxStack]
	}
	for i := range sc.order {
		sc.order[i] = int32(i)
	}
	slices.SortFunc(sc.order, func(a, b int32) int {
		wa := p.dom[a].Hi - p.dom[a].Lo
		wb := p.dom[b].Hi - p.dom[b].Lo
		if wa != wb {
			return cmp.Compare(wa, wb)
		}
		return strings.Compare(p.slots[a].name, p.slots[b].name)
	})
	for i, s := range sc.order {
		sc.pos[s] = int32(i)
	}

	// Candidate lists keep each position's backing array; none is built.
	if cap(sc.cands) < n {
		sc.cands = append(sc.cands[:cap(sc.cands)], make([][]uint64, n-cap(sc.cands))...)
	}
	sc.cands = sc.cands[:n]
	if cap(sc.built) < n {
		sc.built = make([]bool, n)
	}
	sc.built = sc.built[:n]
	clear(sc.built)

	// Watch lists: each constraint is checked exactly when the last of
	// its symbols (deepest search position) gets a value — the same
	// schedule the legacy per-node "all assigned and uses current var"
	// scan produced, computed once instead of per node.
	if cap(sc.watch) < n {
		sc.watch = append(sc.watch[:cap(sc.watch)], make([][]*conRec, n-cap(sc.watch))...)
	}
	sc.watch = sc.watch[:n]
	for i := range sc.watch {
		sc.watch[i] = sc.watch[i][:0]
	}
	p.cons.each(func(_ int32, r *conRec) {
		w := int32(0)
		for _, s := range r.slots {
			if sc.pos[s] > w {
				w = sc.pos[s]
			}
		}
		sc.watch[w] = append(sc.watch[w], r)
	})
}

// release drops every reference into the solved state, so the pooled
// workspace pins none of it.
func (sc *scratch) release() {
	for i := range sc.watch {
		clear(sc.watch[i])
	}
	sc.p, sc.ctx = nil, nil
}

// build builds position i's candidate list.
func (sc *scratch) build(i int) []uint64 {
	sc.cands[i] = sc.buildCandidates(sc.order[i], sc.cands[i][:0])
	sc.built[i] = true
	return sc.cands[i]
}

// buildCandidates assembles the concrete values the search tries for one
// slot: domain endpoints and midpoint, constants mentioned alongside the
// symbol (and their neighbours), full enumeration for small domains, and
// deterministic pseudo-random samples (process-cached raw streams) for
// large ones, minus excluded values. Sorted ascending and deduplicated;
// identical to the legacy candidate sets.
func (sc *scratch) buildCandidates(s int32, out []uint64) []uint64 {
	p := sc.p
	d := p.dom[s]
	add := func(v uint64) {
		if d.contains(v) {
			out = append(out, v)
		}
	}
	add(d.Lo)
	add(d.Hi)
	add(d.Lo + (d.Hi-d.Lo)/2)
	for _, ci := range p.slots[s].cons {
		for _, v := range p.cons.at(ci).an.prog.consts {
			add(v)
			if v > 0 {
				add(v - 1)
			}
			if v < ^uint64(0) {
				add(v + 1)
			}
		}
	}
	// Small domains: enumerate fully so exhaustion implies UNSAT.
	if width := d.Hi - d.Lo; width < 512 {
		for v := d.Lo; ; v++ {
			out = append(out, v)
			if v == d.Hi {
				break
			}
		}
	} else {
		for _, raw := range rawSamples(p.slots[s].name, sc.samples) {
			if width == ^uint64(0) { // full domain: width+1 overflows
				add(raw)
			} else {
				add(d.Lo + raw%(width+1))
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if excl := p.slots[s].excl; len(excl) > 0 {
		kept := out[:0]
		for _, v := range out {
			for len(excl) > 0 && excl[0] < v {
				excl = excl[1:]
			}
			if len(excl) == 0 || excl[0] != v {
				kept = append(kept, v)
			}
		}
		out = kept
	}
	return out
}

// ctxPollInterval is how many search nodes pass between context checks;
// a power of two keeps the check a cheap mask.
const ctxPollInterval = 1024

func (sc *scratch) search(i int) bool {
	if sc.nodes >= sc.maxNodes {
		sc.truncated = true
		return false
	}
	if sc.ctx != nil && sc.nodes&(ctxPollInterval-1) == 0 && sc.ctx.Err() != nil {
		sc.truncated = true // cancelled: result must be Unknown, not Unsat
		return false
	}
	sc.nodes++
	if i == len(sc.order) {
		// Every constraint was already checked at the depth where its
		// last symbol was bound, so reaching a leaf is a witness.
		return true
	}
	s := sc.order[i]
	cands := sc.cands[i]
	if !sc.built[i] {
		// The list's first element is the domain's low end unless that
		// is excluded: try it before paying for the list.
		lo := sc.p.dom[s].Lo
		tried := !sc.p.isExcluded(s, lo)
		if tried {
			sc.vals[s] = lo
			if sc.watchOK(i) && sc.search(i+1) {
				return true
			}
			if sc.truncated {
				return false
			}
		}
		cands = sc.build(i)
		if tried {
			cands = cands[1:]
		}
	}
	for _, cand := range cands {
		sc.vals[s] = cand
		if sc.watchOK(i) && sc.search(i+1) {
			return true
		}
		// Past the budget (or a cancellation) every further call
		// returns false at once without counting a node: stop here.
		if sc.truncated {
			return false
		}
	}
	if i == 0 {
		sc.exhausted = true
		sc.complete = sc.allCandidatesComplete()
	}
	return false
}

// watchOK evaluates the compiled constraints whose deepest symbol is the
// i-th search variable; shallower slots are already bound and deeper
// slots are never referenced by these constraints.
func (sc *scratch) watchOK(i int) bool {
	for _, r := range sc.watch[i] {
		if evalProgram(&r.an.prog, r.slots, sc.vals, sc.stack) == 0 {
			return false
		}
	}
	return true
}

// allCandidatesComplete reports whether every variable's candidate list
// covers its entire domain, in which case exhaustion proves UNSAT. It
// builds the lists the search never needed.
func (sc *scratch) allCandidatesComplete() bool {
	for i, s := range sc.order {
		d := sc.p.dom[s]
		width := d.Hi - d.Lo
		if width+1 == 0 { // full 64-bit domain
			return false
		}
		if !sc.built[i] {
			sc.build(i)
		}
		if uint64(len(sc.cands[i])) < width+1 {
			return false
		}
	}
	return true
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func hashName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func sameKind(l, r Expr) bool {
	_, ok1 := l.(Sym)
	_, ok2 := r.(Sym)
	return ok1 && ok2
}
