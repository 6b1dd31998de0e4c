package symb

import (
	"context"
	"maps"
	"sync"
)

// Incremental is a solver engine shared by one exploration (or any other
// unit of related solving work). It owns the feasibility memo: a table
// keyed by the canonical digest of (constraint set, propagated domains,
// sample count), so repeated checks of an identical set — common when
// sibling branches reconverge — are O(1) hits. Sessions created from the
// engine carry incrementally maintained solver state across branch
// forks, so each fork pays only for its newly added constraint.
//
// Safe for concurrent use: pipeline workers solving different sessions
// share the memo under a mutex. Individual Sessions are NOT concurrency-
// safe; fork before handing one to another goroutine.
type Incremental struct {
	mu     sync.Mutex
	memo   map[memoKey]*memoEntry
	hits   int
	misses int
}

// NewIncremental returns an engine with an empty memo.
func NewIncremental() *Incremental {
	return &Incremental{memo: make(map[memoKey]*memoEntry)}
}

// memoKey canonically identifies a feasibility query. The two digest
// lanes summarize the constraint set, the propagated domains and the
// names a model binds (order-independently); nc/ns guard against
// coincidental sums, and samples is part of the key because candidate
// sets — and hence verdicts — depend on it.
type memoKey struct {
	a, b    uint64
	nc, ns  int32
	samples int32
}

// memoEntry records one completed solve; model is nil unless the solve
// was asked for a witness (SolveContext). Soundness discipline:
//   - truncated entries (budget ran out) prove nothing; they may only be
//     reused as Unknown, and only for queries whose budget is <= the
//     recorded one (the search is deterministic, so a smaller budget
//     explores a prefix of the same node sequence and also truncates).
//   - non-truncated entries replay exactly for any budget >= nodes.
//   - cancelled solves are never stored at all (the caller checks
//     ctx.Err() before storing), so a cancellation can never masquerade
//     as Unsat.
type memoEntry struct {
	res       Result
	model     map[string]uint64
	nodes     int
	budget    int
	truncated bool
}

// MemoStats reports memo-table effectiveness counters.
type MemoStats struct {
	Hits, Misses, Entries int
}

// Stats returns a snapshot of the memo counters.
func (in *Incremental) Stats() MemoStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return MemoStats{Hits: in.hits, Misses: in.misses, Entries: len(in.memo)}
}

// lookup replays a recorded solve. withModel callers need a Sat entry's
// witness: one recorded by a feasibility check has none, so for them it
// is a miss and they solve again (the search is deterministic, so the
// witness is the one a first solve would have found).
func (in *Incremental) lookup(key memoKey, budget int, withModel bool) (map[string]uint64, Result, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	e, ok := in.memo[key]
	if ok {
		if e.truncated {
			if budget <= e.budget {
				in.hits++
				return nil, Unknown, true
			}
		} else if e.nodes <= budget && !(withModel && e.res == Sat && e.model == nil) {
			in.hits++
			if !withModel {
				return nil, e.res, true
			}
			return maps.Clone(e.model), e.res, true
		}
	}
	in.misses++
	return nil, Unknown, false
}

func (in *Incremental) store(key memoKey, model map[string]uint64, res Result, st solveStats, budget int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if old, ok := in.memo[key]; ok {
		// Keep the more informative entry: a completed search beats a
		// truncated one, a witness beats none; among truncated entries,
		// the larger budget serves more future queries.
		if !old.truncated && (old.model != nil || model == nil) {
			return
		}
		if old.truncated && st.truncated && budget <= old.budget {
			return
		}
	}
	in.memo[key] = &memoEntry{
		res:       res,
		model:     maps.Clone(model),
		nodes:     st.nodes,
		budget:    budget,
		truncated: st.truncated,
	}
}

// Session is incrementally maintained solver state: the flattened
// constraint set, union-find, compiled programs and propagated domains
// of one exploration path. Fork it at a branch, Assert the branch
// condition on the child, and each feasibility query costs only the
// propagation of what changed (plus the search, which the memo
// frequently elides).
type Session struct {
	eng  *Incremental
	prep *prepared
}

// NewSession starts an empty session on the engine.
func (in *Incremental) NewSession() *Session {
	return &Session{eng: in, prep: newPrepared()}
}

// Fork returns an independent child of the session. The two share
// everything the session holds at the fork, frozen; each then adds to
// layers of its own, so neither sees the other's later asserts and the
// cost is linear in the number of symbols, not of constraints. Fork
// writes to the parent (it freezes its current layer), so a session
// must not be forked concurrently with any other use. Fork of a nil
// session is nil, so state clones outside an engine-backed exploration
// stay session-free.
func (s *Session) Fork() *Session {
	if s == nil {
		return nil
	}
	return &Session{eng: s.eng, prep: s.prep.fork()}
}

// Assert adds a constraint (conjunctions are flattened) and propagates
// its consequences through the domains. Assert on a nil session is a
// no-op, so exploration code can run session-free (the NoIncremental
// ablation) without guarding every call.
func (s *Session) Assert(c Expr) {
	if s == nil {
		return
	}
	s.prep.assert(c)
}

// AssertAll asserts each constraint of the slice in order — the batch
// form callers use to seed a session from an existing constraint set
// (chain composition prepares one session per upstream path this way).
// No-op on a nil session, like Assert.
func (s *Session) AssertAll(cs []Expr) {
	if s == nil {
		return
	}
	for _, c := range cs {
		s.prep.assert(c)
	}
}

// Conjunct is a constraint analysed once for assertion into any number
// of sessions: flattened, and each part's symbols, constants, structural
// digest and compiled program worked out over the part's own symbol
// numbering. Session.AssertConjunct then only binds symbols to slots and
// propagates. Chain composition analyses each downstream path's
// conjuncts once per fold and asserts them into every pair's fork.
type Conjunct struct {
	falsified bool // flattening found a constant-false part
	parts     []conjPart
}

// conjPart is one flattened part of a Conjunct.
type conjPart struct {
	e Expr
	// syms is Symbols(e): every one becomes a search variable.
	syms []string
	// symEq marks a symbol-symbol equality, which may merge union-find
	// classes and is always asserted through the plain path.
	symEq bool
	// plain analyses e as it stands (sessions without a union); folded
	// analyses its Substitute-folded image, which is what a session with
	// a union inserts when none of syms was renamed.
	plain, folded *analysis
}

// Analyse pre-analyses c for AssertConjunct.
func Analyse(c Expr) *Conjunct {
	out := &Conjunct{}
	var flat []Expr
	if !flattenInto(c, &flat) {
		out.falsified = true
		return out
	}
	out.parts = make([]conjPart, len(flat))
	for i, e := range flat {
		pt := conjPart{e: e}
		if b, ok := e.(Bin); ok && b.Op == Eq && sameKind(b.L, b.R) {
			pt.symEq = true
		} else {
			pt.syms = Symbols(e)
			pt.plain = analyse(e)
			pt.folded = pt.plain
			if f := Substitute(e, nil); f != e {
				pt.folded = analyse(f)
			}
		}
		out.parts[i] = pt
	}
	return out
}

// AssertConjunct asserts the constraint c was analysed from without
// analysing it again: the session reaches the state, verdicts and
// witnesses Assert would. No-op on a nil session, like Assert.
func (s *Session) AssertConjunct(c *Conjunct) {
	if s == nil {
		return
	}
	s.prep.assertConjunct(c)
}

// SetDomain bounds a symbol, intersecting with any bound already
// present. No-op on a nil session, like Assert.
func (s *Session) SetDomain(name string, d Domain) {
	if s == nil {
		return
	}
	s.prep.setDomain(name, d)
}

// NamedDomain is one symbol's bound, for SetDomains.
type NamedDomain struct {
	Name   string
	Domain Domain
}

// SetDomains intersects every binding like SetDomain, in the order
// given (callers sort by name, so slot numbering is deterministic), then
// propagates once, seeded by every slot that narrowed — the same
// fixpoint as one SetDomain per name (domain propagation is confluent)
// at the cost of one worklist pass. No-op on a nil session.
func (s *Session) SetDomains(ds []NamedDomain) {
	if s == nil || len(ds) == 0 {
		return
	}
	s.prep.setDomainList(ds)
}

// Known reports a verdict derivable without searching: Unsat when
// flattening or propagation already refuted the set. (Sat is never
// claimed without a search.)
func (s *Session) Known() (Result, bool) {
	if s.prep.unsat {
		return Unsat, true
	}
	return Unknown, false
}

// SolveContext searches for a witness of the session's constraint set
// under sv's budget, consulting and feeding the engine's memo. Verdicts
// are identical to a fresh Solver.SolveContext over the same
// constraints and domains.
func (s *Session) SolveContext(ctx context.Context, sv *Solver) (map[string]uint64, Result) {
	return s.solve(ctx, sv, true)
}

// FeasibleContext reports whether the session's constraints might be
// satisfiable (Sat or Unknown), mirroring Solver.FeasibleContext. It
// builds no witness.
func (s *Session) FeasibleContext(ctx context.Context, sv *Solver) bool {
	_, r := s.solve(ctx, sv, false)
	return r != Unsat
}

func (s *Session) solve(ctx context.Context, sv *Solver, withModel bool) (map[string]uint64, Result) {
	if ctx.Err() != nil {
		return nil, Unknown
	}
	if s.prep.unsat {
		return nil, Unsat
	}
	budget, samples := sv.maxNodes(), sv.sampleCount()
	key := s.prep.memoKey(samples)
	if model, res, ok := s.eng.lookup(key, budget, withModel); ok {
		return model, res
	}
	model, res, st := solvePrepared(ctx, s.prep, budget, samples, withModel)
	if ctx.Err() == nil {
		s.eng.store(key, model, res, st, budget)
	}
	return model, res
}
