package nfir

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gobolt/internal/expr"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// fieldKey identifies a packet field by concrete offset and width.
type fieldKey struct {
	off  uint64
	size int
}

// FieldSymName is the canonical symbol name for the packet field at a
// concrete offset ("pkt_12_2" is the 16-bit field at offset 12).
func FieldSymName(off uint64, size int) string {
	return "pkt_" + strconv.FormatUint(off, 10) + "_" + strconv.Itoa(size)
}

// ParseFieldSym decodes a canonical packet-field symbol name; ok is false
// for other symbols.
func ParseFieldSym(name string) (off uint64, size int, ok bool) {
	if !strings.HasPrefix(name, "pkt_") {
		return 0, 0, false
	}
	offStr, sizeStr, found := strings.Cut(name[4:], "_")
	if !found || strings.Contains(sizeStr, "_") {
		return 0, 0, false
	}
	o, err1 := strconv.ParseUint(offStr, 10, 64)
	s, err2 := strconv.Atoi(sizeStr)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return o, s, true
}

// Well-known input symbol names.
const (
	SymInPort = "in_port"
	SymNow    = "now"
	SymPktLen = "pkt_len"
)

// SymAccess is one stateless memory access recorded along a symbolic
// path; the conservative cycle model classifies it L1-hit or DRAM.
// Accesses whose address is symbolic are Known=false and always charged
// as DRAM.
type SymAccess struct {
	Known bool
	Addr  uint64
	Size  uint8
	Store bool
}

// Path is one feasible execution path through the stateless NF code: its
// input-class constraints, the stateful calls it makes (with chosen
// outcomes), its stateless cost, and its terminal action (paper §3.3).
type Path struct {
	ID          int
	Constraints []symb.Expr
	Domains     map[string]symb.Domain
	Events      []CallEvent
	Action      ActionKind
	// Port is the (possibly symbolic) output port when Action is forward.
	Port symb.Expr
	// StatelessIC/StatelessMA is the cost of the stateless code alone.
	StatelessIC uint64
	StatelessMA uint64
	// Ops tallies stateless instructions by class for the cycle model.
	Ops map[perf.OpClass]uint64
	// Accesses lists stateless memory accesses in program order.
	Accesses []SymAccess
	// PCVRanges unions the PCVs introduced by the path's call events.
	PCVRanges map[string]expr.Range
	// PktWrites maps packet fields rewritten by the NF to their symbolic
	// values (chain composition connects these to the next NF's inputs).
	PktWrites map[uint64]PktWrite
	// Session is the incremental solver state accumulated while exploring
	// this path (constraints flattened, compiled and propagated). Witness
	// solving reuses it instead of re-preparing Constraints/Domains from
	// scratch; it is nil for paths built outside exploration.
	Session *symb.Session
}

// PktWrite is one rewritten packet field.
type PktWrite struct {
	Size int
	Val  symb.Expr
}

// Engine symbolically executes a Program with stateful calls replaced by
// models, enumerating all feasible paths (Algorithm 2, lines 2–3).
type Engine struct {
	// Models maps data-structure names to their symbolic models.
	Models map[string]Model
	// maxPaths aborts runaway exploration; 0 means DefaultMaxPaths.
	// Only tests lower it.
	maxPaths int

	freshCtr int
	paths    []*Path
	ctx      context.Context
}

// PruneMaxNodes and PruneSamples are the search budget of pruneSolver.
// They are deliberately small: pruning only needs to refute obviously
// dead branches, and Unknown keeps the branch anyway.
const (
	PruneMaxNodes = 4000
	PruneSamples  = 8
)

// pruneSolver prunes dead branches during exploration. Unknown verdicts
// keep the path (conservative). Solvers are stateless between calls, so
// every Engine shares it.
var pruneSolver = &symb.Solver{MaxNodes: PruneMaxNodes, Samples: PruneSamples}

// DefaultMaxPaths bounds exploration; the paper reports NFs with several
// hundred to a few thousand paths.
const DefaultMaxPaths = 50000

type symState struct {
	locals      map[string]symb.Expr
	fields      map[fieldKey]symb.Expr
	writes      map[uint64]PktWrite
	constraints []symb.Expr
	domains     map[string]symb.Domain
	events      []CallEvent
	ic, ma      uint64
	ops         map[perf.OpClass]uint64
	accesses    []SymAccess
	pcvs        map[string]expr.Range
	// sess mirrors constraints+domains as incrementally maintained solver
	// state, so each feasibility check costs only the newly added
	// constraint instead of re-preparing the whole set.
	sess *symb.Session
}

// addConstraint appends a path constraint, keeping the solver session in
// sync with the constraints slice.
func (st *symState) addConstraint(c symb.Expr) {
	st.constraints = append(st.constraints, c)
	st.sess.Assert(c)
}

// setDomain bounds a symbol, keeping the solver session in sync. Every
// domain is introduced exactly once (packet fields are guarded by
// st.fields, fresh symbols are globally unique), so the session's
// intersect semantics coincide with the map write.
func (st *symState) setDomain(name string, d symb.Domain) {
	st.domains[name] = d
	st.sess.SetDomain(name, d)
}

func (st *symState) clone() *symState {
	cp := &symState{
		locals:      make(map[string]symb.Expr, len(st.locals)),
		fields:      make(map[fieldKey]symb.Expr, len(st.fields)),
		writes:      make(map[uint64]PktWrite, len(st.writes)),
		constraints: append([]symb.Expr(nil), st.constraints...),
		domains:     make(map[string]symb.Domain, len(st.domains)),
		events:      append([]CallEvent(nil), st.events...),
		ic:          st.ic,
		ma:          st.ma,
		ops:         make(map[perf.OpClass]uint64, len(st.ops)),
		accesses:    append([]SymAccess(nil), st.accesses...),
		pcvs:        make(map[string]expr.Range, len(st.pcvs)),
		sess:        st.sess.Fork(),
	}
	for k, v := range st.locals {
		cp.locals[k] = v
	}
	for k, v := range st.fields {
		cp.fields[k] = v
	}
	for k, v := range st.writes {
		cp.writes[k] = v
	}
	for k, v := range st.domains {
		cp.domains[k] = v
	}
	for k, v := range st.ops {
		cp.ops[k] = v
	}
	for k, v := range st.pcvs {
		cp.pcvs[k] = v
	}
	return cp
}

func (st *symState) exec(class perf.OpClass, n uint64) {
	st.ic += n
	st.ops[class] += n
}

// Explore runs the symbolic execution and returns all feasible paths.
func (en *Engine) Explore(p *Program) ([]*Path, error) {
	return en.ExploreContext(context.Background(), p)
}

// ExploreContext is Explore with cancellation: every path fork checks the
// context, so a runaway exploration stops promptly with a wrapped
// context error that reports how many paths had been completed.
func (en *Engine) ExploreContext(ctx context.Context, p *Program) ([]*Path, error) {
	en.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nfir: exploring %s: %w", p.Name, err)
	}
	if en.maxPaths == 0 {
		en.maxPaths = DefaultMaxPaths
	}
	en.paths = nil
	st := &symState{
		locals:  make(map[string]symb.Expr),
		fields:  make(map[fieldKey]symb.Expr),
		writes:  make(map[uint64]PktWrite),
		domains: make(map[string]symb.Domain),
		ops:     make(map[perf.OpClass]uint64),
		pcvs:    make(map[string]expr.Range),
		sess:    symb.NewIncremental().NewSession(),
	}
	st.setDomain(SymPktLen, symb.Domain{Lo: 0, Hi: MaxPacket})
	if p.NumPorts > 0 {
		st.setDomain(SymInPort, symb.Domain{Lo: 0, Hi: p.NumPorts - 1})
	}
	err := en.run(st, p.body, func(*symState) error {
		return fmt.Errorf("nfir: %s: path fell off the end without Forward/Drop", p.Name)
	})
	if err != nil {
		return nil, fmt.Errorf("nfir: exploring %s: %w", p.Name, err)
	}
	return en.paths, nil
}

type contFn func(*symState) error

func (en *Engine) run(st *symState, stmts []Stmt, k contFn) error {
	if len(stmts) == 0 {
		return k(st)
	}
	s, rest := stmts[0], stmts[1:]
	next := func(st *symState) error { return en.run(st, rest, k) }

	switch x := s.(type) {
	case Assign:
		v := en.evalSym(st, x.E)
		st.locals[x.Dst] = v
		return next(st)

	case If:
		cond := en.evalCondSym(st, x.Cond)
		return en.fork(st, cond,
			func(st *symState) error { return en.run(st, x.Then, next) },
			func(st *symState) error { return en.run(st, x.Else, next) })

	case While:
		maxIter := x.MaxIter
		if maxIter <= 0 {
			maxIter = 64
		}
		var iterate func(st *symState, iter int) error
		iterate = func(st *symState, iter int) error {
			cond := en.evalCondSym(st, x.Cond)
			if iter >= maxIter {
				// The loop bound is part of the analysis contract: a
				// still-feasible continuation means the NF violated the
				// bounded-loop discipline.
				if c, ok := cond.(symb.Const); ok && c.V == 0 {
					return next(st)
				}
				probe := st.sess.Fork()
				probe.Assert(cond)
				if probe.FeasibleContext(en.ctx, pruneSolver) {
					return fmt.Errorf("while loop feasible beyond MaxIter=%d", maxIter)
				}
				return next(st)
			}
			return en.fork(st, cond,
				func(st *symState) error {
					return en.run(st, x.Body, func(st *symState) error { return iterate(st, iter+1) })
				},
				next)
		}
		return iterate(st, 0)

	case Call:
		args := make([]symb.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = en.evalSym(st, a)
		}
		model, ok := en.Models[x.DS]
		if !ok {
			return fmt.Errorf("no model for data structure %q", x.DS)
		}
		outcomes := model.Outcomes(x.Method, args, en.fresh)
		if len(outcomes) == 0 {
			return fmt.Errorf("%s.%s: model returned no outcomes", x.DS, x.Method)
		}
		for i, out := range outcomes {
			branch := st
			if i < len(outcomes)-1 {
				branch = st.clone()
			}
			for _, c := range out.Constraints {
				branch.addConstraint(c)
			}
			for name, d := range out.Domains {
				branch.setDomain(name, d)
			}
			if len(out.Constraints) > 0 && !en.feasible(branch) {
				continue
			}
			if len(out.Results) < len(x.Dsts) {
				return fmt.Errorf("%s.%s: outcome %q has %d results, want ≥ %d",
					x.DS, x.Method, out.Label, len(out.Results), len(x.Dsts))
			}
			resultSyms := make([]string, len(out.Results))
			for ri, r := range out.Results {
				if sym, ok := r.(symb.Sym); ok {
					resultSyms[ri] = sym.Name
				}
			}
			branch.events = append(branch.events, CallEvent{
				DS: x.DS, Method: x.Method, Outcome: out, ResultSyms: resultSyms,
				Args: args,
			})
			for _, pcv := range out.PCVs {
				r, seen := branch.pcvs[pcv.Name]
				if !seen {
					branch.pcvs[pcv.Name] = pcv.Range
				} else {
					if pcv.Range.Lo < r.Lo {
						r.Lo = pcv.Range.Lo
					}
					if pcv.Range.Hi > r.Hi {
						r.Hi = pcv.Range.Hi
					}
					branch.pcvs[pcv.Name] = r
				}
			}
			for di, dst := range x.Dsts {
				branch.locals[dst] = out.Results[di]
			}
			if err := next(branch); err != nil {
				return err
			}
		}
		return nil

	case PktStore:
		offE := en.evalSym(st, x.Off)
		val := en.evalSym(st, x.Val)
		st.ic++
		st.ma++
		st.ops[perf.OpStore]++
		off, concrete := offE.(symb.Const)
		if !concrete {
			return fmt.Errorf("packet store at symbolic offset is not supported")
		}
		st.accesses = append(st.accesses, SymAccess{Known: true, Addr: pktBaseAddr + off.V, Size: uint8(x.Size), Store: true})
		val = truncStore(st, val, x.Size)
		st.fields[fieldKey{off.V, x.Size}] = val
		st.writes[off.V] = PktWrite{Size: x.Size, Val: val}
		return next(st)

	case MemStore:
		addrE := en.evalSym(st, x.Addr)
		en.evalSym(st, x.Val)
		st.ic++
		st.ma++
		st.ops[perf.OpStore]++
		if a, ok := addrE.(symb.Const); ok {
			st.accesses = append(st.accesses, SymAccess{Known: true, Addr: a.V, Size: uint8(x.Size), Store: true})
		} else {
			st.accesses = append(st.accesses, SymAccess{Known: false, Size: uint8(x.Size), Store: true})
		}
		// Heap contents are not tracked symbolically: a later MemLoad
		// yields a fresh symbol, which over-approximates.
		return next(st)

	case Forward:
		port := en.evalSym(st, x.Port)
		en.finish(st, ActionForward, port)
		return nil

	case DropStmt:
		en.finish(st, ActionDrop, nil)
		return nil

	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

// truncStore narrows a value to the width of the packet slot it is
// stored into, matching the concrete machine (a size-byte store keeps
// only the low size*8 bits). The expression is left untouched when it
// provably fits — a constant in range, or a symbol whose domain is
// within the store width — so the common matched-width stores keep
// their legacy constraint shape.
func truncStore(st *symState, val symb.Expr, size int) symb.Expr {
	if size >= 8 {
		return val
	}
	mask := uint64(1)<<(8*size) - 1
	switch v := val.(type) {
	case symb.Const:
		if v.V <= mask {
			return val
		}
		return symb.C(v.V & mask)
	case symb.Sym:
		if d, ok := st.domains[v.Name]; ok && d.Hi <= mask {
			return val
		}
	}
	return symb.B(symb.And, val, symb.C(mask))
}

// pktBaseAddr and txDescAddr mirror the concrete Env defaults so replayed
// traces and symbolic access lists agree.
const (
	pktBaseAddr = 0x10_0000
	txDescAddr  = 0x20_0000
)

// feasible reports whether st's constraint set might still be
// satisfiable, through the state's incremental session.
func (en *Engine) feasible(st *symState) bool {
	return st.sess.FeasibleContext(en.ctx, pruneSolver)
}

func (en *Engine) fork(st *symState, cond symb.Expr, thenK, elseK contFn) error {
	if c, ok := cond.(symb.Const); ok {
		if c.V != 0 {
			return thenK(st)
		}
		return elseK(st)
	}
	if err := en.ctx.Err(); err != nil {
		return fmt.Errorf("exploration cancelled after %d paths: %w", len(en.paths), err)
	}
	if len(en.paths) >= en.maxPaths {
		return fmt.Errorf("exceeded MaxPaths=%d", en.maxPaths)
	}
	tSt := st.clone()
	tSt.addConstraint(cond)
	fSt := st
	fSt.addConstraint(symb.Negate(cond))

	if en.feasible(tSt) {
		if err := thenK(tSt); err != nil {
			return err
		}
	}
	if en.feasible(fSt) {
		return elseK(fSt)
	}
	return nil
}

func (en *Engine) finish(st *symState, action ActionKind, port symb.Expr) {
	p := &Path{
		ID:          len(en.paths),
		Constraints: st.constraints,
		Domains:     st.domains,
		Events:      st.events,
		Action:      action,
		Port:        port,
		StatelessIC: st.ic,
		StatelessMA: st.ma,
		Ops:         st.ops,
		Accesses:    st.accesses,
		PCVRanges:   st.pcvs,
		PktWrites:   st.writes,
		Session:     st.sess,
	}
	en.paths = append(en.paths, p)
}

func (en *Engine) fresh(hint string) symb.Sym {
	en.freshCtr++
	return symb.Sym{Name: fmt.Sprintf("%s#%d", hint, en.freshCtr)}
}

// evalCondSym evaluates a branch condition, charging the extra explicit
// branch when it is not comparison-shaped (same rule as the concrete
// interpreter).
func (en *Engine) evalCondSym(st *symState, cond Expr) symb.Expr {
	v := en.evalSym(st, cond)
	if !isCmpShaped(cond) {
		st.exec(perf.OpBranch, 1)
	}
	return v
}

// evalSym evaluates an IR expression to a symbolic value, charging the
// identical cost the concrete interpreter would.
func (en *Engine) evalSym(st *symState, x Expr) symb.Expr {
	switch ex := x.(type) {
	case Const:
		return symb.C(ex.V)
	case Local:
		v, ok := st.locals[ex.Name]
		if !ok {
			panic(fmt.Sprintf("nfir: symbolic read of unassigned local %q", ex.Name))
		}
		return v
	case Now:
		return symb.S(SymNow)
	case InPort:
		return symb.S(SymInPort)
	case PktLen:
		return symb.S(SymPktLen)
	case Not:
		return symb.Negate(en.evalSym(st, ex.X))
	case Bin:
		l := en.evalSym(st, ex.L)
		r := en.evalSym(st, ex.R)
		st.exec(opClass(ex.Op), 1)
		return symb.B(ex.Op, l, r)
	case PktLoad:
		offE := en.evalSym(st, ex.Off)
		st.ic++
		st.ma++
		st.ops[perf.OpLoad]++
		if off, ok := offE.(symb.Const); ok {
			st.accesses = append(st.accesses, SymAccess{Known: true, Addr: pktBaseAddr + off.V, Size: uint8(ex.Size)})
			key := fieldKey{off.V, ex.Size}
			if v, seen := st.fields[key]; seen {
				return v
			}
			name := FieldSymName(off.V, ex.Size)
			st.setDomain(name, widthDomain(ex.Size))
			sym := symb.S(name)
			st.fields[key] = sym
			return sym
		}
		// Symbolic offset: unconstrained fresh read.
		st.accesses = append(st.accesses, SymAccess{Known: false, Size: uint8(ex.Size)})
		s := en.fresh("pktload")
		st.setDomain(s.Name, widthDomain(ex.Size))
		return s
	case MemLoad:
		addrE := en.evalSym(st, ex.Addr)
		st.ic++
		st.ma++
		st.ops[perf.OpLoad]++
		if a, ok := addrE.(symb.Const); ok {
			st.accesses = append(st.accesses, SymAccess{Known: true, Addr: a.V, Size: uint8(ex.Size)})
		} else {
			st.accesses = append(st.accesses, SymAccess{Known: false, Size: uint8(ex.Size)})
		}
		s := en.fresh("memload")
		st.setDomain(s.Name, widthDomain(ex.Size))
		return s
	default:
		panic(fmt.Sprintf("nfir: unknown expression %T", x))
	}
}

func widthDomain(size int) symb.Domain {
	switch size {
	case 1:
		return symb.Byte
	case 2:
		return symb.Word
	case 4:
		return symb.DWord
	default:
		return symb.QWord
	}
}

// InputSymbols lists the canonical input symbols (packet fields and
// metadata) a path's constraints mention, sorted.
func (p *Path) InputSymbols() []string {
	all := symb.Symbols(p.Constraints...)
	var in []string
	for _, s := range all {
		if _, _, ok := ParseFieldSym(s); ok || s == SymInPort || s == SymNow || s == SymPktLen {
			in = append(in, s)
		}
	}
	sort.Strings(in)
	return in
}

// EventSummary renders the path's stateful-call outcomes compactly, e.g.
// "flowtable.get:hit flowtable.refresh:ok"; it is the backbone of
// input-class labels.
func (p *Path) EventSummary() string {
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		parts[i] = ev.DS + "." + ev.Method + ":" + ev.Outcome.Label
	}
	return strings.Join(parts, " ")
}
