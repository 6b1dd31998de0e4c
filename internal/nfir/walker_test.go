package nfir

import (
	"fmt"

	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// walker is the tree-walking concrete interpreter Env.Run replaced: it
// evaluates a Program's body directly, with string-keyed maps for locals and
// their load-dependence taints. It survives as the differential oracle
// for the slot-compiled interpreter — the two must agree on action,
// IC/MA, the access stream, PCVs, locals and error text for every
// program and packet. It shares the Env's packet, heap, meter, linked
// data structures and PCV channel; only what was replaced is its own.
type walker struct {
	env      *Env
	locals   map[string]uint64
	localDep map[string]bool
}

func newWalker(env *Env) *walker {
	return &walker{env: env, locals: map[string]uint64{}, localDep: map[string]bool{}}
}

// resetPacket is Env.ResetPacket for a walker-driven Env.
func (w *walker) resetPacket(pkt []byte, inPort, timeNS uint64) {
	w.env.ResetPacket(pkt, inPort, timeNS)
	clear(w.locals)
	clear(w.localDep)
}

func (w *walker) run(p *Program) (Action, error) {
	done, err := w.execStmts(p.body)
	if err != nil {
		return Action{}, fmt.Errorf("nfir: %s: %w", p.Name, err)
	}
	if !done {
		return Action{}, fmt.Errorf("nfir: %s: fell off the end without Forward/Drop", p.Name)
	}
	return w.env.Action, nil
}

func (w *walker) execStmts(stmts []Stmt) (done bool, err error) {
	for _, s := range stmts {
		done, err = w.execStmt(s)
		if err != nil || done {
			return done, err
		}
	}
	return false, nil
}

func (w *walker) execStmt(s Stmt) (done bool, err error) {
	e := w.env
	switch st := s.(type) {
	case Assign:
		v, dep, err := w.eval(st.E)
		if err != nil {
			return false, err
		}
		w.locals[st.Dst] = v
		w.localDep[st.Dst] = dep
		return false, nil
	case If:
		v, _, err := w.evalCond(st.Cond)
		if err != nil {
			return false, err
		}
		if v != 0 {
			return w.execStmts(st.Then)
		}
		return w.execStmts(st.Else)
	case While:
		for iter := 0; ; iter++ {
			v, _, err := w.evalCond(st.Cond)
			if err != nil {
				return false, err
			}
			if v == 0 {
				return false, nil
			}
			if st.MaxIter > 0 && iter >= st.MaxIter {
				return false, fmt.Errorf("loop exceeded MaxIter=%d", st.MaxIter)
			}
			done, err := w.execStmts(st.Body)
			if err != nil || done {
				return done, err
			}
		}
	case Call:
		args := make([]uint64, len(st.Args))
		for i, a := range st.Args {
			v, _, err := w.eval(a)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
		ds, ok := e.Linked(st.DS)
		if !ok {
			return false, fmt.Errorf("unknown data structure %q", st.DS)
		}
		results, err := ds.Invoke(st.Method, args, e)
		if err != nil {
			return false, fmt.Errorf("%s.%s: %w", st.DS, st.Method, err)
		}
		if len(results) < len(st.Dsts) {
			return false, fmt.Errorf("%s.%s returned %d values, want ≥ %d", st.DS, st.Method, len(results), len(st.Dsts))
		}
		for i, dst := range st.Dsts {
			w.locals[dst] = results[i]
			w.localDep[dst] = true // model results flow through memory
		}
		return false, nil
	case PktStore:
		off, _, err := w.eval(st.Off)
		if err != nil {
			return false, err
		}
		v, _, err := w.eval(st.Val)
		if err != nil {
			return false, err
		}
		// The pre-replacement walker tested off+size > MaxPacket alone,
		// which wraps for offsets near 2^64 and then panicked slicing the
		// buffer; the oracle carries the fix so it can be driven there.
		if off > MaxPacket || off+uint64(st.Size) > MaxPacket {
			return false, fmt.Errorf("packet store out of bounds: off=%d size=%d", off, st.Size)
		}
		e.Meter.Store(e.PktAddr+off, uint8(st.Size))
		e.StorePkt(off, st.Size, v)
		return false, nil
	case MemStore:
		addr, _, err := w.eval(st.Addr)
		if err != nil {
			return false, err
		}
		v, _, err := w.eval(st.Val)
		if err != nil {
			return false, err
		}
		e.Meter.Store(addr, uint8(st.Size))
		e.Heap.Write(addr, st.Size, v)
		return false, nil
	case Forward:
		port, _, err := w.eval(st.Port)
		if err != nil {
			return false, err
		}
		e.Action = Action{Kind: ActionForward, Port: port}
		return true, nil
	case DropStmt:
		e.Action = Action{Kind: ActionDrop}
		return true, nil
	default:
		return false, fmt.Errorf("unknown statement %T", s)
	}
}

// evalCond evaluates a branch condition, charging the extra branch
// instruction when the condition is not itself comparison-shaped (a bare
// value needs an explicit test+jump).
func (w *walker) evalCond(cond Expr) (uint64, bool, error) {
	v, dep, err := w.eval(cond)
	if err != nil {
		return 0, false, err
	}
	if !isCmpShaped(cond) {
		w.env.Meter.Exec(perf.OpBranch, 1)
	}
	return v, dep, nil
}

// eval computes an expression, charging its cost. The bool result is the
// load-dependence taint used by the detailed hardware model to decide
// which misses can overlap.
func (w *walker) eval(x Expr) (uint64, bool, error) {
	e := w.env
	switch ex := x.(type) {
	case Const:
		return ex.V, false, nil
	case Local:
		v, ok := w.locals[ex.Name]
		if !ok {
			return 0, false, fmt.Errorf("read of unassigned local %q", ex.Name)
		}
		return v, w.localDep[ex.Name], nil
	case Now:
		return e.Time, false, nil
	case InPort:
		return e.InPort, false, nil
	case PktLen:
		return e.PktLen, false, nil
	case Not:
		v, dep, err := w.eval(ex.X)
		if err != nil {
			return 0, false, err
		}
		if v == 0 {
			return 1, dep, nil
		}
		return 0, dep, nil
	case Bin:
		l, ldep, err := w.eval(ex.L)
		if err != nil {
			return 0, false, err
		}
		r, rdep, err := w.eval(ex.R)
		if err != nil {
			return 0, false, err
		}
		e.Meter.Exec(opClass(ex.Op), 1)
		return symb.ApplyOp(ex.Op, l, r), ldep || rdep, nil
	case PktLoad:
		off, _, err := w.eval(ex.Off)
		if err != nil {
			return 0, false, err
		}
		if off > MaxPacket || off+uint64(ex.Size) > MaxPacket { // see PktStore
			return 0, false, fmt.Errorf("packet load out of bounds: off=%d size=%d", off, ex.Size)
		}
		e.Meter.Load(e.PktAddr+off, uint8(ex.Size), false)
		return getBE(e.Pkt[off:], ex.Size), true, nil
	case MemLoad:
		addr, adep, err := w.eval(ex.Addr)
		if err != nil {
			return 0, false, err
		}
		e.Meter.Load(addr, uint8(ex.Size), adep)
		return e.Heap.Read(addr, ex.Size), true, nil
	default:
		return 0, false, fmt.Errorf("unknown expression %T", x)
	}
}
