package nfir

import (
	"fmt"
)

// Validate statically checks a program for the mistakes the interpreters
// would otherwise only catch on the specific packet that trips them:
// paths that can fall off the end, reads of never-assigned locals,
// constant packet accesses out of bounds, unbounded loops, calls to
// unregistered data structures, and unreachable statements. dsNames may
// be nil to skip the registry check.
func (p *Program) Validate(dsNames map[string]bool) []error {
	v := &validator{ds: dsNames}
	return v.run(p)
}

// DSSig describes one data-structure method for signature-aware
// validation: the exact argument count its Invoke expects and how many
// results it returns.
type DSSig struct {
	Args    int
	Results int
}

// ValidateWithSigs runs Validate's checks plus the signature-level ones
// a code-generating frontend needs and a hand author usually gets right
// by construction: calls must name a known method and match its arity,
// must not bind more results than the method returns (a read of such a
// local would observe a value — often a model PCV — the runtime never
// produced), and constant Forward ports must be within NumPorts.
// Hand-written NFs use pseudo-ports (the bridge's flood port) on
// purpose, which is why the port-range check lives here and not in
// Validate.
func (p *Program) ValidateWithSigs(sigs map[string]map[string]DSSig) []error {
	ds := make(map[string]bool, len(sigs))
	for name := range sigs {
		ds[name] = true
	}
	v := &validator{ds: ds, sigs: sigs, strictPorts: true, ports: p.NumPorts}
	return v.run(p)
}

type validator struct {
	ds          map[string]bool
	sigs        map[string]map[string]DSSig
	strictPorts bool
	ports       uint64
	errs        []error
}

func (v *validator) run(p *Program) []error {
	defined := map[string]bool{}
	terminates := v.checkStmts(p.body, defined, "body")
	if !terminates {
		v.errs = append(v.errs, fmt.Errorf("%s: not every path ends in Forward or Drop", p.Name))
	}
	return v.errs
}

// checkStmts validates a statement list, updating the defined-locals set
// in place, and reports whether the list terminates on every path.
func (v *validator) checkStmts(stmts []Stmt, defined map[string]bool, where string) bool {
	for i, s := range stmts {
		if v.checkStmt(s, defined, where) {
			if i != len(stmts)-1 {
				v.errs = append(v.errs, fmt.Errorf("%s: unreachable statements after position %d", where, i))
			}
			return true
		}
	}
	return false
}

// checkStmt validates one statement; true means it terminates every path.
func (v *validator) checkStmt(s Stmt, defined map[string]bool, where string) bool {
	switch x := s.(type) {
	case Assign:
		v.checkExpr(x.E, defined, where)
		defined[x.Dst] = true
		return false
	case If:
		v.checkExpr(x.Cond, defined, where)
		thenDef := copySet(defined)
		elseDef := copySet(defined)
		thenTerm := v.checkStmts(x.Then, thenDef, where+"/then")
		elseTerm := v.checkStmts(x.Else, elseDef, where+"/else")
		// Locals surviving the If are those defined on both live arms.
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceSet(defined, elseDef)
		case elseTerm:
			replaceSet(defined, thenDef)
		default:
			replaceSet(defined, intersect(thenDef, elseDef))
		}
		return false
	case While:
		v.checkExpr(x.Cond, defined, where)
		if x.MaxIter <= 0 {
			v.errs = append(v.errs, fmt.Errorf("%s: while loop without a MaxIter bound", where))
		}
		// The body may execute zero times: its definitions don't escape.
		bodyDef := copySet(defined)
		if v.checkStmts(x.Body, bodyDef, where+"/loop") {
			v.errs = append(v.errs, fmt.Errorf("%s: loop body terminates unconditionally", where))
		}
		return false
	case Call:
		for _, a := range x.Args {
			v.checkExpr(a, defined, where)
		}
		if v.ds != nil && !v.ds[x.DS] {
			v.errs = append(v.errs, fmt.Errorf("%s: call to unregistered data structure %q", where, x.DS))
		} else if v.sigs != nil {
			sig, ok := v.sigs[x.DS][x.Method]
			switch {
			case !ok:
				v.errs = append(v.errs, fmt.Errorf("%s: %s has no method %q", where, x.DS, x.Method))
			case len(x.Args) != sig.Args:
				v.errs = append(v.errs, fmt.Errorf("%s: %s.%s wants %d args, call passes %d", where, x.DS, x.Method, sig.Args, len(x.Args)))
			case len(x.Dsts) > sig.Results:
				v.errs = append(v.errs, fmt.Errorf("%s: %s.%s returns %d results, call binds %d", where, x.DS, x.Method, sig.Results, len(x.Dsts)))
			}
		}
		for _, d := range x.Dsts {
			defined[d] = true
		}
		return false
	case PktStore:
		v.checkExpr(x.Off, defined, where)
		v.checkExpr(x.Val, defined, where)
		v.checkAccessSize(x.Size, where)
		if off, ok := x.Off.(Const); ok && off.V+uint64(x.Size) > MaxPacket {
			v.errs = append(v.errs, fmt.Errorf("%s: packet store at %d..%d exceeds MaxPacket", where, off.V, off.V+uint64(x.Size)))
		}
		return false
	case MemStore:
		v.checkExpr(x.Addr, defined, where)
		v.checkExpr(x.Val, defined, where)
		v.checkAccessSize(x.Size, where)
		return false
	case Forward:
		v.checkExpr(x.Port, defined, where)
		if v.strictPorts && v.ports > 0 {
			if c, ok := x.Port.(Const); ok && c.V >= v.ports {
				v.errs = append(v.errs, fmt.Errorf("%s: forward to constant port %d out of range (ports=%d)", where, c.V, v.ports))
			}
		}
		return true
	case DropStmt:
		return true
	default:
		v.errs = append(v.errs, fmt.Errorf("%s: unknown statement %T", where, s))
		return false
	}
}

func (v *validator) checkExpr(e Expr, defined map[string]bool, where string) {
	switch x := e.(type) {
	case Const, Now, InPort, PktLen:
	case Local:
		if !defined[x.Name] {
			v.errs = append(v.errs, fmt.Errorf("%s: read of possibly-unassigned local %q", where, x.Name))
		}
	case Not:
		v.checkExpr(x.X, defined, where)
	case Bin:
		v.checkExpr(x.L, defined, where)
		v.checkExpr(x.R, defined, where)
	case PktLoad:
		v.checkExpr(x.Off, defined, where)
		v.checkAccessSize(x.Size, where)
		if off, ok := x.Off.(Const); ok && off.V+uint64(x.Size) > MaxPacket {
			v.errs = append(v.errs, fmt.Errorf("%s: packet load at %d..%d exceeds MaxPacket", where, off.V, off.V+uint64(x.Size)))
		}
	case MemLoad:
		v.checkExpr(x.Addr, defined, where)
		v.checkAccessSize(x.Size, where)
	default:
		v.errs = append(v.errs, fmt.Errorf("%s: unknown expression %T", where, e))
	}
}

func (v *validator) checkAccessSize(size int, where string) {
	switch size {
	case 1, 2, 4, 8:
	default:
		v.errs = append(v.errs, fmt.Errorf("%s: unsupported access size %d", where, size))
	}
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func replaceSet(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
