package nfir

import (
	"fmt"

	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// The concrete interpreter does not walk a Program's body: NewProgram
// lowers it once into a flat postfix instruction array in which locals,
// data structures and call sites are integer slots and everything that
// depends only on the program text (an operator's cost class, whether a
// condition is comparison-shaped, a loop's bound) is already decided.
// Env.Run executes that array; see exec in concrete.go.

type opcode uint8

const (
	opConst    opcode = iota // push imm
	opLocal                  // push local a; error if unassigned
	opNow                    // push Env.Time
	opInPort                 // push Env.InPort
	opPktLen                 // push Env.PktLen
	opNot                    // logical negation of the top
	opBin                    // pop r, l; charge cls; push sop(l, r)
	opPktLoad                // pop offset; push a bytes of the packet
	opMemLoad                // pop address; push a bytes of the heap
	opAssign                 // pop into local a
	opJz                     // pop; if imm, charge a branch; jump to a when zero
	opJmp                    // jump to a
	opLoopInit               // zero loop counter a
	opLoopNext               // fail if counter a reached bound imm; count one iteration
	opCall                   // call site a; arguments are the top of the stack
	opPktStore               // pop value, offset; store a bytes into the packet
	opMemStore               // pop value, address; store a bytes into the heap
	opForward                // pop port; finish
	opDrop                   // finish
	opFellOff                // end of body reached without Forward/Drop
	opUnknown                // fail with msgs[a]: a nil statement or expression
)

// instr is one instruction; the narrow field types keep it at 16 bytes.
type instr struct {
	op  opcode
	cls uint8 // opBin: perf.OpClass of sop
	sop int16 // opBin: the symb.Op
	a   int32 // slot, jump target, call site, message index or access width
	// imm is opConst's value, opLoopNext's MaxIter (0 = unbounded), and
	// for opJz 1 when the condition is not comparison-shaped.
	imm uint64
}

// callSite is one Call statement with its names resolved to slots.
type callSite struct {
	ds     int32 // index into lowered.ds
	name   string
	method string
	nargs  int
	dsts   []int32
}

// lowered is a Program's executable form. It is immutable once built, so
// any number of Envs on any number of goroutines may execute it at once.
type lowered struct {
	code   []instr
	calls  []callSite
	locals []string // local slot → name
	ds     []string // data-structure slot → name
	msgs   []string
	stack  int // deepest operand stack any statement needs
	loops  int // number of While statements, one counter each
}

// lower builds the executable form of body.
func lower(body []Stmt) *lowered {
	lo := lowerer{out: &lowered{}, localSlot: map[string]int32{}, dsSlot: map[string]int32{}}
	lo.stmts(body)
	lo.emit(instr{op: opFellOff})
	return lo.out
}

type lowerer struct {
	out       *lowered
	localSlot map[string]int32
	dsSlot    map[string]int32
	depth     int
}

func (lo *lowerer) emit(in instr) int {
	lo.out.code = append(lo.out.code, in)
	return len(lo.out.code) - 1
}

// push and pop track the operand-stack depth so the Env can size it once.
func (lo *lowerer) push(in instr) {
	lo.emit(in)
	lo.depth++
	if lo.depth > lo.out.stack {
		lo.out.stack = lo.depth
	}
}

func (lo *lowerer) pop(n int, in instr) int {
	lo.depth -= n
	return lo.emit(in)
}

func (lo *lowerer) here() int32 { return int32(len(lo.out.code)) }

func (lo *lowerer) local(name string) int32 {
	slot, ok := lo.localSlot[name]
	if !ok {
		slot = int32(len(lo.out.locals))
		lo.localSlot[name] = slot
		lo.out.locals = append(lo.out.locals, name)
	}
	return slot
}

// unknown is the instruction standing for a nil statement or
// expression: it fails, with the walker's words, only if reached.
func (lo *lowerer) unknown(what string, v any) instr {
	lo.out.msgs = append(lo.out.msgs, fmt.Sprintf("unknown %s %T", what, v))
	return instr{op: opUnknown, a: int32(len(lo.out.msgs) - 1)}
}

func (lo *lowerer) stmts(ss []Stmt) {
	for _, s := range ss {
		lo.stmt(s)
	}
}

func (lo *lowerer) stmt(s Stmt) {
	switch st := s.(type) {
	case Assign:
		lo.expr(st.E)
		lo.pop(1, instr{op: opAssign, a: lo.local(st.Dst)})
	case If:
		toElse := lo.cond(st.Cond)
		lo.stmts(st.Then)
		toEnd := lo.emit(instr{op: opJmp})
		lo.out.code[toElse].a = lo.here()
		lo.stmts(st.Else)
		lo.out.code[toEnd].a = lo.here()
	case While:
		counter := int32(lo.out.loops)
		lo.out.loops++
		lo.emit(instr{op: opLoopInit, a: counter})
		top := lo.here()
		toEnd := lo.cond(st.Cond)
		next := instr{op: opLoopNext, a: counter}
		if st.MaxIter > 0 {
			next.imm = uint64(st.MaxIter)
		}
		lo.emit(next)
		lo.stmts(st.Body)
		lo.emit(instr{op: opJmp, a: top})
		lo.out.code[toEnd].a = lo.here()
	case Call:
		for _, a := range st.Args {
			lo.expr(a)
		}
		ds, ok := lo.dsSlot[st.DS]
		if !ok {
			ds = int32(len(lo.out.ds))
			lo.dsSlot[st.DS] = ds
			lo.out.ds = append(lo.out.ds, st.DS)
		}
		site := callSite{ds: ds, name: st.DS, method: st.Method, nargs: len(st.Args)}
		for _, dst := range st.Dsts {
			site.dsts = append(site.dsts, lo.local(dst))
		}
		lo.out.calls = append(lo.out.calls, site)
		lo.pop(len(st.Args), instr{op: opCall, a: int32(len(lo.out.calls) - 1)})
	case PktStore:
		lo.expr(st.Off)
		lo.expr(st.Val)
		lo.pop(2, instr{op: opPktStore, a: int32(st.Size)})
	case MemStore:
		lo.expr(st.Addr)
		lo.expr(st.Val)
		lo.pop(2, instr{op: opMemStore, a: int32(st.Size)})
	case Forward:
		lo.expr(st.Port)
		lo.pop(1, instr{op: opForward})
	case DropStmt:
		lo.emit(instr{op: opDrop})
	default:
		lo.emit(lo.unknown("statement", s))
	}
}

// cond lowers a branch condition and the conditional jump consuming it,
// returning the jump's index so the caller can patch its target. A
// condition that is not itself comparison-shaped pays the explicit
// test+jump: one extra branch instruction.
func (lo *lowerer) cond(c Expr) int {
	lo.expr(c)
	jz := instr{op: opJz}
	if !isCmpShaped(c) {
		jz.imm = 1
	}
	return lo.pop(1, jz)
}

// isCmpShaped reports whether evaluating the expression already ends in a
// comparison whose result feeds the branch (so cmp+jcc fuse).
func isCmpShaped(e Expr) bool {
	switch x := e.(type) {
	case Bin:
		return x.Op.IsComparison()
	case Not:
		return isCmpShaped(x.X)
	}
	return false
}

func (lo *lowerer) expr(x Expr) {
	switch ex := x.(type) {
	case Const:
		lo.push(instr{op: opConst, imm: ex.V})
	case Local:
		lo.push(instr{op: opLocal, a: lo.local(ex.Name)})
	case Now:
		lo.push(instr{op: opNow})
	case InPort:
		lo.push(instr{op: opInPort})
	case PktLen:
		lo.push(instr{op: opPktLen})
	case Not:
		lo.expr(ex.X)
		lo.emit(instr{op: opNot})
	case Bin:
		lo.expr(ex.L)
		lo.expr(ex.R)
		lo.pop(1, instr{op: opBin, sop: int16(ex.Op), cls: uint8(opClass(ex.Op))})
	case PktLoad:
		lo.expr(ex.Off)
		lo.emit(instr{op: opPktLoad, a: int32(ex.Size)})
	case MemLoad:
		lo.expr(ex.Addr)
		lo.emit(instr{op: opMemLoad, a: int32(ex.Size)})
	default:
		lo.push(lo.unknown("expression", x))
	}
}

// opClass maps an operator to its hardware cost class.
func opClass(op symb.Op) perf.OpClass {
	switch {
	case op == symb.Mul:
		return perf.OpMul
	case op == symb.Div || op == symb.Mod:
		return perf.OpDiv
	case op.IsComparison():
		return perf.OpBranch
	default:
		return perf.OpALU
	}
}
