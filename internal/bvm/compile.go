package bvm

import (
	"fmt"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// Compile lowers a program to nfir by walking its control-flow graph
// with the verifier's interval tracking and unrolling it into an
// If-tree: every dynamic instruction sequence of the bytecode becomes a
// straight-line arm of nested Ifs, so the compiled program executes —
// and is charged — exactly the instructions the interpreter executes.
// Bounded loops disappear into repetition; branches the intervals
// decide keep their comparison (it is executed and charged either way)
// but get a Drop placeholder on the provably-dead arm, which concrete
// execution never enters and symbolic execution either const-folds away
// (ground conditions) or prunes as infeasible.
//
// source becomes the program's provenance (nfir.Program.Source), part
// of its printed identity and therefore its contract cache key.
//
// Compile verifies first; it cannot fail on a program Verify accepts.
func Compile(p *Program, source string) (*nfir.Program, error) {
	if err := verifyStructure(p); err != nil {
		return nil, err
	}
	body, err := newWalker(p).run()
	if err != nil {
		return nil, err
	}
	// ABI prologue: r1 = arrival port, r2 = packet length, r3 = now.
	// All three are free in every engine (plain environment reads).
	prologue := []nfir.Stmt{
		nfir.Set("r1", nfir.InPort{}),
		nfir.Set("r2", nfir.PktLen{}),
		nfir.Set("r3", nfir.Now{}),
	}
	prog := nfir.NewProgram(p.Name, p.Ports, append(prologue, body...))
	prog.Source = source
	// Defense in depth: the compiled shape must satisfy the hardened
	// nfir validator (arity, result binding, constant port range).
	if errs := prog.ValidateWithSigs(p.NFIRSigs()); len(errs) > 0 {
		return nil, fmt.Errorf("bvm: %s: compiled program failed nfir validation: %w", p.Name, errs[0])
	}
	return prog, nil
}

// NFIRSigs exports the declared helper table in the form
// nfir.ValidateWithSigs consumes.
func (p *Program) NFIRSigs() map[string]map[string]nfir.DSSig {
	out := make(map[string]map[string]nfir.DSSig, len(p.DS))
	for i := range p.DS {
		d := &p.DS[i]
		ms := make(map[string]nfir.DSSig)
		for name, sig := range d.Methods() {
			ms[name] = nfir.DSSig{Args: sig.Args, Results: sig.Results}
		}
		out[d.Name] = ms
	}
	return out
}

var aluSymbOp = map[Op]symb.Op{
	OpAdd: symb.Add, OpSub: symb.Sub, OpMul: symb.Mul, OpDiv: symb.Div,
	OpMod: symb.Mod, OpAnd: symb.And, OpOr: symb.Or, OpXor: symb.Xor,
	OpLsh: symb.Shl, OpRsh: symb.Shr,
}

var cmpSymbOp = map[Op]symb.Op{
	OpJeq: symb.Eq, OpJne: symb.Ne, OpJlt: symb.Ult,
	OpJle: symb.Ule, OpJgt: symb.Ugt, OpJge: symb.Uge,
}

// regState is the abstract register file at one walk point.
type regState [NumRegs]ival

// walker unrolls the bytecode CFG, simultaneously checking the
// flow-sensitive safety properties and emitting the nfir lowering. One
// budget covers the whole tree, so the walker itself always terminates:
// a loop the trip proof missed (e.g. a counter advanced on only one
// body path) exhausts the budget and is rejected as too complex.
type walker struct {
	p      *Program
	budget int
}

func newWalker(p *Program) *walker { return &walker{p: p, budget: walkBudget} }

func (w *walker) run() ([]nfir.Stmt, error) {
	var regs regState
	regs[1] = ival{init: true, lo: 0, hi: w.p.Ports - 1}
	regs[2] = ival{init: true, lo: 0, hi: nfir.MaxPacket}
	regs[3] = fullIval
	return w.walk(0, regs)
}

// operand resolves a source operand to its interval and nfir expression,
// rejecting reads of uninitialized registers.
func (w *walker) operand(pc int, o Operand, regs *regState) (ival, nfir.Expr, error) {
	if o.IsReg {
		v := regs[o.Reg]
		if !v.init {
			return ival{}, nil, instErr(w.p, pc, "read of uninitialized register r%d", o.Reg)
		}
		return v, nfir.L(regName(o.Reg)), nil
	}
	return exact(o.Imm), nfir.C(o.Imm), nil
}

func (w *walker) walk(pc int, regs regState) ([]nfir.Stmt, error) {
	var out []nfir.Stmt
	for {
		if pc >= len(w.p.Insts) {
			return nil, fmt.Errorf("bvm: %s: control falls off the end of the program", w.p.Name)
		}
		w.budget--
		if w.budget < 0 {
			return nil, fmt.Errorf("bvm: %s: program too complex: unrolled walk exceeds %d nodes", w.p.Name, walkBudget)
		}
		in := &w.p.Insts[pc]
		rd := regName(in.Reg)
		switch {
		case in.Op == OpMov:
			v, e, err := w.operand(pc, in.A, &regs)
			if err != nil {
				return nil, err
			}
			regs[in.Reg] = v
			out = append(out, nfir.Set(rd, e))
			pc++

		case in.Op.IsALU():
			d := regs[in.Reg]
			if !d.init {
				return nil, instErr(w.p, pc, "read of uninitialized register r%d", in.Reg)
			}
			s, e, err := w.operand(pc, in.A, &regs)
			if err != nil {
				return nil, err
			}
			if (in.Op == OpDiv || in.Op == OpMod) && s.lo == 0 {
				return nil, instErr(w.p, pc, "possible division by zero (divisor interval contains 0)")
			}
			regs[in.Reg] = aluIval(in.Op, d, s)
			out = append(out, nfir.Set(rd, nfir.Bin{Op: aluSymbOp[in.Op], L: nfir.L(rd), R: e}))
			pc++

		case in.Op == OpLdPkt:
			off, e, err := w.operand(pc, in.A, &regs)
			if err != nil {
				return nil, err
			}
			if off.hi > nfir.MaxPacket-uint64(in.Size) {
				return nil, instErr(w.p, pc, "packet load at offset [%d..%d]+%d may exceed MaxPacket (%d)",
					off.lo, off.hi, in.Size, nfir.MaxPacket)
			}
			regs[in.Reg] = ival{init: true, lo: 0, hi: sizeMax(in.Size)}
			out = append(out, nfir.Set(rd, nfir.PktLoad{Off: e, Size: in.Size}))
			pc++

		case in.Op == OpStPkt:
			if in.A.Imm > nfir.MaxPacket-uint64(in.Size) {
				return nil, instErr(w.p, pc, "packet store at offset %d+%d exceeds MaxPacket (%d)",
					in.A.Imm, in.Size, nfir.MaxPacket)
			}
			_, val, err := w.operand(pc, in.B, &regs)
			if err != nil {
				return nil, err
			}
			out = append(out, nfir.PktStore{Off: nfir.C(in.A.Imm), Size: in.Size, Val: val})
			pc++

		case in.Op == OpJa:
			pc = in.Target

		case in.Op.IsCondJump():
			a := regs[in.Reg]
			if !a.init {
				return nil, instErr(w.p, pc, "read of uninitialized register r%d", in.Reg)
			}
			b, be, err := w.operand(pc, in.A, &regs)
			if err != nil {
				return nil, err
			}
			cond := nfir.Bin{Op: cmpSymbOp[in.Op], L: nfir.L(rd), R: be}
			if decided, taken := decideCmp(in.Op, a, b); decided {
				// The comparison still executes (and is charged) at
				// runtime; only the dead arm is pruned from the walk.
				live, err := w.walk(liveTarget(pc, in.Target, taken), regs)
				if err != nil {
					return nil, err
				}
				dead := []nfir.Stmt{nfir.Drop()}
				if taken {
					return append(out, nfir.IfElse(cond, live, dead)), nil
				}
				return append(out, nfir.IfElse(cond, dead, live)), nil
			}
			takenRegs, fallRegs := regs, regs
			if b.singleton() {
				takenRegs[in.Reg] = refineCmp(in.Op, a, b.lo, true)
				fallRegs[in.Reg] = refineCmp(in.Op, a, b.lo, false)
			}
			then, err := w.walk(in.Target, takenRegs)
			if err != nil {
				return nil, err
			}
			els, err := w.walk(pc+1, fallRegs)
			if err != nil {
				return nil, err
			}
			return append(out, nfir.IfElse(cond, then, els)), nil

		case in.Op == OpCall:
			d := w.p.Decl(in.DS)
			sig := d.Methods()[in.Method]
			args := make([]nfir.Expr, sig.Args)
			for i := 0; i < sig.Args; i++ {
				r := uint8(i + 1)
				if !regs[r].init {
					return nil, instErr(w.p, pc, "call %s.%s needs %d args in r1..r%d, but r%d is not initialized",
						in.DS, in.Method, sig.Args, sig.Args, r)
				}
				args[i] = nfir.L(regName(r))
			}
			dsts := []string{"r0"}
			if sig.Results > 1 {
				dsts = append(dsts, "r1")
			}
			// Helper ABI: r1..r5 are clobbered (reads rejected until
			// rewritten), results land in r0 (and r1).
			for r := 1; r <= MaxCallArgs; r++ {
				regs[r] = ival{}
			}
			regs[0] = fullIval
			if sig.Results > 1 {
				regs[1] = fullIval
			}
			out = append(out, nfir.Invoke(in.DS, in.Method, args, dsts...))
			pc++

		case in.Op == OpFwd:
			_, e, err := w.operand(pc, in.A, &regs)
			if err != nil {
				return nil, err
			}
			return append(out, nfir.Fwd(e)), nil

		case in.Op == OpDrop:
			return append(out, nfir.Drop()), nil

		default:
			return nil, instErr(w.p, pc, "invalid opcode %d", uint8(in.Op))
		}
	}
}

func liveTarget(pc, target int, taken bool) int {
	if taken {
		return target
	}
	return pc + 1
}

func sizeMax(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}
