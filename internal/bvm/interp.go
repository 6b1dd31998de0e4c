package bvm

import (
	"encoding/binary"
	"fmt"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// Run executes verified bytecode directly against an nfir.Env — the
// same environment, data structures, meter and PCV channel the compiled
// program runs in — and is the differential oracle for the compiler:
// for any packet, Run and nfir's concrete execution of Compile's output
// must agree on action, instruction count, memory accesses, PCV
// observations and data-structure state evolution. Per-instruction
// charging mirrors the lowering table in the package comment.
//
// Run assumes p passed Verify; on unverified programs it still never
// corrupts the environment (bounds and step budgets are enforced) but
// may return errors the compiled form reports differently.
func Run(p *Program, env *nfir.Env) (nfir.Action, error) {
	var regs [NumRegs]uint64
	regs[1] = env.InPort
	regs[2] = env.PktLen
	regs[3] = env.Time

	val := func(o Operand) uint64 {
		if o.IsReg {
			return regs[o.Reg]
		}
		return o.Imm
	}

	pc := 0
	for steps := 0; ; steps++ {
		if steps >= walkBudget {
			return nfir.Action{}, fmt.Errorf("bvm: %s: interpreter step budget exceeded", p.Name)
		}
		if pc < 0 || pc >= len(p.Insts) {
			return nfir.Action{}, fmt.Errorf("bvm: %s: control fell off the end", p.Name)
		}
		in := &p.Insts[pc]
		switch {
		case in.Op == OpMov:
			regs[in.Reg] = val(in.A)
			pc++

		case in.Op.IsALU():
			env.Meter.Exec(aluClass(in.Op), 1)
			regs[in.Reg] = symb.ApplyOp(aluSymbOp[in.Op], regs[in.Reg], val(in.A))
			pc++

		case in.Op == OpLdPkt:
			off := val(in.A)
			if off > nfir.MaxPacket-uint64(in.Size) {
				return nfir.Action{}, fmt.Errorf("bvm: %s: packet load out of bounds: off=%d size=%d", p.Name, off, in.Size)
			}
			env.Meter.Load(env.PktAddr+off, uint8(in.Size), false)
			regs[in.Reg] = beLoad(env.Pkt[off:], in.Size)
			pc++

		case in.Op == OpStPkt:
			off := val(in.A)
			if off > nfir.MaxPacket-uint64(in.Size) {
				return nfir.Action{}, fmt.Errorf("bvm: %s: packet store out of bounds: off=%d size=%d", p.Name, off, in.Size)
			}
			env.Meter.Store(env.PktAddr+off, uint8(in.Size))
			env.StorePkt(off, in.Size, val(in.B))
			pc++

		case in.Op == OpJa:
			pc = in.Target

		case in.Op.IsCondJump():
			env.Meter.Exec(perf.OpBranch, 1)
			if symb.ApplyOp(cmpSymbOp[in.Op], regs[in.Reg], val(in.A)) != 0 {
				pc = in.Target
			} else {
				pc++
			}

		case in.Op == OpCall:
			d := p.Decl(in.DS)
			if d == nil {
				return nfir.Action{}, fmt.Errorf("bvm: %s: call to undeclared data structure %q", p.Name, in.DS)
			}
			sig, ok := d.Methods()[in.Method]
			if !ok {
				return nfir.Action{}, fmt.Errorf("bvm: %s: %s has no method %q", p.Name, in.DS, in.Method)
			}
			ds, ok := env.Linked(in.DS)
			if !ok {
				return nfir.Action{}, fmt.Errorf("bvm: %s: data structure %q not linked into env", p.Name, in.DS)
			}
			args := env.Args(sig.Args)
			copy(args, regs[1:])
			results, err := ds.Invoke(in.Method, args, env)
			if err != nil {
				return nfir.Action{}, fmt.Errorf("bvm: %s: %s.%s: %w", p.Name, in.DS, in.Method, err)
			}
			if len(results) < sig.Results {
				return nfir.Action{}, fmt.Errorf("bvm: %s: %s.%s returned %d values, want %d", p.Name, in.DS, in.Method, len(results), sig.Results)
			}
			regs[0] = results[0]
			if sig.Results > 1 {
				regs[1] = results[1]
			}
			pc++

		case in.Op == OpFwd:
			env.Action = nfir.Action{Kind: nfir.ActionForward, Port: val(in.A)}
			return env.Action, nil

		case in.Op == OpDrop:
			env.Action = nfir.Action{Kind: nfir.ActionDrop}
			return env.Action, nil

		default:
			return nfir.Action{}, fmt.Errorf("bvm: %s: invalid opcode %d", p.Name, uint8(in.Op))
		}
	}
}

// aluClass mirrors nfir's opClass for the ALU subset.
func aluClass(op Op) perf.OpClass {
	switch op {
	case OpMul:
		return perf.OpMul
	case OpDiv, OpMod:
		return perf.OpDiv
	default:
		return perf.OpALU
	}
}

// beLoad mirrors nfir's big-endian packet reads.
func beLoad(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	default:
		return binary.BigEndian.Uint64(b)
	}
}
