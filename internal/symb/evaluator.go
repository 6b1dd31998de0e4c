package symb

// This file is the public face of the compilation layer for callers
// outside the solver: an Evaluator owns a private evaluation stack and a
// private value array over a CompiledSet's slots, so many goroutines can
// evaluate the same compiled constraint set concurrently (the online
// monitor classifies packets against one shared compiled contract). The
// CompiledSet itself stays immutable after CompileSet returns.

// NumPrograms reports how many expressions the set compiled.
func (cs *CompiledSet) NumPrograms() int { return len(cs.progs) }

// ProgramSlots returns the slot indices the i-th compiled expression
// reads, deduplicated, in first-use order. Callers that bind only a
// subset of the symbol table use it to decide which programs are fully
// bound and therefore evaluable.
func (cs *CompiledSet) ProgramSlots(i int) []int {
	var out []int
	seen := make(map[int]bool)
	for _, in := range cs.progs[i].code {
		var s int
		switch in.kind {
		case insSym:
			s = int(in.arg)
		case insSymConst:
			s = int(in.slot)
		default:
			continue
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Evaluator evaluates one CompiledSet's programs against its own value
// array. Unlike CompiledSet.Eval it is safe to use one Evaluator per
// goroutine over a shared set.
type Evaluator struct {
	cs    *CompiledSet
	vals  []uint64
	stack []uint64
}

// NewEvaluator returns an evaluator with all slots bound to zero.
func (cs *CompiledSet) NewEvaluator() *Evaluator {
	return &Evaluator{
		cs:    cs,
		vals:  make([]uint64, len(cs.slots)),
		stack: make([]uint64, len(cs.stack)),
	}
}

// Bind sets the value of one slot (see CompiledSet.Slots for the
// slot-index ↔ symbol-name mapping).
func (ev *Evaluator) Bind(slot int, v uint64) { ev.vals[slot] = v }

// Reset zeroes every slot.
func (ev *Evaluator) Reset() {
	for i := range ev.vals {
		ev.vals[i] = 0
	}
}

// Eval evaluates the i-th program under the current binding. Logical
// operators are eager, which coincides with Expr.Eval's short-circuit
// semantics because every slot holds a defined value and ApplyOp is
// total.
func (ev *Evaluator) Eval(i int) uint64 {
	return evalProgram(&ev.cs.progs[i], ev.cs.consts, ev.vals, ev.stack)
}
