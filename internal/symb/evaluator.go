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
	out := make([]int, len(cs.slots[i]))
	for k, s := range cs.slots[i] {
		out[k] = int(s)
	}
	return out
}

// StackSize reports how many values an EvalOn stack must hold.
func (cs *CompiledSet) StackSize() int { return len(cs.stack) }

// EvalOn is Eval over the caller's evaluation stack, which must hold
// StackSize values. Goroutines that each bring their own vals and stack
// may share the set, and a caller evaluating many sets in turn reuses
// one stack for all of them instead of holding an Evaluator per set.
func (cs *CompiledSet) EvalOn(i int, vals, stack []uint64) uint64 {
	return evalProgram(&cs.progs[i], cs.slots[i], vals, stack)
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
		vals:  make([]uint64, len(cs.names)),
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
	return evalProgram(&ev.cs.progs[i], ev.cs.slots[i], ev.vals, ev.stack)
}
