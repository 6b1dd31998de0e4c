package symb

import (
	"math"
	"math/rand"
	"sync"
)

// This file is the compilation layer of the solver: Expr trees are
// lowered once into flat postfix programs whose symbol operands are
// integer slot indices, so the inner backtracking loop evaluates
// constraints by slice indexing instead of string-keyed map lookups.
// It also hosts the deterministic per-symbol sample cache: the search's
// pseudo-random candidate values depend only on (symbol name, sample
// count), so the raw streams are computed once per process instead of
// re-seeding a generator on every solve (which dominated solve cost).

// Instruction kinds of the postfix machine.
const (
	insConst    uint8 = iota // push consts[arg]
	insSym                   // push vals[arg] (slot index)
	insBin                   // pop r, pop l, push ApplyOp(Op(arg), l, r)
	insNot                   // replace top with boolVal(top == 0)
	insSymConst              // push ApplyOp(op, vals[slot], consts[arg])
)

// instr is one instruction. insSymConst fuses the insSym, insConst,
// insBin triple of a symbol compared with (or combined with) a constant
// — the commonest constraint shape — into one dispatch.
type instr struct {
	kind uint8
	op   uint8  // insSymConst's Op
	slot uint16 // insSymConst's slot
	arg  uint32
}

// program is one constraint lowered to postfix code. Constants live in a
// shared per-prepared pool so instructions stay two words.
type program struct {
	code     []instr
	maxStack int
}

// evalProgram runs a compiled constraint against the slot-indexed
// binding vals. stack must have at least p.maxStack capacity. Logical
// operators are evaluated eagerly; that is observationally identical to
// Expr.Eval's short-circuiting because every operand is defined (all
// slots are bound) and ApplyOp is total.
func evalProgram(p *program, consts, vals, stack []uint64) uint64 {
	sp := 0
	for _, in := range p.code {
		switch in.kind {
		case insConst:
			stack[sp] = consts[in.arg]
			sp++
		case insSym:
			stack[sp] = vals[in.arg]
			sp++
		case insSymConst:
			stack[sp] = ApplyOp(Op(in.op), vals[in.slot], consts[in.arg])
			sp++
		case insBin:
			sp--
			stack[sp-1] = ApplyOp(Op(in.arg), stack[sp-1], stack[sp])
		default: // insNot
			if stack[sp-1] == 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		}
	}
	return stack[0]
}

// CompiledSet is a batch of expressions lowered to slot-indexed postfix
// programs sharing one symbol table. It is the exported face of the
// compilation layer, used by benchmarks and differential tests; the
// solver maintains the same representation internally.
type CompiledSet struct {
	progs  []program
	consts []uint64
	symtab map[string]int32
	slots  []string
	stack  []uint64
}

// CompileSet lowers the expressions. Symbol slots are assigned in first-
// encounter order; Slots reports the mapping.
func CompileSet(exprs ...Expr) *CompiledSet {
	cs := &CompiledSet{symtab: make(map[string]int32)}
	maxStack := 1
	for _, e := range exprs {
		p := compileExpr(e, func(name string) int32 {
			if s, ok := cs.symtab[name]; ok {
				return s
			}
			s := int32(len(cs.slots))
			cs.symtab[name] = s
			cs.slots = append(cs.slots, name)
			return s
		}, &cs.consts)
		if p.maxStack > maxStack {
			maxStack = p.maxStack
		}
		cs.progs = append(cs.progs, p)
	}
	cs.stack = make([]uint64, maxStack)
	return cs
}

// Slots returns the symbol names in slot order; Eval's vals argument is
// indexed the same way.
func (cs *CompiledSet) Slots() []string { return cs.slots }

// Eval evaluates the i-th compiled expression under the slot-indexed
// binding vals. It is not safe for concurrent use (the evaluation stack
// is shared).
func (cs *CompiledSet) Eval(i int, vals []uint64) uint64 {
	return evalProgram(&cs.progs[i], cs.consts, vals, cs.stack)
}

// compileExpr lowers one expression. slot assigns (or reuses) the slot
// index of a symbol; constants are interned into the shared pool.
func compileExpr(e Expr, slot func(string) int32, consts *[]uint64) program {
	var code []instr
	depth, maxDepth := 0, 0
	push := func(in instr, d int) {
		code = append(code, in)
		depth += d
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Const:
			*consts = append(*consts, x.V)
			push(instr{kind: insConst, arg: uint32(len(*consts) - 1)}, 1)
		case Sym:
			push(instr{kind: insSym, arg: uint32(slot(x.Name))}, 1)
		case Bin:
			if l, ok := x.L.(Sym); ok {
				if r, ok := x.R.(Const); ok {
					if s := slot(l.Name); s <= math.MaxUint16 && x.Op <= math.MaxUint8 {
						*consts = append(*consts, r.V)
						push(instr{kind: insSymConst, op: uint8(x.Op), slot: uint16(s), arg: uint32(len(*consts) - 1)}, 1)
						return
					}
				}
			}
			walk(x.L)
			walk(x.R)
			push(instr{kind: insBin, arg: uint32(x.Op)}, -1)
		case Not:
			walk(x.X)
			push(instr{kind: insNot}, 0)
		default:
			panic("symb: unknown expression type")
		}
	}
	walk(e)
	return program{code: code, maxStack: maxDepth}
}

// exprInfo walks a compiled-ready expression once, collecting its
// distinct symbol names (in first-encounter order) and every constant it
// mentions. The solver caches the result per flat constraint so symbol
// sets are never recomputed inside a solve.
func exprInfo(e Expr) (syms []string, consts []uint64) {
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Const:
			consts = append(consts, x.V)
		case Sym:
			for _, s := range syms {
				if s == x.Name {
					return
				}
			}
			syms = append(syms, x.Name)
		case Bin:
			walk(x.L)
			walk(x.R)
		case Not:
			walk(x.X)
		}
	}
	walk(e)
	return syms, consts
}

// --- structural digests (memo keys) ---

// lanes is a 128-bit structural digest split into two independently
// mixed 64-bit lanes. Constraint-set keys are built by summing per-
// constraint digests, which makes the key order-independent (the
// solver's verdict does not depend on constraint order) without letting
// duplicate constraints cancel out the way XOR would.
type lanes struct{ a, b uint64 }

func (l *lanes) add(o lanes) { l.a += o.a; l.b += o.b }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 is splitmix64's finalizer; it drives the second lane so the two
// lanes fail independently.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type hasher lanes

func newHasher() hasher { return hasher{a: fnvOffset64, b: 0x9e3779b97f4a7c15} }

func (h *hasher) word(v uint64) {
	w := v
	for i := 0; i < 8; i++ {
		h.a = (h.a ^ (w & 0xff)) * fnvPrime64
		w >>= 8
	}
	h.b = mix64(h.b + v + 0x9e3779b97f4a7c15)
}

func (h *hasher) bytes(s string) {
	for i := 0; i < len(s); i++ {
		h.a = (h.a ^ uint64(s[i])) * fnvPrime64
		h.b = mix64(h.b + uint64(s[i]) + 1)
	}
	h.word(uint64(len(s)))
}

func (h *hasher) sum() lanes { return lanes{a: h.a, b: mix64(h.b ^ h.a)} }

// exprDigest structurally hashes an expression (pre-order walk with node
// tags), for use in canonical constraint-set memo keys.
func exprDigest(e Expr) lanes {
	h := newHasher()
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Const:
			h.word(1)
			h.word(x.V)
		case Sym:
			h.word(2)
			h.bytes(x.Name)
		case Bin:
			h.word(3)
			h.word(uint64(x.Op))
			walk(x.L)
			walk(x.R)
		case Not:
			h.word(4)
			walk(x.X)
		}
	}
	walk(e)
	return h.sum()
}

// domainDigest hashes one (symbol, domain) entry for the memo key.
func domainDigest(name string, d Domain) lanes {
	h := newHasher()
	h.bytes(name)
	h.word(d.Lo)
	h.word(d.Hi)
	return h.sum()
}

// --- deterministic sample cache ---

// The search's pseudo-random candidates are drawn from a generator
// seeded by the symbol's name hash, so the raw 64-bit stream depends
// only on (name, sample count). Re-seeding math/rand's lagged-Fibonacci
// state per symbol per solve used to dominate solve cost; the cache
// computes each stream once per process. Values are mapped into the
// symbol's current domain at use, exactly as before, so witnesses are
// byte-identical.
type sampleKey struct {
	name    string
	samples int
}

var sampleCache sync.Map // sampleKey -> []uint64

func rawSamples(name string, samples int) []uint64 {
	key := sampleKey{name: name, samples: samples}
	if v, ok := sampleCache.Load(key); ok {
		return v.([]uint64)
	}
	rng := rand.New(rand.NewSource(int64(hashName(name))))
	out := make([]uint64, samples)
	for i := range out {
		out[i] = rng.Uint64()
	}
	v, _ := sampleCache.LoadOrStore(key, out)
	return v.([]uint64)
}
