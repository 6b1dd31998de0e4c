package symb

import (
	"math"
	"math/rand"
	"sync"
)

// This file is the compilation layer of the solver: Expr trees are
// lowered once into flat postfix programs whose symbol operands are
// small integers mapped to value slots, so the inner backtracking loop
// evaluates constraints by slice indexing instead of string-keyed map
// lookups.
// It also hosts the deterministic per-symbol sample cache: the search's
// pseudo-random candidate values depend only on (symbol name, sample
// count), so the raw streams are computed once per process instead of
// re-seeding a generator on every solve (which dominated solve cost).

// Instruction kinds of the postfix machine.
const (
	insConst    uint8 = iota // push consts[arg]
	insSym                   // push vals[slots[arg]]
	insBin                   // pop r, pop l, push ApplyOp(Op(arg), l, r)
	insNot                   // replace top with boolVal(top == 0)
	insSymConst              // push ApplyOp(op, vals[slots[slot]], consts[arg])
)

// instr is one instruction. insSymConst fuses the insSym, insConst,
// insBin triple of a symbol compared with (or combined with) a constant
// — the commonest constraint shape — into one dispatch.
type instr struct {
	kind uint8
	op   uint8  // insSymConst's Op
	slot uint16 // insSymConst's symbol number
	arg  uint32
}

// program is one expression lowered to postfix code over its own symbol
// numbering: insSym and insSymConst name the expression's k-th distinct
// symbol (first-encounter order), and the caller supplies the k -> value
// slot map at evaluation time. A compiled expression therefore depends
// on no symbol table, so one compilation serves every session — and
// every fork — it is asserted into. consts holds the expression's
// constants in pre-order; insConst and insSymConst index it.
type program struct {
	code     []instr
	consts   []uint64
	maxStack int
}

// evalProgram runs a compiled expression against the slot-indexed
// binding vals; slots maps the program's symbol numbers to slots of
// vals. stack must have at least p.maxStack capacity. Logical operators
// are evaluated eagerly; that is observationally identical to
// Expr.Eval's short-circuiting because every operand is defined (all
// slots are bound) and ApplyOp is total.
func evalProgram(p *program, slots []int32, vals, stack []uint64) uint64 {
	sp := 0
	consts := p.consts
	for _, in := range p.code {
		switch in.kind {
		case insConst:
			stack[sp] = consts[in.arg]
			sp++
		case insSym:
			stack[sp] = vals[slots[in.arg]]
			sp++
		case insSymConst:
			stack[sp] = ApplyOp(Op(in.op), vals[slots[in.slot]], consts[in.arg])
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

// CompiledSet is a batch of expressions lowered to postfix programs
// sharing one symbol table. It is the exported face of the compilation
// layer, used by the online classifier, benchmarks and differential
// tests; the solver keeps the same representation per constraint.
type CompiledSet struct {
	progs  []program
	slots  [][]int32 // per program: its symbol numbers -> set slots
	symtab map[string]int32
	names  []string
	stack  []uint64
}

// CompileSet lowers the expressions. Symbol slots are assigned in first-
// encounter order; Slots reports the mapping.
func CompileSet(exprs ...Expr) *CompiledSet {
	cs := &CompiledSet{symtab: make(map[string]int32)}
	maxStack := 1
	for _, e := range exprs {
		p, names := compileExpr(e)
		slots := make([]int32, len(names))
		for i, name := range names {
			s, ok := cs.symtab[name]
			if !ok {
				s = int32(len(cs.names))
				cs.symtab[name] = s
				cs.names = append(cs.names, name)
			}
			slots[i] = s
		}
		if p.maxStack > maxStack {
			maxStack = p.maxStack
		}
		cs.progs = append(cs.progs, p)
		cs.slots = append(cs.slots, slots)
	}
	cs.stack = make([]uint64, maxStack)
	return cs
}

// Slots returns the symbol names in slot order; Eval's vals argument is
// indexed the same way.
func (cs *CompiledSet) Slots() []string { return cs.names }

// Eval evaluates the i-th compiled expression under the slot-indexed
// binding vals. It is not safe for concurrent use (the evaluation stack
// is shared).
func (cs *CompiledSet) Eval(i int, vals []uint64) uint64 {
	return evalProgram(&cs.progs[i], cs.slots[i], vals, cs.stack)
}

// compileExpr lowers one expression, numbering its distinct symbols in
// first-encounter (pre-order) order; names lists them by number. The
// constants land in the program's pool in pre-order too.
func compileExpr(e Expr) (program, []string) {
	var c compiler
	c.walk(e)
	return program{code: c.code, consts: c.consts, maxStack: c.maxDepth}, c.names
}

// compiler is compileExpr's state.
type compiler struct {
	code            []instr
	consts          []uint64
	names           []string
	depth, maxDepth int
}

func (c *compiler) local(name string) uint32 {
	for i, n := range c.names {
		if n == name {
			return uint32(i)
		}
	}
	c.names = append(c.names, name)
	return uint32(len(c.names) - 1)
}

func (c *compiler) push(in instr, d int) {
	c.code = append(c.code, in)
	c.depth += d
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *compiler) walk(e Expr) {
	switch x := e.(type) {
	case Const:
		c.consts = append(c.consts, x.V)
		c.push(instr{kind: insConst, arg: uint32(len(c.consts) - 1)}, 1)
	case Sym:
		c.push(instr{kind: insSym, arg: c.local(x.Name)}, 1)
	case Bin:
		if l, ok := x.L.(Sym); ok {
			if r, ok := x.R.(Const); ok {
				if s := c.local(l.Name); s <= math.MaxUint16 && x.Op <= math.MaxUint8 {
					c.consts = append(c.consts, r.V)
					c.push(instr{kind: insSymConst, op: uint8(x.Op), slot: uint16(s), arg: uint32(len(c.consts) - 1)}, 1)
					return
				}
			}
		}
		c.walk(x.L)
		c.walk(x.R)
		c.push(instr{kind: insBin, arg: uint32(x.Op)}, -1)
	case Not:
		c.walk(x.X)
		c.push(instr{kind: insNot}, 0)
	default:
		panic("symb: unknown expression type")
	}
}

// analysis is everything the solver derives from one flattened,
// representative-substituted constraint alone: its program (whose
// constants double as the candidate values the constraint suggests), its
// distinct symbols in the program's numbering, its structural digest and
// the comparison shape propagation recognises. It depends on no session
// state, so it is computed once and shared by every session and fork
// the constraint enters.
type analysis struct {
	e      Expr
	prog   program
	names  []string
	digest lanes
	shape  binShape
}

// Comparison shapes propagateBin handles structurally.
const (
	shapeNone     uint8 = iota
	shapeSymConst       // sym op k
	shapeSymSym         // sym op sym
)

// binShape is a constraint's comparison shape, normalised so a symbol is
// on the left; l and r are symbol numbers of the analysis.
type binShape struct {
	kind uint8
	op   Op
	k    uint64
	l, r uint32
}

func analyse(e Expr) *analysis {
	prog, names := compileExpr(e)
	return &analysis{e: e, prog: prog, names: names, digest: exprDigest(e), shape: shapeOf(e, names)}
}

// shapeOf recognises the comparison shapes interval propagation narrows
// directly: symbol against constant (either side) under a comparison,
// and symbol against symbol under an order or equality.
func shapeOf(e Expr, names []string) binShape {
	b, ok := e.(Bin)
	if !ok {
		return binShape{}
	}
	l, r, op := b.L, b.R, b.Op
	if _, lc := l.(Const); lc {
		l, r = r, l
		op = flipOp(op)
	}
	ls, ok := l.(Sym)
	if !ok {
		return binShape{}
	}
	num := func(name string) uint32 {
		for i, n := range names {
			if n == name {
				return uint32(i)
			}
		}
		panic("symb: symbol missing from its own analysis")
	}
	switch x := r.(type) {
	case Const:
		switch op {
		case Eq, Ne, Ult, Ule, Ugt, Uge:
			return binShape{kind: shapeSymConst, op: op, k: x.V, l: num(ls.Name)}
		}
	case Sym:
		switch op {
		case Ult, Ule, Ugt, Uge, Eq:
			return binShape{kind: shapeSymSym, op: op, l: num(ls.Name), r: num(x.Name)}
		}
	}
	return binShape{}
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

// nameHasher is the hasher state after a symbol's name: a slot keeps it,
// and the memo key's (symbol, domain) digest of the slot continues it
// with the domain's bounds (domainDigest) instead of rehashing the name.
func nameHasher(name string) hasher {
	h := newHasher()
	h.bytes(name)
	return h
}

// domainDigest hashes one (symbol, domain) entry for the memo key, from
// the symbol's nameHasher state.
func domainDigest(h hasher, d Domain) lanes {
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
