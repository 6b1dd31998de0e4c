package nfir

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// randomProgram builds a small random (but valid) stateless program:
// field reads, arithmetic over locals, nested branches, packet writes.
func randomProgram(rng *rand.Rand) *Program {
	defined := []string{}
	var genStmts func(depth, budget int) []Stmt
	genExpr := func() Expr {
		switch rng.Intn(4) {
		case 0:
			return C(uint64(rng.Intn(256)))
		case 1:
			return Field(uint64(rng.Intn(64)), []int{1, 2, 4}[rng.Intn(3)])
		case 2:
			if len(defined) > 0 {
				return L(defined[rng.Intn(len(defined))])
			}
			return C(uint64(rng.Intn(16)))
		default:
			ops := []func(Expr, Expr) Expr{Add, Sub, Mul, Band, Xor}
			return ops[rng.Intn(len(ops))](
				Field(uint64(rng.Intn(64)), 1),
				C(uint64(1+rng.Intn(32))),
			)
		}
	}
	genCond := func() Expr {
		cmps := []func(Expr, Expr) Expr{Eq, Ne, Lt, Ge}
		return cmps[rng.Intn(len(cmps))](genExpr(), C(uint64(rng.Intn(300))))
	}
	genStmts = func(depth, budget int) []Stmt {
		var out []Stmt
		n := 1 + rng.Intn(3)
		for i := 0; i < n && budget > 0; i++ {
			budget--
			switch rng.Intn(4) {
			case 0:
				name := []string{"a", "b", "c"}[rng.Intn(3)]
				out = append(out, Set(name, genExpr()))
				defined = append(defined, name)
			case 1:
				if depth < 3 {
					out = append(out, IfElse(genCond(),
						genStmts(depth+1, budget),
						genStmts(depth+1, budget)))
				}
			case 2:
				out = append(out, PktStore{
					Off: C(uint64(rng.Intn(64))), Size: 1, Val: genExpr(),
				})
			default:
				out = append(out, Set("tmp", genExpr()))
				defined = append(defined, "tmp")
			}
		}
		return out
	}
	body := genStmts(0, 8)
	// Deterministic terminator.
	body = append(body, IfElse(genCond(),
		[]Stmt{Fwd(C(uint64(rng.Intn(4))))},
		[]Stmt{Drop()},
	))
	return NewProgram("random", 4, body)
}

// Property (the replay-validation invariant, program-generically): for a
// random stateless program and a random packet, exactly one explored
// path's constraints accept the packet, and the concrete execution's
// action/IC/MA equal that path's symbolic accounting.
func TestSymbolicConcreteEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randomProgram(rng)
		if errs := prog.Validate(nil); len(errs) > 0 {
			return true // undefined-local shapes are rejected upstream
		}
		en := &Engine{}
		paths, err := en.Explore(prog)
		if err != nil {
			return true // loop-bound style rejections are fine
		}

		for trial := 0; trial < 5; trial++ {
			pkt := make([]byte, 128)
			rng.Read(pkt)
			// Bind the canonical field symbols from the packet bytes.
			binding := func(p *Path) map[string]uint64 {
				m := map[string]uint64{
					SymInPort: uint64(rng.Intn(4)),
					SymNow:    0,
					SymPktLen: 128,
				}
				for _, s := range symb.Symbols(p.Constraints...) {
					if off, size, ok := ParseFieldSym(s); ok {
						m[s] = getBE(pkt[off:], size)
					}
				}
				return m
			}

			var matched *Path
			for _, pa := range paths {
				if symb.CheckModel(pa.Constraints, binding(pa)) {
					if matched != nil {
						return false // paths must partition the input space
					}
					matched = pa
				}
			}
			if matched == nil {
				return false // some path must accept every packet
			}

			env := NewEnv()
			env.Meter = perf.NewMeter(nil)
			env.ResetPacket(pkt, 0, 0)
			act, err := env.Run(prog)
			if err != nil {
				return false
			}
			if act.Kind != matched.Action {
				return false
			}
			if env.Meter.Instructions() != matched.StatelessIC ||
				env.Meter.MemAccesses() != matched.StatelessMA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// wildProgram extends randomProgram's shapes to everything the concrete
// interpreter can meet, valid or not: bounded loops whose bound trips,
// stateful calls (to a linked and to an unlinked structure, with failing
// and short-result methods), heap accesses at packet-derived addresses,
// packet accesses at packet-derived offsets (some out of bounds, some
// wrapping 2^64), reads of locals no path assigned, bare-value
// conditions that pay the extra branch, and bodies that fall off the
// end.
func wildProgram(rng *rand.Rand) *Program {
	names := []string{"a", "b", "c", "tmp", "r0", "r1"}
	name := func() string { return names[rng.Intn(len(names))] }
	size := func() int { return []int{1, 2, 4, 8}[rng.Intn(4)] }
	allOps := []symb.Op{symb.Add, symb.Sub, symb.Mul, symb.Div, symb.Mod, symb.And, symb.Or,
		symb.Xor, symb.Shl, symb.Shr, symb.Eq, symb.Ne, symb.Ult, symb.Ule, symb.Ugt, symb.Uge,
		symb.LAnd, symb.LOr}
	var genExpr func(depth int) Expr
	// offset is mostly in bounds, so that programs run on past their
	// first packet access.
	offset := func(depth int) Expr {
		if rng.Intn(4) == 0 {
			return genExpr(depth)
		}
		return Band(genExpr(depth), C(127))
	}
	genExpr = func(depth int) Expr {
		k := rng.Intn(10)
		if depth >= 3 && k >= 5 {
			k = rng.Intn(5)
		}
		switch k {
		case 0:
			return C(uint64(rng.Intn(300)))
		case 1:
			if rng.Intn(3) == 0 {
				return C(^uint64(0) - uint64(rng.Intn(4))) // wraps offset arithmetic
			}
			return C(uint64(rng.Intn(8)))
		case 2:
			return Field(uint64(rng.Intn(64)), size())
		case 3:
			return L(name())
		case 4:
			return []Expr{Now{}, InPort{}, PktLen{}}[rng.Intn(3)]
		case 5, 6:
			return Op(allOps[rng.Intn(len(allOps))], genExpr(depth+1), genExpr(depth+1))
		case 7:
			return Not{X: genExpr(depth + 1)}
		case 8:
			return PktLoad{Off: offset(depth + 1), Size: size()}
		default:
			return MemLoad{Addr: genExpr(depth + 1), Size: size()}
		}
	}
	var genStmts func(depth int) []Stmt
	genStmts = func(depth int) []Stmt {
		var out []Stmt
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			switch k := rng.Intn(12); {
			case k < 3:
				out = append(out, Set(name(), genExpr(0)))
			case k == 3 && depth < 3:
				out = append(out, IfElse(genExpr(1), genStmts(depth+1), genStmts(depth+1)))
			case k == 4 && depth < 2:
				out = append(out, While{Cond: genExpr(1), Body: genStmts(depth + 1), MaxIter: 1 + rng.Intn(4)})
			case k == 5 || k == 6:
				ds := "tbl"
				if rng.Intn(12) == 0 {
					ds = "missing"
				}
				call := Call{DS: ds, Method: []string{"count", "probe", "none", "fail", "count", "probe"}[rng.Intn(6)]}
				for j, na := 0, rng.Intn(4); j < na; j++ {
					call.Args = append(call.Args, genExpr(1))
				}
				for j, nd := 0, rng.Intn(3); j < nd; j++ {
					call.Dsts = append(call.Dsts, name())
				}
				out = append(out, call)
			case k == 7:
				out = append(out, PktStore{Off: offset(1), Size: size(), Val: genExpr(1)})
			case k == 8:
				out = append(out, MemStore{Addr: genExpr(1), Size: size(), Val: genExpr(1)})
			case k == 9 && depth > 0:
				out = append(out, Fwd(genExpr(1)))
				return out
			case k == 10 && depth > 0:
				out = append(out, Drop())
				return out
			default:
				out = append(out, Set(name(), genExpr(1)))
			}
		}
		return out
	}
	var body []Stmt
	for _, n := range names { // most locals start assigned, so most reads succeed
		if rng.Intn(5) != 0 {
			body = append(body, Set(n, Field(uint64(rng.Intn(64)), size())))
		}
	}
	body = append(body, genStmts(0)...)
	if rng.Intn(8) != 0 { // most bodies terminate; the rest fall off the end
		body = append(body, IfElse(genExpr(1), []Stmt{Fwd(genExpr(1))}, []Stmt{Drop()}))
	}
	return NewProgram("wild", 4, body)
}

// scriptDS is wildProgram's stateful structure: a deterministic function
// of its call history that charges the meter, observes PCVs through both
// channels (including observations of 0), and returns Env-owned or
// fresh result slices of every length the interpreter must handle.
type scriptDS struct{ calls uint64 }

func (d *scriptDS) Invoke(method string, args []uint64, env *Env) ([]uint64, error) {
	d.calls++
	sum := d.calls
	for _, a := range args {
		sum = sum*31 + a
	}
	env.Meter.Exec(perf.OpALU, 1+sum%3)
	env.Meter.Load(0x5000_0000+(sum%8)*64, 8, sum%2 == 0)
	switch method {
	case "count":
		env.ObservePCV("e", sum%3)
		return env.Results(sum % 5), nil
	case "probe":
		env.ObservePCVMax("t", sum%4)
		env.ObservePCVMax("c", 0)
		return []uint64{sum % 7, sum & 1}, nil
	case "none":
		return nil, nil
	}
	return nil, fmt.Errorf("scripted failure %d", sum%3)
}

type recordingSink struct{ evs []perf.Access }

func (s *recordingSink) Op(ev perf.Access) { s.evs = append(s.evs, ev) }

// The identity the slot-compiled interpreter is held to: on any program
// and any packet sequence it is indistinguishable from the tree walker
// it replaced — action, IC, MA, the full access stream, PCVs, locals,
// packet and heap contents, and error text.
func TestCompiledMatchesWalker(t *testing.T) {
	const programs, packets = 8000, 3 // 24 k program × packet pairs, about half of which run to an action
	errKinds := map[string]int{}
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := wildProgram(rng)

		sinkW, sinkC := &recordingSink{}, &recordingSink{}
		envW, envC := NewEnv(), NewEnv()
		envW.Meter, envC.Meter = perf.NewMeter(sinkW), perf.NewMeter(sinkC)
		envW.Link("tbl", &scriptDS{})
		envC.Link("tbl", &scriptDS{})
		w := newWalker(envW)

		for n := 0; n < packets; n++ {
			pkt := make([]byte, 1+rng.Intn(160))
			rng.Read(pkt)
			inPort, now := uint64(rng.Intn(4)), uint64(rng.Intn(1<<20))
			if n == 0 || rng.Intn(4) != 0 { // sometimes run again on the same packet: locals persist
				w.resetPacket(pkt, inPort, now)
				envC.ResetPacket(pkt, inPort, now)
			}
			actW, errW := w.run(prog)
			actC, errC := envC.Run(prog)

			where := fmt.Sprintf("seed %d packet %d:\n%s", seed, n, prog.String())
			if (errW == nil) != (errC == nil) || (errW != nil && errW.Error() != errC.Error()) {
				t.Fatalf("%s\nwalker error %v, compiled error %v", where, errW, errC)
			}
			if errW != nil {
				errKinds[strings.SplitN(strings.TrimPrefix(errW.Error(), "nfir: wild: "), " ", 3)[0]]++
			}
			if actW != actC || envW.Action != envC.Action {
				t.Fatalf("%s\nwalker action %v/%v, compiled %v/%v", where, actW, envW.Action, actC, envC.Action)
			}
			if envW.Meter.Snapshot() != envC.Meter.Snapshot() {
				t.Fatalf("%s\nwalker %+v, compiled %+v", where, envW.Meter.Snapshot(), envC.Meter.Snapshot())
			}
			if !slices.Equal(sinkW.evs, sinkC.evs) {
				t.Fatalf("%s\naccess streams differ:\nwalker   %v\ncompiled %v", where, sinkW.evs, sinkC.evs)
			}
			if !reflect.DeepEqual(envW.PCVs(), envC.PCVs()) {
				t.Fatalf("%s\nwalker PCVs %v, compiled %v", where, envW.PCVs(), envC.PCVs())
			}
			for _, name := range []string{"a", "b", "c", "tmp", "r0", "r1", "never"} {
				vW, okW := w.locals[name]
				vC, okC := envC.Local(name)
				if vW != vC || okW != okC {
					t.Fatalf("%s\nlocal %s: walker %d,%v compiled %d,%v", where, name, vW, okW, vC, okC)
				}
			}
			if !bytes.Equal(envW.Pkt, envC.Pkt) {
				t.Fatalf("%s\npacket buffers differ", where)
			}
			if !reflect.DeepEqual(envW.Heap.pages, envC.Heap.pages) {
				t.Fatalf("%s\nheaps differ", where)
			}
		}
	}
	t.Logf("error kinds over %d runs: %v", programs*packets, errKinds)
	// The generator must actually reach every failure the two
	// interpreters have to word identically.
	for _, kind := range []string{"read", "packet", "loop", "unknown", "tbl.fail:", "tbl.count", "fell"} {
		found := false
		for k := range errKinds {
			found = found || strings.HasPrefix(k, kind)
		}
		if !found {
			t.Errorf("no generated program failed with a %q error; kinds seen: %v", kind, errKinds)
		}
	}
}
