package nfir

import (
	"slices"
	"strings"
	"testing"

	"gobolt/internal/perf"
)

// etherTypeProgram is the stylised §2.1 router's stateless skeleton:
// drop non-IPv4, otherwise consult a stateful lookup and forward.
func etherTypeProgram() *Program {
	return NewProgram("mini-router", 4, []Stmt{
		IfElse(Eq(Field(12, 2), C(0x0800)),
			[]Stmt{
				Invoke("lpm", "get", []Expr{Field(30, 4)}, "port"),
				Fwd(L("port")),
			},
			[]Stmt{Drop()},
		),
	})
}

// fixedDS returns constant results and charges a fixed cost.
type fixedDS struct {
	results []uint64
	ic, ma  uint64
}

func (f *fixedDS) Invoke(method string, args []uint64, env *Env) ([]uint64, error) {
	if f.ic > f.ma {
		env.Meter.Exec(perf.OpALU, f.ic-f.ma)
	}
	for i := uint64(0); i < f.ma; i++ {
		env.Meter.Load(0x5000_0000+i*64, 8, false)
	}
	return f.results, nil
}

func ipv4Packet() []byte {
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x00
	return pkt
}

func arpPacket() []byte {
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x06
	return pkt
}

func TestConcreteInvalidPacketCost(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.Link("lpm", &fixedDS{results: []uint64{0}})
	env.ResetPacket(arpPacket(), 0, 0)
	act, err := env.Run(etherTypeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if act.Kind != ActionDrop {
		t.Fatalf("action = %v, want drop", act.Kind)
	}
	// Paper Table 1, invalid packets: 2 instructions, 1 memory access
	// (field load + fused compare-branch; DROP is free).
	if got := env.Meter.Instructions(); got != 2 {
		t.Errorf("IC = %d, want 2", got)
	}
	if got := env.Meter.MemAccesses(); got != 1 {
		t.Errorf("MA = %d, want 1", got)
	}
}

func TestConcreteValidPacketStatelessCost(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.Link("lpm", &fixedDS{results: []uint64{3}}) // zero-cost stub
	env.ResetPacket(ipv4Packet(), 0, 0)
	act, err := env.Run(etherTypeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if act.Kind != ActionForward || act.Port != 3 {
		t.Fatalf("action = %+v", act)
	}
	// Paper Table 1 vs Table 2: the stateless share of the valid path is
	// 3 IC / 2 MA: ethertype load + fused branch + dst-address load. The
	// call is inlined and Forward is free at the NF analysis level (§2.1
	// assumes the framework below costs nothing); the DPDK substrate
	// charges TX at the full-stack level.
	if got := env.Meter.Instructions(); got != 3 {
		t.Errorf("IC = %d, want 3", got)
	}
	if got := env.Meter.MemAccesses(); got != 2 {
		t.Errorf("MA = %d, want 2", got)
	}
}

func TestConcreteDSCostCharged(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.Link("lpm", &fixedDS{results: []uint64{1}, ic: 10, ma: 4})
	env.ResetPacket(ipv4Packet(), 0, 0)
	if _, err := env.Run(etherTypeProgram()); err != nil {
		t.Fatal(err)
	}
	if got := env.Meter.Instructions(); got != 3+10 {
		t.Errorf("IC = %d, want 13", got)
	}
	if got := env.Meter.MemAccesses(); got != 2+4 {
		t.Errorf("MA = %d, want 6", got)
	}
}

func TestConcreteArithmeticAndLocals(t *testing.T) {
	p := NewProgram("arith", 0, []Stmt{
		Set("x", C(10)),
		Set("y", Add(L("x"), C(5))),
		Set("z", Mul(L("y"), L("y"))),
		Then(Gt(L("z"), C(200)), Fwd(C(1))),
		Drop(),
	})
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.ResetPacket(nil, 0, 0)
	act, err := env.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if act.Kind != ActionForward {
		t.Fatalf("15*15=225 > 200 should forward, got %v", act.Kind)
	}
	if v, _ := env.Local("z"); v != 225 {
		t.Errorf("z = %d", v)
	}
	// add(1) + mul(1) + fused cmp-branch(1); Forward is free = 3
	if got := env.Meter.Instructions(); got != 3 {
		t.Errorf("IC = %d, want 3", got)
	}
}

func TestConcreteWhileLoop(t *testing.T) {
	p := NewProgram("loop", 0, []Stmt{
		Set("i", C(0)),
		Set("sum", C(0)),
		While{
			Cond:    Lt(L("i"), C(5)),
			MaxIter: 10,
			Body: []Stmt{
				Set("sum", Add(L("sum"), L("i"))),
				Set("i", Add(L("i"), C(1))),
			},
		},
		Fwd(L("sum")),
	})
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.ResetPacket(nil, 0, 0)
	act, err := env.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if act.Port != 10 {
		t.Errorf("sum = %d, want 10", act.Port)
	}
	// 6 condition checks (1 each, fused) + 5*(add+add) = 16
	if got := env.Meter.Instructions(); got != 16 {
		t.Errorf("IC = %d, want 16", got)
	}
}

func TestConcreteWhileMaxIterViolation(t *testing.T) {
	p := NewProgram("infinite", 0, []Stmt{
		Set("i", C(0)),
		While{Cond: C(1), MaxIter: 3, Body: []Stmt{Set("i", Add(L("i"), C(1)))}},
		Drop(),
	})
	env := NewEnv()
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(p); err == nil {
		t.Fatal("expected MaxIter violation")
	}
}

// A loop's body runs at most MaxIter times: when the condition still
// holds at check MaxIter+1 the run fails before the body runs again, so
// no stateful call is made beyond the bound the symbolic engine checked.
func TestConcreteWhileBodyRunsAtMostMaxIter(t *testing.T) {
	p := NewProgram("bounded", 0, []Stmt{
		While{Cond: C(1), MaxIter: 2, Body: []Stmt{Invoke("ds", "none", nil)}},
		Drop(),
	})
	ds := &scriptDS{}
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.Link("ds", ds)
	env.ResetPacket(nil, 0, 0)
	_, err := env.Run(p)
	if err == nil || !strings.Contains(err.Error(), "loop exceeded MaxIter=2") {
		t.Errorf("err = %v, want loop exceeded MaxIter=2", err)
	}
	if ds.calls != 2 {
		t.Errorf("body ran %d times, want 2", ds.calls)
	}
}

func TestConcretePacketReadWrite(t *testing.T) {
	p := NewProgram("rewrite", 0, []Stmt{
		Set("src", Field(26, 4)),
		PktStore{Off: C(26), Size: 4, Val: C(0x0A000001)},
		Set("after", Field(26, 4)),
		Fwd(C(0)),
	})
	pkt := make([]byte, 64)
	pkt[26], pkt[27], pkt[28], pkt[29] = 192, 168, 1, 7
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.ResetPacket(pkt, 0, 0)
	if _, err := env.Run(p); err != nil {
		t.Fatal(err)
	}
	if v, _ := env.Local("src"); v != 0xC0A80107 {
		t.Errorf("src = %#x", v)
	}
	if v, _ := env.Local("after"); v != 0x0A000001 {
		t.Errorf("after = %#x", v)
	}
	if env.Pkt[26] != 0x0A || env.Pkt[29] != 0x01 {
		t.Error("packet bytes not rewritten")
	}
}

func TestConcretePacketBounds(t *testing.T) {
	over := NewProgram("oob", 0, []Stmt{Set("x", Field(MaxPacket-1, 4)), Drop()})
	env := NewEnv()
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(over); err == nil {
		t.Fatal("out-of-bounds load must fail")
	}
	overStore := NewProgram("oobw", 0, []Stmt{PktStore{Off: C(MaxPacket), Size: 1, Val: C(0)}, Drop()})
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(overStore); err == nil {
		t.Fatal("out-of-bounds store must fail")
	}
}

func TestConcreteHeapOps(t *testing.T) {
	h := NewHeap()
	a := h.Alloc(16)
	b := h.Alloc(16)
	if a == b || b < a+16 {
		t.Fatalf("allocations overlap: %#x %#x", a, b)
	}
	if a%64 != 0 || b%64 != 0 {
		t.Error("allocations must be cache-line aligned")
	}
	h.Write(a, 8, 0xdeadbeefcafe)
	if got := h.Read(a, 8); got != 0xdeadbeefcafe {
		t.Errorf("Read = %#x", got)
	}
	if got := h.Read(a, 2); got != 0xcafe {
		t.Errorf("partial Read = %#x", got)
	}
	if got := h.Read(b, 8); got != 0 {
		t.Errorf("fresh memory = %#x, want 0", got)
	}
}

func TestConcreteMemLoadStore(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	base := env.Heap.Alloc(64)
	p := NewProgram("mem", 0, []Stmt{
		MemStore{Addr: C(base), Size: 8, Val: C(41)},
		Set("v", Add(MemLoad{Addr: C(base), Size: 8}, C(1))),
		Fwd(L("v")),
	})
	env.ResetPacket(nil, 0, 0)
	act, err := env.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if act.Port != 42 {
		t.Errorf("port = %d", act.Port)
	}
	if env.Meter.MemAccesses() != 2 { // store + load
		t.Errorf("MA = %d, want 2", env.Meter.MemAccesses())
	}
}

func TestConcreteLoadDependenceTaint(t *testing.T) {
	var events []perf.Access
	sink := sinkFunc(func(ev perf.Access) { events = append(events, ev) })
	env := NewEnv()
	env.Meter = perf.NewMeter(sink)
	base := env.Heap.Alloc(128)
	env.Heap.Write(base, 8, base+64)
	p := NewProgram("chase", 0, []Stmt{
		Set("ptr", MemLoad{Addr: C(base), Size: 8}),
		Set("v", MemLoad{Addr: L("ptr"), Size: 8}), // dependent
		Set("w", MemLoad{Addr: C(base), Size: 8}),  // independent
		Drop(),
	})
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(p); err != nil {
		t.Fatal(err)
	}
	var loads []perf.Access
	for _, ev := range events {
		if ev.Class == perf.OpLoad {
			loads = append(loads, ev)
		}
	}
	if len(loads) != 3 {
		t.Fatalf("got %d loads", len(loads))
	}
	if loads[0].LoadDependent || !loads[1].LoadDependent || loads[2].LoadDependent {
		t.Errorf("taint = %v %v %v, want false true false",
			loads[0].LoadDependent, loads[1].LoadDependent, loads[2].LoadDependent)
	}
}

type sinkFunc func(perf.Access)

func (f sinkFunc) Op(ev perf.Access) { f(ev) }

func TestConcreteMetadataExprs(t *testing.T) {
	p := NewProgram("meta", 2, []Stmt{
		Set("t", Now{}),
		Set("p", InPort{}),
		Set("l", PktLen{}),
		Fwd(L("p")),
	})
	env := NewEnv()
	env.ResetPacket(make([]byte, 100), 1, 5_000_000)
	act, err := env.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if act.Port != 1 {
		t.Errorf("port = %d", act.Port)
	}
	if v, _ := env.Local("t"); v != 5_000_000 {
		t.Errorf("now = %d", v)
	}
	if v, _ := env.Local("l"); v != 100 {
		t.Errorf("len = %d", v)
	}
}

func TestConcreteErrors(t *testing.T) {
	env := NewEnv()
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(NewProgram("unassigned", 0, []Stmt{Fwd(L("nope"))})); err == nil {
		t.Error("unassigned local must fail")
	}
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(NewProgram("noend", 0, []Stmt{Set("x", C(1))})); err == nil {
		t.Error("missing terminator must fail")
	}
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(NewProgram("nods", 0, []Stmt{Invoke("ghost", "m", nil), Drop()})); err == nil {
		t.Error("unknown DS must fail")
	}
}

func TestObservePCV(t *testing.T) {
	env := NewEnv()
	env.ObservePCV("e", 3)
	env.ObservePCV("e", 2)
	env.ObservePCV("c", 1)
	if env.PCVs()["e"] != 5 || env.PCVs()["c"] != 1 {
		t.Errorf("PCVs = %v", env.PCVs())
	}
	snap := env.PCVs()
	env.ResetPacket(nil, 0, 0)
	if len(env.PCVs()) != 0 {
		t.Error("ResetPacket must clear PCVs")
	}
	if snap["e"] != 5 || len(snap) != 2 {
		t.Errorf("a PCVs snapshot changed under ResetPacket: %v", snap)
	}
	// An observation of 0 is an observation; a name seen on an earlier
	// packet only is not.
	env.ObservePCV("e", 0)
	env.ObservePCVMax("t", 0)
	env.ObservePCVMax("t", 4)
	env.ObservePCVMax("t", 2)
	if got := env.PCVs(); len(got) != 2 || got["t"] != 4 {
		t.Errorf("PCVs = %v, want e:0 t:4", got)
	} else if _, ok := got["e"]; !ok {
		t.Errorf("PCVs = %v: observed 0 must be present", got)
	}
	// Slots keep the order the Env first met each name; c, seen on the
	// earlier packet only, keeps its slot but is not observed.
	if names, vals, seen := env.PCVSlots(); !slices.Equal(names, []string{"e", "c", "t"}) ||
		!slices.Equal(seen, []bool{true, false, true}) || vals[0] != 0 || vals[2] != 4 {
		t.Errorf("PCVSlots = %v %v %v, want e:0, c unobserved, t:4 in first-seen order", names, vals, seen)
	}
}

// Strict && / || evaluation: both sides always charged.
func TestConcreteStrictLogicalOps(t *testing.T) {
	env := NewEnv()
	env.Meter = perf.NewMeter(nil)
	p := NewProgram("strict", 0, []Stmt{
		// false && (x == 1): both comparisons charged + the && itself.
		Then(And2(Eq(C(0), C(1)), Eq(C(1), C(1))), Fwd(C(0))),
		Drop(),
	})
	env.ResetPacket(nil, 0, 0)
	if _, err := env.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := env.Meter.Instructions(); got != 3 {
		t.Errorf("IC = %d, want 3 (two cmps + fused and-branch)", got)
	}
}
