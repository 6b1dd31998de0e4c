package nfir

import (
	"strings"
	"testing"

	"gobolt/internal/expr"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// lookupModel models a one-method lookup with hit/miss outcomes, like a
// flow-table get: hit returns a fresh port, miss returns nothing useful.
type lookupModel struct{}

func (lookupModel) Outcomes(method string, args []symb.Expr, fresh FreshFn) []Outcome {
	switch method {
	case "get":
		port := fresh("port")
		return []Outcome{
			{
				Label:       "hit",
				Results:     []symb.Expr{port, symb.C(1)},
				Domains:     map[string]symb.Domain{port.Name: {Lo: 0, Hi: 3}},
				Cost:        map[perf.Metric]expr.Poly{perf.Instructions: expr.Term(3, "t").Add(expr.Const(10))},
				PCVs:        []PCV{{Name: "t", Range: expr.Range{Lo: 0, Hi: 8}}},
				Constraints: nil,
			},
			{
				Label:   "miss",
				Results: []symb.Expr{symb.C(0), symb.C(0)},
				Cost:    map[perf.Metric]expr.Poly{perf.Instructions: expr.Const(7)},
			},
		}
	default:
		return []Outcome{{Label: "ok", Results: []symb.Expr{symb.C(0)}}}
	}
}

func symRouterProgram() *Program {
	return NewProgram("sym-router", 4, []Stmt{
		IfElse(Eq(Field(12, 2), C(0x0800)),
			[]Stmt{
				Invoke("table", "get", []Expr{Field(30, 4)}, "port", "found"),
				IfElse(Eq(L("found"), C(1)),
					[]Stmt{Fwd(L("port"))},
					[]Stmt{Drop()},
				),
			},
			[]Stmt{Drop()},
		),
	})
}

func explore(t *testing.T, p *Program, models map[string]Model) []*Path {
	t.Helper()
	en := &Engine{Models: models}
	paths, err := en.Explore(p)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestSymbolicPathEnumeration(t *testing.T) {
	paths := explore(t, symRouterProgram(), map[string]Model{"table": lookupModel{}})
	// Expect 3 paths: non-IPv4 drop, IPv4+hit forward, IPv4+miss drop.
	// (The model's "found" result is concrete per outcome, so the inner
	// If does not fork further.)
	if len(paths) != 3 {
		for _, p := range paths {
			t.Logf("path %d: action=%v events=%q constraints=%s",
				p.ID, p.Action, p.EventSummary(), symb.ConjString(p.Constraints))
		}
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	var forwards, drops int
	for _, p := range paths {
		switch p.Action {
		case ActionForward:
			forwards++
			if p.EventSummary() != "table.get:hit" {
				t.Errorf("forward path events = %q", p.EventSummary())
			}
			if p.PCVRanges["t"] != (expr.Range{Lo: 0, Hi: 8}) {
				t.Errorf("PCV range = %+v", p.PCVRanges["t"])
			}
		case ActionDrop:
			drops++
		}
	}
	if forwards != 1 || drops != 2 {
		t.Errorf("forwards=%d drops=%d", forwards, drops)
	}
}

func TestSymbolicInfeasiblePruned(t *testing.T) {
	p := NewProgram("contradiction", 0, []Stmt{
		IfElse(Eq(Field(0, 1), C(5)),
			[]Stmt{
				// Inside etherByte==5, the check etherByte==6 is dead.
				IfElse(Eq(Field(0, 1), C(6)),
					[]Stmt{Fwd(C(0))},
					[]Stmt{Drop()},
				),
			},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (dead branch pruned)", len(paths))
	}
	for _, pa := range paths {
		if pa.Action == ActionForward {
			t.Error("infeasible forward path survived")
		}
	}
}

func TestSymbolicStatelessCostMatchesConcrete(t *testing.T) {
	prog := symRouterProgram()
	paths := explore(t, prog, map[string]Model{"table": lookupModel{}})

	// Solve each path for a witness, replay concretely with a free stub
	// honouring the outcome, and compare stateless cost.
	for _, pa := range paths {
		var s symb.Solver
		model, res := s.Solve(pa.Constraints, pa.Domains)
		if res != symb.Sat {
			t.Fatalf("path %d: solver %v", pa.ID, res)
		}
		pkt := make([]byte, MaxPacket)
		for name, v := range model {
			if off, size, ok := ParseFieldSym(name); ok {
				putBE(pkt[off:], size, v)
			}
		}
		env := NewEnv()
		env.Meter = perf.NewMeter(nil)
		// Replay stub: return the witness values for the recorded events.
		idx := 0
		env.Link("table", replayStub{events: pa.Events, model: model, idx: &idx})
		env.ResetPacket(pkt, model[SymInPort], model[SymNow])
		act, err := env.Run(prog)
		if err != nil {
			t.Fatalf("path %d replay: %v", pa.ID, err)
		}
		if act.Kind != pa.Action {
			t.Errorf("path %d: action %v, want %v", pa.ID, act.Kind, pa.Action)
		}
		// The stub charges nothing, so the meter shows stateless cost
		// plus one OpCall per event, which the engine also charged.
		if got := env.Meter.Instructions(); got != pa.StatelessIC {
			t.Errorf("path %d: concrete IC %d != symbolic %d", pa.ID, got, pa.StatelessIC)
		}
		if got := env.Meter.MemAccesses(); got != pa.StatelessMA {
			t.Errorf("path %d: concrete MA %d != symbolic %d", pa.ID, got, pa.StatelessMA)
		}
	}
}

// replayStub replays recorded model outcomes using witness values.
type replayStub struct {
	events []CallEvent
	model  map[string]uint64
	idx    *int
}

func (r replayStub) Invoke(method string, args []uint64, env *Env) ([]uint64, error) {
	ev := r.events[*r.idx]
	*r.idx++
	out := make([]uint64, len(ev.Outcome.Results))
	for i, res := range ev.Outcome.Results {
		out[i] = res.Eval(r.model)
	}
	return out, nil
}

func TestSymbolicLoopUnrolling(t *testing.T) {
	// Count trailing option bytes equal to 1, up to 4: forks per length.
	p := NewProgram("optloop", 0, []Stmt{
		Set("i", C(0)),
		While{
			Cond:    And2(Lt(L("i"), C(4)), Eq(PktLoad{Off: Add(C(14), L("i")), Size: 1}, C(1))),
			MaxIter: 8,
			Body:    []Stmt{Set("i", Add(L("i"), C(1)))},
		},
		Fwd(L("i")),
	})
	paths := explore(t, p, nil)
	// i = 0..4 → 5 paths.
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5", len(paths))
	}
}

func TestSymbolicLoopBoundViolation(t *testing.T) {
	p := NewProgram("unbounded", 0, []Stmt{
		Set("i", C(0)),
		While{
			// Condition depends on a symbolic field and i never makes
			// it false structurally.
			Cond:    Ne(Field(0, 1), C(0)),
			MaxIter: 3,
			Body:    []Stmt{Set("i", Add(L("i"), C(1)))},
		},
		Drop(),
	})
	en := &Engine{Models: nil}
	if _, err := en.Explore(p); err == nil {
		t.Fatal("expected loop bound violation")
	}
}

// Path explosion protection: a program with many independent symbolic
// branches trips the path cap instead of hanging.
func TestExploreMaxPaths(t *testing.T) {
	var body []Stmt
	for i := uint64(0); i < 24; i++ {
		body = append(body, Then(
			Eq(Field(i, 1), C(1)),
			Set("x", C(i)),
		))
	}
	body = append(body, Drop())
	en := &Engine{maxPaths: 1000}
	if _, err := en.Explore(NewProgram("explode", 0, body)); err == nil {
		t.Fatal("expected MaxPaths error")
	} else if !strings.Contains(err.Error(), "MaxPaths=1000") {
		t.Fatalf("err = %v", err)
	}
}

func TestSymbolicPacketWriteVisibleToChain(t *testing.T) {
	p := NewProgram("nat-ish", 0, []Stmt{
		PktStore{Off: C(26), Size: 4, Val: C(0x0A000001)},
		Fwd(C(0)),
	})
	paths := explore(t, p, nil)
	if len(paths) != 1 {
		t.Fatalf("paths = %d", len(paths))
	}
	w, ok := paths[0].PktWrites[26]
	if !ok {
		t.Fatal("write at offset 26 not recorded")
	}
	if c, isConst := w.Val.(symb.Const); !isConst || c.V != 0x0A000001 {
		t.Errorf("write value = %v", w.Val)
	}
	if w.Size != 4 {
		t.Errorf("write size = %d", w.Size)
	}
}

func TestSymbolicWriteThenReadSeesValue(t *testing.T) {
	p := NewProgram("rw", 0, []Stmt{
		PktStore{Off: C(26), Size: 4, Val: C(7)},
		IfElse(Eq(Field(26, 4), C(7)),
			[]Stmt{Fwd(C(0))},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	if len(paths) != 1 || paths[0].Action != ActionForward {
		t.Fatalf("write-then-read must fold to a single forward path, got %d paths", len(paths))
	}
}

func TestSymbolicFieldSymCanonical(t *testing.T) {
	// Reading the same field twice yields one symbol, so the second
	// branch folds.
	p := NewProgram("canon", 0, []Stmt{
		IfElse(Eq(Field(12, 2), C(0x0800)),
			[]Stmt{
				IfElse(Eq(Field(12, 2), C(0x0800)),
					[]Stmt{Fwd(C(0))},
					[]Stmt{Drop()}),
			},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
}

func TestParseFieldSym(t *testing.T) {
	off, size, ok := ParseFieldSym(FieldSymName(30, 4))
	if !ok || off != 30 || size != 4 {
		t.Errorf("round trip failed: %d %d %v", off, size, ok)
	}
	for _, bad := range []string{"in_port", "now", "pkt_", "pkt_x_2", "pkt_1_z", "pkt_1", "foo"} {
		if _, _, ok := ParseFieldSym(bad); ok {
			t.Errorf("ParseFieldSym(%q) should fail", bad)
		}
	}
}

func TestSymbolicInPortDomain(t *testing.T) {
	p := NewProgram("portcheck", 2, []Stmt{
		IfElse(Eq(InPort{}, C(5)), // impossible: ports are 0..1
			[]Stmt{Fwd(C(0))},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	if len(paths) != 1 || paths[0].Action != ActionDrop {
		t.Fatalf("in_port=5 must be infeasible with 2 ports; got %d paths", len(paths))
	}
}

func TestEventSummaryAndInputSymbols(t *testing.T) {
	paths := explore(t, symRouterProgram(), map[string]Model{"table": lookupModel{}})
	for _, pa := range paths {
		if pa.Action == ActionForward {
			syms := pa.InputSymbols()
			// Constraints mention the ethertype field at least.
			found := false
			for _, s := range syms {
				if s == FieldSymName(12, 2) {
					found = true
				}
			}
			if !found {
				t.Errorf("InputSymbols = %v, missing ethertype", syms)
			}
		}
	}
}

// Regression: a narrow PktStore must truncate a wider symbolic value to
// the slot width, exactly as the concrete machine keeps only the low
// Size bytes. Before the fix, storing a 4-byte load into a 1-byte slot
// recorded the unmasked value, so a read-after-write branched on the
// full 32-bit quantity and diverged from concrete execution.
func TestPktStoreTruncatesWideValue(t *testing.T) {
	p := NewProgram("trunc-store", 0, []Stmt{
		PktStore{Off: C(10), Size: 1, Val: Field(25, 4)},
		IfElse(Lt(Field(10, 1), C(220)),
			[]Stmt{Fwd(C(0))},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	src := FieldSymName(25, 4)
	for _, pa := range paths {
		// Bind the source field to 0x200: the low byte is 0 (< 220), the
		// unmasked value is 512 (>= 220). Only the masked constraint puts
		// this binding on the Forward path.
		takesForward := symb.CheckModel(pa.Constraints, map[string]uint64{src: 0x200})
		switch pa.Action {
		case ActionForward:
			if !takesForward {
				t.Errorf("forward path constraint %s ignores store truncation", symb.ConjString(pa.Constraints))
			}
		case ActionDrop:
			if takesForward {
				t.Errorf("drop path constraint %s ignores store truncation", symb.ConjString(pa.Constraints))
			}
		}
		// The rewritten field recorded for chain composition must be the
		// truncated expression as well.
		w, ok := pa.PktWrites[10]
		if !ok || w.Size != 1 {
			t.Fatalf("missing 1-byte PktWrite at offset 10: %+v", pa.PktWrites)
		}
		if got := w.Val.Eval(map[string]uint64{src: 0x200}); got != 0 {
			t.Errorf("stored value = %d under src=0x200, want 0 (low byte)", got)
		}
	}
}

// A value that provably fits the slot must be stored untouched — no
// gratuitous mask wrapping (legacy constraint shapes depend on it).
func TestPktStoreKeepsFittingValue(t *testing.T) {
	p := NewProgram("fit-store", 0, []Stmt{
		PktStore{Off: C(10), Size: 1, Val: Field(25, 1)}, // 1-byte load fits
		IfElse(Lt(Field(10, 1), C(220)),
			[]Stmt{Fwd(C(0))},
			[]Stmt{Drop()},
		),
	})
	paths := explore(t, p, nil)
	for _, pa := range paths {
		if pa.Action != ActionForward {
			continue
		}
		want := "(" + FieldSymName(25, 1) + " < 220)"
		if got := symb.ConjString(pa.Constraints); got != want {
			t.Errorf("constraint = %s, want %s (unmasked)", got, want)
		}
	}
}
