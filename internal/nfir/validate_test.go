package nfir

import (
	"strings"
	"testing"
)

func errorsContain(errs []error, frag string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), frag) {
			return true
		}
	}
	return false
}

func TestValidateCleanProgram(t *testing.T) {
	p := NewProgram("clean", 2, []Stmt{
		Set("x", Field(12, 2)),
		IfElse(Eq(L("x"), C(0x0800)),
			[]Stmt{
				nfInvoke(),
				Fwd(L("port")),
			},
			[]Stmt{Drop()},
		),
	})
	if errs := p.Validate(map[string]bool{"lpm": true}); len(errs) != 0 {
		t.Fatalf("clean program reported: %v", errs)
	}
}

func nfInvoke() Stmt {
	return Invoke("lpm", "get", []Expr{Field(30, 4)}, "port")
}

func TestValidateMissingTerminator(t *testing.T) {
	p := NewProgram("noend", 0, []Stmt{Set("x", C(1))})
	if errs := p.Validate(nil); !errorsContain(errs, "Forward or Drop") {
		t.Errorf("errs = %v", errs)
	}
	// One-armed If does not terminate all paths.
	p2 := NewProgram("oneArm", 0, []Stmt{Then(Eq(Field(0, 1), C(1)), Drop())})
	if errs := p2.Validate(nil); !errorsContain(errs, "Forward or Drop") {
		t.Errorf("errs = %v", errs)
	}
}

func TestValidateUnassignedLocal(t *testing.T) {
	p := NewProgram("ghost", 0, []Stmt{Fwd(L("nope"))})
	if errs := p.Validate(nil); !errorsContain(errs, `unassigned local "nope"`) {
		t.Errorf("errs = %v", errs)
	}
	// A local defined in only one branch of an If is possibly unassigned
	// afterwards.
	p2 := NewProgram("branchdef", 0, []Stmt{
		IfElse(Eq(Field(0, 1), C(1)),
			[]Stmt{Set("y", C(1))},
			[]Stmt{Set("z", C(2))},
		),
		Fwd(L("y")),
	})
	if errs := p2.Validate(nil); !errorsContain(errs, `unassigned local "y"`) {
		t.Errorf("errs = %v", errs)
	}
	// But a local defined before a terminating branch survives.
	p3 := NewProgram("okdef", 0, []Stmt{
		IfElse(Eq(Field(0, 1), C(1)),
			[]Stmt{Drop()},
			[]Stmt{Set("y", C(2))},
		),
		Fwd(L("y")),
	})
	if errs := p3.Validate(nil); len(errs) != 0 {
		t.Errorf("terminating-branch definition rejected: %v", errs)
	}
}

func TestValidateOutOfBoundsAccess(t *testing.T) {
	p := NewProgram("oob", 0, []Stmt{Set("x", Field(MaxPacket, 2)), Drop()})
	if errs := p.Validate(nil); !errorsContain(errs, "exceeds MaxPacket") {
		t.Errorf("errs = %v", errs)
	}
	p2 := NewProgram("oobw", 0, []Stmt{PktStore{Off: C(MaxPacket - 1), Size: 4, Val: C(0)}, Drop()})
	if errs := p2.Validate(nil); !errorsContain(errs, "exceeds MaxPacket") {
		t.Errorf("errs = %v", errs)
	}
	p3 := NewProgram("badsize", 0, []Stmt{Set("x", Field(0, 3)), Drop()})
	if errs := p3.Validate(nil); !errorsContain(errs, "unsupported access size") {
		t.Errorf("errs = %v", errs)
	}
}

func TestValidateLoops(t *testing.T) {
	unbounded := NewProgram("loop", 0, []Stmt{
		Set("i", C(0)),
		While{Cond: Lt(L("i"), C(4)), Body: []Stmt{Set("i", Add(L("i"), C(1)))}},
		Drop(),
	})
	if errs := unbounded.Validate(nil); !errorsContain(errs, "MaxIter") {
		t.Errorf("errs = %v", errs)
	}
	alwaysExit := NewProgram("exitloop", 0, []Stmt{
		While{Cond: C(1), MaxIter: 3, Body: []Stmt{Drop()}},
		Drop(),
	})
	if errs := alwaysExit.Validate(nil); !errorsContain(errs, "terminates unconditionally") {
		t.Errorf("errs = %v", errs)
	}
	// Loop-body definitions must not leak (zero-iteration case).
	leak := NewProgram("leak", 0, []Stmt{
		Set("i", C(0)),
		While{Cond: Lt(L("i"), Field(0, 1)), MaxIter: 4, Body: []Stmt{
			Set("v", C(7)),
			Set("i", Add(L("i"), C(1))),
		}},
		Fwd(L("v")),
	})
	if errs := leak.Validate(nil); !errorsContain(errs, `unassigned local "v"`) {
		t.Errorf("errs = %v", errs)
	}
}

func TestValidateUnreachableAndRegistry(t *testing.T) {
	p := NewProgram("dead", 0, []Stmt{
		Drop(),
		Set("x", C(1)),
	})
	if errs := p.Validate(nil); !errorsContain(errs, "unreachable") {
		t.Errorf("errs = %v", errs)
	}
	p2 := NewProgram("ghostds", 0, []Stmt{
		Invoke("ghost", "m", nil),
		Drop(),
	})
	if errs := p2.Validate(map[string]bool{"real": true}); !errorsContain(errs, `unregistered data structure "ghost"`) {
		t.Errorf("errs = %v", errs)
	}
	// nil registry skips the DS check.
	if errs := p2.Validate(nil); errorsContain(errs, "unregistered") {
		t.Errorf("nil registry should skip DS check: %v", errs)
	}
}

// All shipped NFs must validate cleanly — this pins the validator to the
// real corpus.
func TestValidateShippedPrograms(t *testing.T) {
	progs := shippedPrograms(t)
	for _, tc := range progs {
		names := map[string]bool{}
		for n := range tc.ds {
			names[n] = true
		}
		if errs := tc.prog.Validate(names); len(errs) != 0 {
			t.Errorf("%s: %v", tc.prog.Name, errs)
		}
	}
}

type shipped struct {
	prog *Program
	ds   map[string]bool
}

// shippedPrograms is populated from the nf package via a tiny local
// mirror to avoid an import cycle (nf imports nfir); the real NFs are
// validated in the core integration tests instead, and here we cover a
// representative structural corpus.
func shippedPrograms(t *testing.T) []shipped {
	t.Helper()
	router := NewProgram("router", 4, []Stmt{
		Then(Ne(Field(12, 2), C(0x0800)), Drop()),
		Invoke("lpm", "get", []Expr{Field(30, 4)}, "port"),
		Fwd(L("port")),
	})
	return []shipped{{prog: router, ds: map[string]bool{"lpm": true}}}
}

// TestValidateWithSigs covers the signature-aware layer the bytecode
// compiler self-checks against: method existence, call arity, result
// binding and strict constant-port range — shapes a frontend bug would
// emit but hand-written builtins never do.
func TestValidateWithSigs(t *testing.T) {
	sigs := map[string]map[string]DSSig{
		"tbl": {
			"get": {Args: 2, Results: 2},
			"put": {Args: 3, Results: 1},
		},
	}
	base := func(body ...Stmt) *Program {
		return NewProgram("sig-test", 2, body)
	}
	cases := []struct {
		name string
		prog *Program
		want string // "" means must validate cleanly
	}{
		{
			name: "clean",
			prog: base(
				Invoke("tbl", "get", []Expr{C(1), Now{}}, "v", "ok"),
				IfElse(Eq(L("ok"), C(1)), []Stmt{Fwd(C(1))}, []Stmt{Drop()}),
			),
		},
		{
			name: "unknown method",
			prog: base(Invoke("tbl", "evict", []Expr{C(1)}, "v"), Drop()),
			want: `tbl has no method "evict"`,
		},
		{
			name: "arity mismatch",
			prog: base(Invoke("tbl", "get", []Expr{C(1)}, "v"), Drop()),
			want: "tbl.get wants 2 args, call passes 1",
		},
		{
			name: "excess result binding",
			prog: base(Invoke("tbl", "put", []Expr{C(1), C(2), Now{}}, "st", "extra"), Drop()),
			want: "tbl.put returns 1 results, call binds 2",
		},
		{
			name: "constant port out of range",
			prog: base(Fwd(C(7))),
			want: "forward to constant port 7 out of range (ports=2)",
		},
		{
			name: "undeclared data structure",
			prog: base(Invoke("ghost", "get", []Expr{C(1), Now{}}, "v"), Drop()),
			want: `call to unregistered data structure "ghost"`,
		},
		{
			name: "unbound result read",
			prog: base(
				Invoke("tbl", "get", []Expr{C(1), Now{}}, "v"),
				Fwd(L("missing")),
			),
			want: `"missing"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := tc.prog.ValidateWithSigs(sigs)
			if tc.want == "" {
				if len(errs) != 0 {
					t.Fatalf("clean program reported: %v", errs)
				}
				return
			}
			if !errorsContain(errs, tc.want) {
				t.Fatalf("errs = %v, want one containing %q", errs, tc.want)
			}
		})
	}
}

// TestValidateWithSigsKeepsFloodPorts pins that the strict port check
// lives only in the signature-aware layer: the base Validate must keep
// accepting the bridge's flood-port sentinel (0xFFFF ≥ NumPorts).
func TestValidateWithSigsKeepsFloodPorts(t *testing.T) {
	p := NewProgram("flood", 4, []Stmt{Fwd(C(0xFFFF))})
	if errs := p.Validate(nil); len(errs) != 0 {
		t.Fatalf("base Validate rejected the flood sentinel: %v", errs)
	}
	if errs := p.ValidateWithSigs(nil); !errorsContain(errs, "out of range") {
		t.Fatalf("strict validation accepted port 0xFFFF: %v", errs)
	}
}
