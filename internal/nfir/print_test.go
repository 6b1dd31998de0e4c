package nfir

import (
	"strings"
	"testing"
)

func TestProgramString(t *testing.T) {
	p := NewProgram("demo", 2, []Stmt{
		Set("ttl", Field(22, 1)),
		IfElse(Eq(Field(12, 2), C(0x0800)),
			[]Stmt{
				While{Cond: Lt(L("ttl"), C(5)), MaxIter: 8, Body: []Stmt{
					Set("ttl", Add(L("ttl"), C(1))),
				}},
				Invoke("table", "get", []Expr{Field(30, 4), Now{}}, "port", "found"),
				PktStore{Off: C(22), Size: 1, Val: L("ttl")},
				MemStore{Addr: C(0x100), Size: 8, Val: InPort{}},
				Fwd(L("port")),
			},
			[]Stmt{Drop()},
		),
	})
	out := p.String()
	for _, want := range []string{
		"nf demo(ports=2):",
		"ttl = pkt[22:1]",
		"if (pkt[12:2] == 0x800):",
		"while (ttl < 5) (max 8):",
		"port, found = table.get(pkt[30:4], now())",
		"pkt[22:1] = ttl",
		"mem[0x100:8] = in_port()",
		"FORWARD(port)",
		"else:",
		"DROP",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestExprString(t *testing.T) {
	cases := map[string]Expr{
		"(a + 3)":        Add(L("a"), C(3)),
		"!(a == 1)":      Not{X: Eq(L("a"), C(1))},
		"pkt_len()":      PktLen{},
		"mem[ptr:8]":     MemLoad{Addr: L("ptr"), Size: 8},
		"((a << 2) | b)": Bor(Shl(L("a"), C(2)), L("b")),
	}
	for want, e := range cases {
		if got := ExprString(e); got != want {
			t.Errorf("ExprString = %q, want %q", got, want)
		}
	}
}
