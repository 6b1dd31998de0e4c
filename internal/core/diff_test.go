package core

import (
	"strings"
	"testing"

	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/packet"
	"gobolt/internal/perf"
)

func exampleContract(t *testing.T, defaultPort uint64) *Contract {
	t.Helper()
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4, DefaultPort: defaultPort})
	ct, err := (&Generator{}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestDiffIdenticalContracts(t *testing.T) {
	a := exampleContract(t, 0)
	b := exampleContract(t, 0)
	entries := Diff(a, b, perf.Instructions)
	if len(entries) != 0 {
		t.Fatalf("identical contracts diff: %+v", entries)
	}
	if got := RenderDiff(entries, perf.Instructions); !strings.Contains(got, "no contract changes") {
		t.Errorf("render = %q", got)
	}
}

// A "new version" of the example router that does extra per-packet work
// on valid packets: the diff must flag the regression on exactly that
// class.
func TestDiffDetectsRegression(t *testing.T) {
	old := exampleContract(t, 0)

	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	// Developer adds a (costly) checksum fixup to the forwarding path.
	ex.Prog = nfir.NewProgram("example-lpm", 4, []nfir.Stmt{
		nfir.IfElse(nfir.Eq(nfir.Field(packet.OffEtherType, 2), nfir.C(0x0800)),
			[]nfir.Stmt{
				nfir.Set("cs", nfir.Field(24, 2)),
				nfir.PktStore{Off: nfir.C(24), Size: 2, Val: nfir.Add(nfir.L("cs"), nfir.C(1))},
				nfir.Invoke("lpm", "get", []nfir.Expr{nfir.Field(packet.OffDstIP, 4)}, "port"),
				nfir.Fwd(nfir.L("port")),
			},
			[]nfir.Stmt{nfir.Drop()},
		),
	})
	newCt, err := (&Generator{}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}

	entries := Diff(old, newCt, perf.Instructions)
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	e := entries[0]
	if e.Kind != "changed" || e.Verdict != "regression" {
		t.Fatalf("entry = %+v", e)
	}
	if !strings.Contains(e.Class, "forward") {
		t.Errorf("regression reported on %q, want the forwarding class", e.Class)
	}
	if !HasRegression(entries) {
		t.Error("HasRegression = false")
	}
	out := RenderDiff(entries, perf.Instructions)
	if !strings.Contains(out, "→") || !strings.Contains(out, "regression") {
		t.Errorf("render = %q", out)
	}

	// The reverse diff reads as an improvement.
	rev := Diff(newCt, old, perf.Instructions)
	if len(rev) != 1 || rev[0].Verdict != "improvement" {
		t.Fatalf("reverse = %+v", rev)
	}
	if HasRegression(rev) {
		t.Error("improvement flagged as regression")
	}
}

func TestDiffAddedAndRemovedClasses(t *testing.T) {
	// The bridge with and without the rehash defence differ in class
	// structure: the defended version has an extra put:rehash class.
	plain := nf.NewBridge(nf.BridgeConfig{Ports: 4, Capacity: 64, TimeoutNS: 1})
	defended := nf.NewBridge(nf.BridgeConfig{Ports: 4, Capacity: 64, TimeoutNS: 1, RehashThreshold: 4})
	g := NewGenerator()
	a, err := g.Generate(plain.Prog, plain.Models)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(defended.Prog, defended.Models)
	if err != nil {
		t.Fatal(err)
	}
	entries := Diff(a, b, perf.Instructions)
	var added int
	for _, e := range entries {
		if e.Kind == "added" && strings.Contains(e.Class, "rehash") {
			added++
			if e.Verdict != "regression" {
				t.Errorf("new class verdict = %s", e.Verdict)
			}
		}
	}
	if added == 0 {
		t.Errorf("no rehash classes reported as added: %+v", entries)
	}
}
