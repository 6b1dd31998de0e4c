package nf

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBVMRosterEntries pins the bytecode NFs' presence in the shared
// roster: all four ship, each labeled with its source file, and the
// builtins keep their empty-provenance "builtin" label.
func TestBVMRosterEntries(t *testing.T) {
	byName := map[string]RosterEntry{}
	for _, e := range Roster() {
		byName[e.Name] = e
	}
	want := map[string]string{
		"bvm-ratelimit": "bvm:ratelimit.bvm",
		"bvm-acl":       "bvm:acl.bvm",
		"bvm-decap":     "bvm:decap.bvm",
		"bvm-scrub":     "bvm:scrub.bvm",
	}
	for name, prov := range want {
		e, ok := byName[name]
		if !ok {
			t.Errorf("roster is missing %q", name)
			continue
		}
		if e.Provenance != prov {
			t.Errorf("%s: provenance = %q, want %q", name, e.Provenance, prov)
		}
		if e.ProvenanceLabel() != prov {
			t.Errorf("%s: label = %q", name, e.ProvenanceLabel())
		}
		if e.Summary == "" {
			t.Errorf("%s: missing summary", name)
		}
	}
	if nat := byName["nat"]; nat.ProvenanceLabel() != "builtin" {
		t.Errorf("nat label = %q, want builtin", nat.ProvenanceLabel())
	}
}

// TestBVMBuildByName builds a bytecode NF exactly as the tools do and
// checks the instance is fully wired: compiled program, provenance,
// models and live data structures, honoring BuildParams overrides.
func TestBVMBuildByName(t *testing.T) {
	inst, err := Build("bvm-ratelimit", BuildParams{Capacity: 64, TimeoutNS: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Prog.Source != "bvm:ratelimit.bvm" {
		t.Errorf("Prog.Source = %q", inst.Prog.Source)
	}
	if len(inst.Models) == 0 {
		t.Fatal("instance not wired: no models")
	}
	if _, ok := inst.Env.Linked("sched"); !ok {
		t.Errorf("flow table %q not linked", "sched")
	}
}

// TestLoadBVMFile covers the -bvm path: loading a program from disk
// must agree with the roster build of the same file, including the
// basename-only provenance that keeps their cache keys aligned.
func TestLoadBVMFile(t *testing.T) {
	src, err := bvmFS.ReadFile("bvmdata/decap.bvm")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "decap.bvm")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	inst, err := LoadBVMFile(path, BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Prog.Source != "bvm:decap.bvm" {
		t.Errorf("Prog.Source = %q, want basename-keyed provenance", inst.Prog.Source)
	}
	fromRoster, err := Build("bvm-decap", BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.Prog.String(), fromRoster.Prog.String(); got != want {
		t.Errorf("file-loaded and roster programs diverge:\n%s\n---\n%s", got, want)
	}
}

// TestBVMUnitByName covers boltmon's interpreter seam.
func TestBVMUnitByName(t *testing.T) {
	unit, inst, err, ok := BVMUnit("bvm-scrub", BuildParams{})
	if !ok {
		t.Fatal("bvm-scrub not recognized as a bytecode NF")
	}
	if err != nil {
		t.Fatal(err)
	}
	if unit.BC.Name != "bvm-scrub" || inst.Prog.Source != "bvm:scrub.bvm" {
		t.Errorf("unit/instance mismatch: %q %q", unit.BC.Name, inst.Prog.Source)
	}
	if _, _, _, ok := BVMUnit("nat", BuildParams{}); ok {
		t.Error("builtin nat misreported as a bytecode NF")
	}
}

// TestBVMProgramsPrintProvenance pins the printed-identity rule: the
// source tag is part of the program header (and so of cache keys), and
// builtins' headers are unchanged.
func TestBVMProgramsPrintProvenance(t *testing.T) {
	inst, err := Build("bvm-acl", BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(inst.Prog.String(), "nf bvm-acl(ports=2, src=bvm:acl.bvm):") {
		t.Errorf("header = %q", strings.SplitN(inst.Prog.String(), "\n", 2)[0])
	}
	nat, err := Build("nat", BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(nat.Prog.String(), "\n", 2)[0], "src=") {
		t.Errorf("builtin header grew a src tag: %q", strings.SplitN(nat.Prog.String(), "\n", 2)[0])
	}
}
