// Bytecode roster entries: NFs that are data, not Go code. Every .bvm
// file under bvmdata/ is embedded, assembled at init and registered
// into the roster next to the builtins — reachable by name from every
// tool, parameterized by the same BuildParams, cached under the same
// content-addressed keys.
package nf

import (
	"embed"
	"fmt"
	"sort"

	"gobolt/internal/bvm"
)

//go:embed bvmdata/*.bvm
var bvmFS embed.FS

// bvmSummaries gives the shipped bytecode NFs the same one-line help
// the builtins have; unknown names fall back to a generic line.
var bvmSummaries = map[string]string{
	"bvm-ratelimit": "token-bucket rate limiter per source IP (bytecode)",
	"bvm-acl":       "direction-aware stateful ACL with expiring pinholes (bytecode)",
	"bvm-decap":     "IPv4-in-IPv4 tunnel terminator with LPM fan-out (bytecode)",
	"bvm-scrub":     "DDoS scrubber counting per-source packets per window (bytecode)",
}

func init() {
	for _, file := range bvmFiles() {
		src, err := bvmFS.ReadFile("bvmdata/" + file)
		if err != nil {
			panic("nf: embedded bvmdata: " + err.Error())
		}
		text := string(src)
		provenance := "bvm:" + file
		// Assemble once now so a broken shipped program fails loudly at
		// startup (with its diagnostic) rather than at first use.
		prog, err := bvm.Assemble(text)
		if err != nil {
			panic(fmt.Sprintf("nf: %s: %v", file, err))
		}
		summary := bvmSummaries[prog.Name]
		if summary == "" {
			summary = "bytecode NF from " + file
		}
		roster = append(roster, RosterEntry{
			Name:       prog.Name,
			Summary:    summary,
			Provenance: provenance,
			Build:      bvmBuilder(text, provenance),
		})
	}
}

// bvmBuilder closes over one .bvm source: each Build verifies, compiles
// and instantiates it fresh, honoring the capacity/timeout overrides
// the builtins honor so cache keys line up across tools.
func bvmBuilder(src, provenance string) func(BuildParams) (*Instance, error) {
	return func(p BuildParams) (*Instance, error) {
		unit, err := bvm.Load(src, bvm.Options{
			Source: provenance,
			Build:  bvm.BuildOptions{Capacity: p.Capacity, TimeoutNS: p.TimeoutNS},
		})
		if err != nil {
			return nil, err
		}
		return newBVMInstance(unit)
	}
}

// newBVMInstance wires a loaded bytecode unit into a roster Instance.
func newBVMInstance(unit *bvm.Unit) (*Instance, error) {
	in := newInstance()
	in.Prog = unit.Prog
	models, err := unit.Instantiate(in.Env)
	if err != nil {
		return nil, err
	}
	for name, m := range models {
		in.Models[name] = m
	}
	return in, nil
}

// LoadBVMFile builds an Instance from a .bvm file on disk — the -bvm
// flag of bolt/boltmon/boltbench. Provenance (and therefore the
// contract cache key) uses the file's basename, so a file loaded by
// path and the same program shipped in the roster agree.
func LoadBVMFile(path string, p BuildParams) (*Instance, error) {
	unit, err := bvm.LoadFile(path, bvm.BuildOptions{Capacity: p.Capacity, TimeoutNS: p.TimeoutNS})
	if err != nil {
		return nil, err
	}
	return newBVMInstance(unit)
}

// LoadBVMUnit loads a .bvm file and returns both the unit (for tools
// that need the bytecode itself, like boltmon's interpreter-driven
// watch) and a fresh Instance.
func LoadBVMUnit(path string, p BuildParams) (*bvm.Unit, *Instance, error) {
	unit, err := bvm.LoadFile(path, bvm.BuildOptions{Capacity: p.Capacity, TimeoutNS: p.TimeoutNS})
	if err != nil {
		return nil, nil, err
	}
	inst, err := newBVMInstance(unit)
	if err != nil {
		return nil, nil, err
	}
	return unit, inst, nil
}

// BVMUnit loads a roster bytecode NF's unit by name (nil, false when
// name is not a bytecode roster entry). boltmon uses it to drive the
// interpreter over roster NFs.
func BVMUnit(name string, p BuildParams) (*bvm.Unit, *Instance, error, bool) {
	for _, file := range bvmFiles() {
		src, err := bvmFS.ReadFile("bvmdata/" + file)
		if err != nil {
			continue
		}
		prog, err := bvm.Assemble(string(src))
		if err != nil || prog.Name != name {
			continue
		}
		unit, err := bvm.Load(string(src), bvm.Options{
			Source: "bvm:" + file,
			Build:  bvm.BuildOptions{Capacity: p.Capacity, TimeoutNS: p.TimeoutNS},
		})
		if err != nil {
			return nil, nil, err, true
		}
		inst, err := newBVMInstance(unit)
		return unit, inst, err, true
	}
	return nil, nil, nil, false
}

func bvmFiles() []string {
	entries, err := bvmFS.ReadDir("bvmdata")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}
