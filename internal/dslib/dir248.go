package dslib

import (
	"fmt"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// Dir248 is DPDK's DIR-24-8 two-tier LPM table [paper ref 3], used by the
// evaluated LPM router. Lookups for prefixes of length ≤ 24 read one
// entry in the 2^24-wide first tier; longer prefixes take a second read
// in an 8-bit second-tier group. This structure is what makes the
// paper's two LPM input classes (LPM1: unconstrained / two reads, LPM2:
// ≤ 24-bit matches / one read) structural rather than data-dependent.
//
// IR method: get(ip) -> port.
type Dir248 struct {
	tbl24 []uint16
	tbl8  []uint16
	// depth24 tracks the prefix length that wrote each tbl24 slot so
	// longer prefixes are never overwritten by shorter ones.
	depth24 []uint8
	depth8  []uint8

	tbl24Addr, tbl8Addr uint64
	defaultPort         uint16
	groups              int
}

const (
	dirExtFlag = 0x8000 // tbl24 value is a tbl8 group index
	dirTbl24   = 1 << 24
	dirTbl8    = 256
)

// Lookup step costs. The two outcomes are the paper's LPM2 (one read)
// and LPM1 (two reads) classes.
var (
	dir248First  = StepCost{ALU: 4, Branch: 1, Load: 1} // shift, index, bound-check, read
	dir248Second = StepCost{ALU: 3, Branch: 1, Load: 1}
)

// NewDir248 builds an empty table with the given default port and room
// for maxGroups second-tier groups.
func NewDir248(env *nfir.Env, defaultPort uint16, maxGroups int) *Dir248 {
	d := &Dir248{
		tbl24:       make([]uint16, dirTbl24),
		depth24:     make([]uint8, dirTbl24),
		tbl8:        make([]uint16, 0, maxGroups*dirTbl8),
		defaultPort: defaultPort,
	}
	for i := range d.tbl24 {
		d.tbl24[i] = defaultPort
	}
	d.tbl24Addr = env.Heap.Alloc(uint64(dirTbl24) * 2)
	d.tbl8Addr = env.Heap.Alloc(uint64(maxGroups) * dirTbl8 * 2)
	d.groups = maxGroups
	return d
}

// AddRoute installs prefix/length → port (control plane, unmetered).
func (d *Dir248) AddRoute(prefix uint32, length int, port uint16) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("dir248: prefix length %d out of range", length)
	}
	if port >= dirExtFlag {
		return fmt.Errorf("dir248: port %d exceeds 15 bits", port)
	}
	prefix &= ^uint32(0) << (32 - length)
	if length == 0 {
		prefix = 0
	}
	if length <= 24 {
		start := prefix >> 8
		count := uint32(1) << (24 - length)
		for i := start; i < start+count; i++ {
			if d.tbl24[i]&dirExtFlag != 0 {
				// Propagate into the existing group where not shadowed.
				g := int(d.tbl24[i] &^ dirExtFlag)
				for j := 0; j < dirTbl8; j++ {
					idx := g*dirTbl8 + j
					if d.depth8[idx] <= uint8(length) {
						d.tbl8[idx] = port
						d.depth8[idx] = uint8(length)
					}
				}
			} else if d.depth24[i] <= uint8(length) {
				d.tbl24[i] = port
				d.depth24[i] = uint8(length)
			}
		}
		return nil
	}
	// Long prefix: route through a tbl8 group.
	slot := prefix >> 8
	var g int
	if d.tbl24[slot]&dirExtFlag != 0 {
		g = int(d.tbl24[slot] &^ dirExtFlag)
	} else {
		if len(d.tbl8)/dirTbl8 >= d.groups {
			return fmt.Errorf("dir248: out of tbl8 groups (max %d)", d.groups)
		}
		g = len(d.tbl8) / dirTbl8
		base := d.tbl24[slot]
		baseDepth := d.depth24[slot]
		for j := 0; j < dirTbl8; j++ {
			d.tbl8 = append(d.tbl8, base)
			d.depth8 = append(d.depth8, baseDepth)
		}
		d.tbl24[slot] = dirExtFlag | uint16(g)
		d.depth24[slot] = 24 // slot now owned by the group
	}
	start := int(prefix & 0xff)
	count := 1 << (32 - length)
	for j := start; j < start+count; j++ {
		idx := g*dirTbl8 + j
		if d.depth8[idx] <= uint8(length) {
			d.tbl8[idx] = port
			d.depth8[idx] = uint8(length)
		}
	}
	return nil
}

// Invoke implements nfir.ConcreteDS.
func (d *Dir248) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if method != "get" || len(args) != 1 {
		return nil, fmt.Errorf("dir248: unknown method %q/%d", method, len(args))
	}
	ip := uint32(args[0])
	slot := ip >> 8
	charge(env, dir248First, []uint64{d.tbl24Addr + uint64(slot)*2}, false)
	v := d.tbl24[slot]
	if v&dirExtFlag == 0 {
		env.ObservePCVMax(PCVPrefixLen, uint64(d.depth24[slot]))
		// The short and long outcomes both return one port value, so the
		// branch taken is invisible in the results; report it explicitly.
		env.ObserveOutcome("short")
		return env.Results(uint64(v)), nil
	}
	g := int(v &^ dirExtFlag)
	idx := g*dirTbl8 + int(ip&0xff)
	charge(env, dir248Second, []uint64{d.tbl8Addr + uint64(idx)*2}, true)
	env.ObservePCVMax(PCVPrefixLen, uint64(d.depth8[idx]))
	env.ObserveOutcome("long")
	return env.Results(uint64(d.tbl8[idx])), nil
}

// ExtendedSlots lists the tbl24 slots routed through a second-tier
// group — the slots whose addresses take the expensive two-read path.
// The CASTAN-substitute adversarial generator uses it the way CASTAN
// used whitebox knowledge of the LPM structure (paper §5.1: LPM1).
func (d *Dir248) ExtendedSlots() []uint32 {
	var out []uint32
	for i, v := range d.tbl24 {
		if v&dirExtFlag != 0 {
			out = append(out, uint32(i))
		}
	}
	return out
}

// Model returns the two-outcome symbolic model: "short" (≤ 24-bit match,
// one table read) and "long" (two reads).
func (d *Dir248) Model() nfir.Model { return dirModel{} }

type dirModel struct{}

func (dirModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	if method != "get" {
		return nil
	}
	shortPort := fresh("lpm_port")
	longPort := fresh("lpm_port")
	return []nfir.Outcome{
		{
			Label:   "short",
			Results: []symb.Expr{shortPort},
			Domains: map[string]symb.Domain{shortPort.Name: {Lo: 0, Hi: dirExtFlag - 1}},
			Cost:    buildCost(costTerm{dir248First, nil}),
		},
		{
			Label:   "long",
			Results: []symb.Expr{longPort},
			Domains: map[string]symb.Domain{longPort.Name: {Lo: 0, Hi: dirExtFlag - 1}},
			Cost:    buildCost(costTerm{dir248First, nil}, costTerm{dir248Second, nil}),
		},
	}
}
