package dslib

import (
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// Patricia is the binary-trie LPM of the paper's running example (§2.1,
// Algorithm 1). Its published contract (Table 2) is
//
//	instructions: 4·l + 2      memory accesses: l + 1
//
// where l is the matched prefix length. The implementation descends one
// trie level per bit; a level costs 4 instructions and 1 memory access
// when the bit is 1 but only 3 instructions when it is 0 (the pointer
// arithmetic the paper describes compiling into conditional jumps), and
// the expert contract coalesces both into the worst case — exactly the
// §3.2 precision/legibility trade-off.
//
// IR method: get(ip) -> port.
type Patricia struct {
	root        *trieNode
	defaultPort uint64
	nodeAddrs   func() uint64
}

type trieNode struct {
	children [2]*trieNode
	port     uint64
	hasPort  bool
	addr     uint64
}

// Per-level and fixed step costs (4·l+2 IC, l+1 MA).
var (
	patriciaLevelBit1 = StepCost{ALU: 2, Branch: 1, Load: 1} // 4 IC, 1 MA
	patriciaLevelBit0 = StepCost{ALU: 1, Branch: 1, Load: 1} // 3 IC — coalesced to 4
	patriciaExit      = StepCost{ALU: 1, Load: 1}            // 2 IC, 1 MA
)

// NewPatricia builds an empty trie whose nodes draw simulated addresses
// from the environment's heap.
func NewPatricia(env *nfir.Env, defaultPort uint64) *Patricia {
	alloc := func() uint64 { return env.Heap.Alloc(64) }
	return &Patricia{
		root:        &trieNode{port: defaultPort, hasPort: true, addr: alloc()},
		defaultPort: defaultPort,
		nodeAddrs:   alloc,
	}
}

// AddRoute inserts prefix/length → port (control plane, unmetered).
func (p *Patricia) AddRoute(prefix uint32, length int, port uint64) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("patricia: prefix length %d out of range", length)
	}
	n := p.root
	for i := 0; i < length; i++ {
		bit := (prefix >> (31 - i)) & 1
		if n.children[bit] == nil {
			n.children[bit] = &trieNode{addr: p.nodeAddrs()}
		}
		n = n.children[bit]
	}
	n.port = port
	n.hasPort = true
	return nil
}

// Invoke implements nfir.ConcreteDS.
func (p *Patricia) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if method != "get" || len(args) != 1 {
		return nil, fmt.Errorf("patricia: unknown method %q/%d", method, len(args))
	}
	ip := uint32(args[0])
	n := p.root
	port, depth := p.defaultPort, uint64(0)
	if n.hasPort {
		port = n.port
	}
	for i := 0; i < 32; i++ {
		bit := (ip >> (31 - i)) & 1
		child := n.children[bit]
		if child == nil {
			break
		}
		if bit == 1 {
			charge(env, patriciaLevelBit1, []uint64{child.addr}, true)
		} else {
			charge(env, patriciaLevelBit0, []uint64{child.addr}, true)
		}
		n = child
		depth++
		if n.hasPort {
			port = n.port
		}
	}
	charge(env, patriciaExit, []uint64{n.addr}, true)
	env.ObservePCVMax(PCVPrefixLen, depth)
	return env.Results(port), nil
}

// Model implements the §3.3 symbolic model (Algorithm 3: return a fresh
// symbol) with the Table 2 contract attached.
func (p *Patricia) Model() nfir.Model { return patModel{} }

type patModel struct{}

func (patModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	if method != "get" {
		return nil
	}
	port := fresh("lpm_port")
	cost := buildCost(
		costTerm{patriciaLevelBit1, []string{PCVPrefixLen}}, // 4·l, 1·l MA
		costTerm{patriciaExit, nil},                         // +2, +1 MA
	)
	return []nfir.Outcome{{
		Label:   "ok",
		Results: []symb.Expr{port},
		Domains: map[string]symb.Domain{port.Name: {Lo: 0, Hi: 255}},
		Cost:    cost,
		PCVs:    []nfir.PCV{{Name: PCVPrefixLen, Range: expr.Range{Lo: 0, Hi: 32}}},
	}}
}
