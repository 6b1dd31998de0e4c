// Package dslib is the library of stateful NF data structures that BOLT's
// analysis builds on (paper §3.2): for every structure it provides
//
//   - a concrete implementation, instrumented to charge its exact cost to
//     the execution's Meter and to record the performance-critical
//     variables (PCVs) each call induced;
//   - a symbolic model used during symbolic execution, which replaces the
//     implementation and enumerates abstract outcomes (hit/miss,
//     inserted/full/rehash, …); and
//   - an expert-written performance contract per method and outcome —
//     polynomials over PCVs, folded into the model's outcomes.
//
// Contracts are conservative: for every execution, the metered cost is
// ≤ the contract evaluated at the observed PCVs. The deliberate gap
// (path coalescing, e.g. charging every key comparison as a full-length
// compare) reproduces the paper's ≤7% over-estimation.
//
// The structures provided are the ones the paper's four NFs need: a
// chained hash table with age-based expiry and an optional keyed-hash
// rehash defence (bridge MAC table, NAT and load-balancer flow tables),
// a DIR-24-8 two-tier LPM (DPDK's), a Patricia-trie LPM (the §2.1
// running example), two port allocators with different constant factors
// (§5.3), and a Maglev-style consistent-hash backend ring.
package dslib

import (
	"math"

	"gobolt/internal/expr"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
)

// Canonical PCV names, matching the paper's contracts.
const (
	PCVExpired    = "e" // entries expired by this packet
	PCVCollisions = "c" // hash collisions in one hash-table operation (max per packet)
	PCVTraversals = "t" // bucket-chain traversals in one operation (max per packet)
	PCVOccupancy  = "o" // table occupancy at rehash time
	PCVPrefixLen  = "l" // matched prefix length (LPM)
	PCVScan       = "s" // allocator scan length (allocator B)
	PCVOptions    = "n" // number of IP options processed
)

// StepCost is the instruction mix of one unit of data-structure work
// (a fixed method prologue, one chain traversal, one expired entry, …).
// It is the quantum contracts and charging share, so they cannot drift
// apart.
type StepCost struct {
	ALU    uint64
	Mul    uint64
	Branch uint64
	Load   uint64
	Store  uint64
	// Lines is the number of distinct cache lines the step's accesses
	// touch; accesses beyond the first on each line are provably L1D
	// hits in the conservative model (§3.5's spatial-locality tracking,
	// applied by the expert when writing the cycle contract). Zero means
	// "assume every access is a distinct line" (all DRAM).
	Lines uint64
}

// IC is the step's instruction count.
func (s StepCost) IC() uint64 { return s.ALU + s.Mul + s.Branch + s.Load + s.Store }

// MA is the step's memory-access count.
func (s StepCost) MA() uint64 { return s.Load + s.Store }

// ConsCycles is the step's conservative cycle cost: worst-case latency
// per compute op; one DRAM charge per distinct line, the rest provable
// L1D hits (paper §3.5).
func (s StepCost) ConsCycles() uint64 {
	dram := s.MA()
	if s.Lines > 0 && s.Lines < dram {
		dram = s.Lines
	}
	l1 := s.MA() - dram
	c := float64(s.ALU)*hwmodel.WorstALU +
		float64(s.Mul)*hwmodel.WorstMul +
		float64(s.Branch)*hwmodel.WorstBranch +
		float64(dram)*(hwmodel.MemIssue+hwmodel.LatDRAM) +
		float64(l1)*(hwmodel.MemIssue+hwmodel.LatL1)
	return uint64(math.Ceil(c))
}

// Add returns the component-wise sum.
func (s StepCost) Add(o StepCost) StepCost {
	return StepCost{
		ALU:    s.ALU + o.ALU,
		Mul:    s.Mul + o.Mul,
		Branch: s.Branch + o.Branch,
		Load:   s.Load + o.Load,
		Store:  s.Store + o.Store,
		Lines:  s.Lines + o.Lines,
	}
}

// charge meters one step. Memory operations touch the given addresses in
// order, cycling if the step has more accesses than addresses; loads come
// first, then stores. dep marks loads as pointer-chasing (dependent).
// Without a trace sink nothing can observe the individual operations, so
// the step is charged as two additions; with one, the sink receives the
// same event stream either way.
func charge(env *nfir.Env, s StepCost, addrs []uint64, dep bool) {
	m := env.Meter
	if m.Bulk(s.IC(), s.MA()) {
		return
	}
	m.Exec(perf.OpALU, s.ALU)
	m.Exec(perf.OpMul, s.Mul)
	m.Exec(perf.OpBranch, s.Branch)
	for i := uint64(0); i < s.Load; i++ {
		m.Load(stepAddr(addrs, i), 8, dep)
	}
	for i := uint64(0); i < s.Store; i++ {
		m.Store(stepAddr(addrs, s.Load+i), 8)
	}
}

// stepAddr is the address of a step's i-th memory operation.
func stepAddr(addrs []uint64, i uint64) uint64 {
	if len(addrs) == 0 {
		return 0
	}
	return addrs[i%uint64(len(addrs))]
}

// term builds a one-PCV contract term from a step cost: IC, MA and
// conservative cycles per unit of the PCV.
func term(s StepCost, pcvs ...string) map[perf.Metric]expr.Poly {
	return map[perf.Metric]expr.Poly{
		perf.Instructions: expr.Term(s.IC(), pcvs...),
		perf.MemAccesses:  expr.Term(s.MA(), pcvs...),
		perf.Cycles:       expr.Term(s.ConsCycles(), pcvs...),
	}
}

// addCost sums contract-cost maps metric-wise.
func addCost(dst map[perf.Metric]expr.Poly, srcs ...map[perf.Metric]expr.Poly) map[perf.Metric]expr.Poly {
	if dst == nil {
		dst = map[perf.Metric]expr.Poly{}
	}
	for _, src := range srcs {
		for m, p := range src {
			dst[m] = dst[m].Add(p)
		}
	}
	return dst
}

// ceilDiv is ⌈a/b⌉ for b > 0.
func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// costOf composes a contract cost map from (step, PCV-monomial) pairs.
type costTerm struct {
	step StepCost
	pcvs []string
}

func buildCost(terms ...costTerm) map[perf.Metric]expr.Poly {
	out := map[perf.Metric]expr.Poly{}
	for _, t := range terms {
		out = addCost(out, term(t.step, t.pcvs...))
	}
	return out
}
