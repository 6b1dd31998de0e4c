package dslib

import (
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// NATMap is VigNAT's stateful core [paper refs 4, 47]: a double-sided
// flow map plus a port allocator. Internal packets are matched by their
// flow 5-tuple (three key words); external packets by the allocated
// external port, which indexes a direct-mapped array. Expiring a flow
// unlinks it from both sides and returns its port to the allocator, so
// the allocator's constants surface in the e coefficient — the effect
// the §5.3 allocator-selection experiment measures.
//
// IR methods:
//
//	expire(now)                  -> expired-count
//	lookup_int(k1,k2,k3, now)    -> extPort, found    (refreshes age)
//	lookup_ext(extPort, now)     -> intInfo, found    (refreshes age)
//	add(k1,k2,k3, intInfo, now)  -> extPort, status   (0 ok, 1 full)
type NATMap struct {
	cfg    NATMapConfig
	ch     *chains
	byPort []*centry
	alloc  PortAllocator

	byPortAddr uint64
}

// Add status codes.
const (
	AddStatusOK   = 0
	AddStatusFull = 1
)

// NATMapConfig configures the NAT map.
type NATMapConfig struct {
	Name string
	// Capacity bounds the number of concurrent flows.
	Capacity int
	Buckets  int
	// TimeoutNS and GranularityNS as in FlowTableConfig; GranularityNS
	// of one second reproduces the VigNAT expiry-batching bug (§5.3).
	TimeoutNS     uint64
	GranularityNS uint64
	Seed          uint64
	Costs         FlowTableCosts
	// FirstPort and PortCount define the external port range.
	FirstPort, PortCount int
}

// Fixed costs of the direct-mapped external-side operations.
var (
	natExtHit  = StepCost{ALU: 34, Branch: 6, Load: 8, Store: 4, Lines: 3}
	natExtMiss = StepCost{ALU: 16, Branch: 4, Load: 3, Lines: 1}
)

// NewNATMap builds the map with the given allocator implementation (the
// §5.3 experiment swaps AllocatorA for AllocatorB here).
func NewNATMap(env *nfir.Env, cfg NATMapConfig, alloc PortAllocator) *NATMap {
	if cfg.Buckets == 0 {
		cfg.Buckets = cfg.Capacity
	}
	if cfg.GranularityNS == 0 {
		cfg.GranularityNS = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x243f6a8885a308d3
	}
	return &NATMap{
		cfg:        cfg,
		ch:         newChains(env, cfg.Buckets, 3, seed),
		byPort:     make([]*centry, cfg.PortCount),
		alloc:      alloc,
		byPortAddr: env.Heap.Alloc(uint64(cfg.PortCount) * 8),
	}
}

// Count returns the number of live flows.
func (n *NATMap) Count() int { return n.ch.count }

// Allocator exposes the port allocator (for experiment setup).
func (n *NATMap) Allocator() PortAllocator { return n.alloc }

func (n *NATMap) quantize(now uint64) uint64 { return now - now%n.cfg.GranularityNS }

// SynthesizePathological fills the map with flows that all collide into
// one bucket and are long expired (the NAT1 worst-case state; see
// FlowTable.SynthesizePathological).
func (n *NATMap) SynthesizePathological(env *nfir.Env, count int) {
	created := n.ch.synthesize(env, count, n.cfg.Capacity, func(i int, keys []uint64) (uint64, bool) {
		port, ok := n.alloc.Alloc(nil2(env))
		keys[0], keys[1] = uint64(i)+1, uint64(i)+2
		return port<<48 | uint64(i), ok // val packs (extPort, intInfo48)
	})
	for _, e := range created {
		n.byPort[int(e.val>>48)-n.cfg.FirstPort] = e
	}
}

// nil2 returns an env whose meter discards (state synthesis is free).
func nil2(env *nfir.Env) *nfir.Env {
	cp := *env
	cp.Meter = nil
	return &cp
}

// Invoke implements nfir.ConcreteDS.
func (n *NATMap) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	switch method {
	case "expire":
		if len(args) != 1 {
			return nil, fmt.Errorf("natmap: expire wants (now)")
		}
		return env.Results(n.expire(env, args[0])), nil
	case "lookup_int":
		if len(args) != 4 {
			return nil, fmt.Errorf("natmap: lookup_int wants (k1,k2,k3, now)")
		}
		return n.lookupInt(env, args[:3], args[3]), nil
	case "lookup_ext":
		if len(args) != 2 {
			return nil, fmt.Errorf("natmap: lookup_ext wants (extPort, now)")
		}
		return n.lookupExt(env, args[0], args[1]), nil
	case "add":
		if len(args) != 5 {
			return nil, fmt.Errorf("natmap: add wants (k1,k2,k3, intInfo, now)")
		}
		return n.add(env, args[:3], args[3], args[4]), nil
	default:
		return nil, fmt.Errorf("natmap %s: unknown method %q", n.cfg.Name, method)
	}
}

func (n *NATMap) expire(env *nfir.Env, now uint64) uint64 {
	charge(env, n.cfg.Costs.ExpireCall, []uint64{n.ch.bucketsAddr}, false)
	var e uint64
	if n.cfg.TimeoutNS == 0 {
		env.ObservePCV(PCVExpired, 0)
		return 0
	}
	var sumT, sumC uint64
	for n.ch.oldest != nil && n.ch.oldest.stamp+n.cfg.TimeoutNS <= now {
		victim := n.ch.oldest
		wt, wc := n.ch.findEntry(env, victim, n.cfg.Costs.ExpireWalk)
		sumT += wt
		sumC += wc
		charge(env, n.cfg.Costs.ExpirePerEntry, []uint64{victim.addr, n.ch.bucketsAddr + uint64(victim.bucket)*8}, false)
		port := victim.val >> 48
		n.byPort[int(port)-n.cfg.FirstPort] = nil
		n.alloc.Free(env, port)
		n.ch.remove(victim)
		e++
	}
	// Per-entry means, as in FlowTable.expire: keeps e·t / e·c tight for
	// mass expiry (the paper's ≤2.4% pathological over-estimation).
	if e > 0 {
		env.ObservePCVMax(PCVTraversals, ceilDiv(sumT, e))
		env.ObservePCVMax(PCVCollisions, ceilDiv(sumC, e))
	}
	env.ObservePCV(PCVExpired, e)
	return e
}

func (n *NATMap) lookupInt(env *nfir.Env, keys []uint64, now uint64) []uint64 {
	ent, wt, wc := n.ch.walk(env, keys, n.cfg.Costs.GetWalk)
	env.ObservePCVMax(PCVTraversals, wt)
	env.ObservePCVMax(PCVCollisions, wc)
	if ent == nil {
		charge(env, n.cfg.Costs.GetMiss, []uint64{n.ch.bucketsAddr}, false)
		return env.Results(0, 0)
	}
	charge(env, n.cfg.Costs.GetHit, []uint64{ent.addr}, false)
	n.ch.refresh(ent, n.quantize(now))
	return env.Results(ent.val>>48, 1)
}

func (n *NATMap) lookupExt(env *nfir.Env, extPort, now uint64) []uint64 {
	idx := int(extPort) - n.cfg.FirstPort
	if idx < 0 || idx >= len(n.byPort) || n.byPort[idx] == nil {
		charge(env, natExtMiss, []uint64{n.byPortAddr + uint64(maxInt(idx, 0))*8}, false)
		return env.Results(0, 0)
	}
	ent := n.byPort[idx]
	charge(env, natExtHit, []uint64{n.byPortAddr + uint64(idx)*8, ent.addr}, true)
	n.ch.refresh(ent, n.quantize(now))
	return env.Results(ent.val&0xffff_ffff_ffff, 1)
}

func (n *NATMap) add(env *nfir.Env, keys []uint64, intInfo, now uint64) []uint64 {
	existing, wt, wc := n.ch.walk(env, keys, n.cfg.Costs.PutWalk)
	env.ObservePCVMax(PCVTraversals, wt)
	env.ObservePCVMax(PCVCollisions, wc)
	if existing != nil {
		// Idempotent add, as VigNAT's allocation path behaves: the flow
		// keeps its mapping and is refreshed. Covered by the "ok"
		// outcome's contract (which budgets for the costlier insert).
		charge(env, n.cfg.Costs.PutKnown, []uint64{existing.addr}, false)
		n.ch.refresh(existing, n.quantize(now))
		return env.Results(existing.val>>48, AddStatusOK)
	}
	if n.ch.count >= n.cfg.Capacity {
		charge(env, n.cfg.Costs.PutFull, []uint64{n.ch.bucketsAddr}, false)
		return env.Results(0, AddStatusFull)
	}
	port, ok := n.alloc.Alloc(env)
	if !ok {
		charge(env, n.cfg.Costs.PutFull, []uint64{n.ch.bucketsAddr}, false)
		return env.Results(0, AddStatusFull)
	}
	e := n.ch.insert(env, keys, port<<48|(intInfo&0xffff_ffff_ffff), n.quantize(now))
	for i := uint64(0); i < wt; i++ {
		charge(env, n.cfg.Costs.InsertPerTraversal, []uint64{e.addr}, true)
	}
	charge(env, n.cfg.Costs.PutNew, []uint64{e.addr, n.byPortAddr + (port-uint64(n.cfg.FirstPort))*8}, false)
	n.byPort[int(port)-n.cfg.FirstPort] = e
	return env.Results(port, AddStatusOK)
}

// Model returns the NAT map's symbolic model; the contract composes the
// chain quanta with the configured allocator's contract (paper §2.2:
// contracts compose recursively).
func (n *NATMap) Model() nfir.Model { return natModel{n: n} }

type natModel struct{ n *NATMap }

func (m natModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	cfg := m.n.cfg
	cap64 := uint64(cfg.Capacity)
	cPCVs := []nfir.PCV{
		{Name: PCVCollisions, Range: expr.Range{Lo: 0, Hi: cap64}},
		{Name: PCVTraversals, Range: expr.Range{Lo: 0, Hi: cap64}},
	}
	walkCost := func(w chainCosts) map[perf.Metric]expr.Poly {
		return buildCost(
			costTerm{w.Step, []string{PCVTraversals}},
			costTerm{w.Collision, []string{PCVCollisions}},
		)
	}
	fixed := func(s StepCost) map[perf.Metric]expr.Poly {
		return buildCost(costTerm{s.Add(m.n.ch.hashCost()), nil})
	}

	switch method {
	case "expire":
		e := fresh("expired")
		// Per expired entry: unlink + bucket walk + allocator free.
		perEntryFree := scaleCostByVar(m.n.alloc.FreeCost(), PCVExpired)
		cost := addCost(nil,
			buildCost(
				costTerm{cfg.Costs.ExpireCall, nil},
				costTerm{cfg.Costs.ExpirePerEntry, []string{PCVExpired}},
				costTerm{cfg.Costs.ExpireWalk.Step, []string{PCVExpired, PCVTraversals}},
				costTerm{cfg.Costs.ExpireWalk.Collision, []string{PCVExpired, PCVCollisions}},
			),
			perEntryFree,
		)
		return []nfir.Outcome{{
			Label:   "ok",
			Results: []symb.Expr{e},
			Domains: map[string]symb.Domain{e.Name: {Lo: 0, Hi: cap64}},
			Cost:    cost,
			PCVs: append([]nfir.PCV{
				{Name: PCVExpired, Range: expr.Range{Lo: 0, Hi: cap64}},
			}, cPCVs...),
		}}

	case "lookup_int":
		port := fresh("ext_port")
		return []nfir.Outcome{
			{
				Label:   "hit",
				Results: []symb.Expr{port, symb.C(1)},
				Domains: map[string]symb.Domain{port.Name: {Lo: uint64(cfg.FirstPort), Hi: uint64(cfg.FirstPort + cfg.PortCount - 1)}},
				Cost:    addCost(nil, fixed(cfg.Costs.GetHit), walkCost(cfg.Costs.GetWalk)),
				PCVs:    cPCVs,
			},
			{
				Label:   "miss",
				Results: []symb.Expr{symb.C(0), symb.C(0)},
				Cost:    addCost(nil, fixed(cfg.Costs.GetMiss), walkCost(cfg.Costs.GetWalk)),
				PCVs:    cPCVs,
			},
		}

	case "lookup_ext":
		info := fresh("int_info")
		return []nfir.Outcome{
			{
				Label:   "hit",
				Results: []symb.Expr{info, symb.C(1)},
				Domains: map[string]symb.Domain{info.Name: {Lo: 0, Hi: 0xffff_ffff_ffff}},
				Cost:    buildCost(costTerm{natExtHit, nil}),
			},
			{
				Label:   "miss",
				Results: []symb.Expr{symb.C(0), symb.C(0)},
				Cost:    buildCost(costTerm{natExtMiss, nil}),
			},
		}

	case "add":
		port := fresh("ext_port")
		okCost := addCost(nil,
			fixed(cfg.Costs.PutNew),
			walkCost(cfg.Costs.PutWalk),
			buildCost(costTerm{cfg.Costs.InsertPerTraversal, []string{PCVTraversals}}),
			m.n.alloc.AllocCost(),
		)
		return []nfir.Outcome{
			{
				Label:   "ok",
				Results: []symb.Expr{port, symb.C(AddStatusOK)},
				Domains: map[string]symb.Domain{port.Name: {Lo: uint64(cfg.FirstPort), Hi: uint64(cfg.FirstPort + cfg.PortCount - 1)}},
				Cost:    okCost,
				PCVs:    append(append([]nfir.PCV{}, cPCVs...), m.n.alloc.PCVs()...),
			},
			{
				Label:   "full",
				Results: []symb.Expr{symb.C(0), symb.C(AddStatusFull)},
				Cost: addCost(nil,
					fixed(cfg.Costs.PutFull),
					walkCost(cfg.Costs.PutWalk),
					m.n.alloc.AllocCost(), // exhaustion may be discovered by the allocator
				),
				PCVs: append(append([]nfir.PCV{}, cPCVs...), m.n.alloc.PCVs()...),
			},
		}
	default:
		return nil
	}
}

// scaleCostByVar multiplies every metric polynomial by a PCV (per-entry
// contract terms).
func scaleCostByVar(cost map[perf.Metric]expr.Poly, pcv string) map[perf.Metric]expr.Poly {
	out := map[perf.Metric]expr.Poly{}
	for m, p := range cost {
		out[m] = p.MulVar(pcv)
	}
	return out
}
