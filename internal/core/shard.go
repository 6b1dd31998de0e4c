package core

// This file is the shard dimension of performance contracts: a static
// sharability analysis over the stateful calls of each explored path,
// and the shard-aware evaluation it enables.
//
// The model (after the Automatic Parallelization of Software Network
// Functions line of work, see PAPERS.md): the NF runs S instances
// ("shards"), an RSS-style dispatcher routes each packet to the shard
// owning its flow (monitor.FlowKey mod S), and the only extra per-packet
// cost relative to one core is cache-coherence traffic on state that
// more than one shard mutates. A stateful call is
//
//   - shard-local when it is keyed and its key pins the flow-hash
//     fields of the path's traffic class: the dispatcher then guarantees
//     every packet that can touch a given entry lands on the same
//     shard, so the entry's cache lines never migrate;
//   - shared-ro when it only reads state nothing mutates per packet
//     (rulesets, tries, the Maglev ring): such state replicates per
//     core for free;
//   - shared-rw otherwise (expiry sweeps, port allocators, heartbeat
//     stamps): each of its memory accesses can find its line dirty in a
//     remote cache, charged conservatively at hwmodel.WorstXfer cycles
//     per contending shard.
//
// The resulting per-path bound is
//
//	cycles(S) ≤ Cost[Cycles] + WorstXfer·(S−1)·SharedMA
//
// which collapses to today's single-core bound at S=1 — the shard
// dimension is strictly additive (FuzzShardBound pins this).
// internal/experiments.ShardBench validates the bound against a
// detailed per-shard simulation with a coherence directory
// (hwmodel.ShardSim).

import (
	"gobolt/internal/expr"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// flowHashEthertype mirrors the dispatcher's IPv4 discriminator: the
// 16-bit field at packet offset 12 (monitor.FlowKey checks
// pkt[12:14] == 0x0800).
const flowHashEthertype = 0x0800

// hashFields is the set of packet inputs the dispatcher's flow hash
// reads for the packets of one path: whichever of these a keyed call's
// key does not determine could hash to a different shard while still
// reaching the same entry.
type hashFields struct {
	bytes  map[uint64]bool
	inPort bool
}

// ipv4HashFields: protocol byte plus the source and destination
// addresses (monitor.FlowKey bytes 23, 26..33).
func ipv4HashFields() hashFields {
	h := hashFields{bytes: make(map[uint64]bool, 9)}
	h.bytes[23] = true
	for b := uint64(26); b < 34; b++ {
		h.bytes[b] = true
	}
	return h
}

// fallbackHashFields: the first 14 bytes (the Ethernet header) plus the
// ingress port, monitor.FlowKey's non-IPv4 fallback.
func fallbackHashFields() hashFields {
	h := hashFields{bytes: make(map[uint64]bool, 14), inPort: true}
	for b := uint64(0); b < 14; b++ {
		h.bytes[b] = true
	}
	return h
}

func mergeHashFields(a, b hashFields) hashFields {
	out := hashFields{bytes: make(map[uint64]bool, len(a.bytes)+len(b.bytes)), inPort: a.inPort || b.inPort}
	for k := range a.bytes {
		out.bytes[k] = true
	}
	for k := range b.bytes {
		out.bytes[k] = true
	}
	return out
}

// pathHashFields decides which flow-hash fields the dispatcher reads for
// the packets selected by the path's constraints, by refutation: if
// "this path and not IPv4" is infeasible, every packet on the path
// hashes over the IPv4 fields; if "this path and IPv4" is infeasible,
// every packet hashes over the fallback fields; if neither is refutable
// the path admits both kinds and a key must pin the union
// (conservative — an incomplete solver can only widen the requirement,
// never shrink it).
//
// Packets shorter than the IPv4 header also fall back; NF programs do
// not constrain pkt_len, so the analysis assumes well-formed traffic
// (≥ 34-byte packets), the same assumption the roster programs' field
// reads already make.
func pathHashFields(pa *nfir.Path) hashFields {
	eth := symb.S(nfir.FieldSymName(12, 2))
	with := func(extra symb.Expr) []symb.Expr {
		cs := make([]symb.Expr, 0, len(pa.Constraints)+1)
		cs = append(cs, pa.Constraints...)
		return append(cs, extra)
	}
	if !shardSolver.Feasible(with(symb.B(symb.Ne, eth, symb.C(flowHashEthertype))), pa.Domains) {
		return ipv4HashFields()
	}
	if !shardSolver.Feasible(with(symb.B(symb.Eq, eth, symb.C(flowHashEthertype))), pa.Domains) {
		return fallbackHashFields()
	}
	return mergeHashFields(ipv4HashFields(), fallbackHashFields())
}

// keyCover is the set of flow-hash inputs recoverable from a key
// expression: the key pins a field when the field's bytes can be read
// back out of the key value.
type keyCover struct {
	bytes  map[uint64]bool
	inPort bool
}

// argCover analyses one key argument. It recognises the invertible
// expression forms NF programs build keys from — packet-field symbols,
// constants, shifts by constants, and or/add of parts with disjoint bit
// ranges — and reports which packet bytes the argument determines plus
// the bit mask the value may occupy (for the disjointness check).
// Anything else (masked fields, model results, arithmetic with carries)
// is not invertible and contributes nothing, which can only demote a
// call towards shared — never unsoundly towards local.
func argCover(e symb.Expr) (keyCover, uint64, bool) {
	switch x := e.(type) {
	case symb.Const:
		return keyCover{}, x.V, true
	case symb.Sym:
		if off, size, ok := nfir.ParseFieldSym(x.Name); ok {
			cov := keyCover{bytes: make(map[uint64]bool, size)}
			for b := uint64(0); b < uint64(size); b++ {
				cov.bytes[off+b] = true
			}
			occ := ^uint64(0)
			if size < 8 {
				occ = (uint64(1) << (8 * uint(size))) - 1
			}
			return cov, occ, true
		}
		if x.Name == nfir.SymInPort {
			return keyCover{inPort: true}, ^uint64(0), true
		}
		return keyCover{}, 0, false
	case symb.Bin:
		switch x.Op {
		case symb.Shl:
			c, ok := x.R.(symb.Const)
			if !ok || c.V >= 64 {
				return keyCover{}, 0, false
			}
			cov, occ, ok := argCover(x.L)
			if !ok || (occ<<c.V)>>c.V != occ {
				// Shifting out occupied bits destroys them.
				return keyCover{}, 0, false
			}
			return cov, occ << c.V, true
		case symb.Or, symb.Add:
			lc, locc, lok := argCover(x.L)
			rc, rocc, rok := argCover(x.R)
			if !lok || !rok || locc&rocc != 0 {
				// Overlapping bits (or add-carries into them) make the
				// parts unrecoverable.
				return keyCover{}, 0, false
			}
			merged := keyCover{
				bytes:  make(map[uint64]bool, len(lc.bytes)+len(rc.bytes)),
				inPort: lc.inPort || rc.inPort,
			}
			for b := range lc.bytes {
				merged.bytes[b] = true
			}
			for b := range rc.bytes {
				merged.bytes[b] = true
			}
			return merged, locc | rocc, true
		}
	}
	return keyCover{}, 0, false
}

// keyPins reports whether the call's key arguments jointly determine
// every flow-hash field of the path: then two packets reaching the same
// entry necessarily have equal hash fields, hash to the same shard, and
// the entry is shard-local under flow-hash dispatch.
func keyPins(args []symb.Expr, keyArgs []int, need hashFields) bool {
	cover := keyCover{bytes: make(map[uint64]bool)}
	for _, i := range keyArgs {
		if i < 0 || i >= len(args) {
			continue
		}
		c, _, ok := argCover(args[i])
		if !ok {
			continue
		}
		cover.inPort = cover.inPort || c.inPort
		for b := range c.bytes {
			cover.bytes[b] = true
		}
	}
	if need.inPort && !cover.inPort {
		return false
	}
	for b := range need.bytes {
		if !cover.bytes[b] {
			return false
		}
	}
	return true
}

// annotateSharing classifies every stateful call of the path, writing
// the verdicts into the path's CallEvents (shared by the PathContract's
// Trace and by the cached raw path, so stored artifacts carry them).
// The default at every decision point is shared-rw: absence of a
// sharability model, an undescribed method, or an unanalysable key all
// cost contention, never soundness.
func annotateSharing(pa *nfir.Path, models map[string]nfir.Model) {
	var hash hashFields
	haveHash := false
	for i := range pa.Events {
		ev := &pa.Events[i]
		sm, ok := models[ev.DS].(nfir.SharabilityModel)
		if !ok {
			ev.Sharing = nfir.Sharing{Class: nfir.SharingSharedRW, Reason: "no sharability model"}
			continue
		}
		sa, ok := sm.StateAccess(ev.Method)
		if !ok {
			ev.Sharing = nfir.Sharing{Class: nfir.SharingSharedRW, Reason: "method not described by sharability model"}
			continue
		}
		ev.Sharing = classify(sa, func() bool {
			if !haveHash {
				hash = pathHashFields(pa)
				haveHash = true
			}
			return keyPins(ev.Args, sa.KeyArgs, hash)
		})
	}
}

// classify derives the verdict from a method's StateAccess; pins is
// consulted lazily (the hash-field queries run only for keyed methods).
func classify(sa nfir.StateAccess, pins func() bool) nfir.Sharing {
	reason := func(generic string) string {
		if sa.Reason != "" {
			return sa.Reason
		}
		return generic
	}
	switch {
	case sa.Shared:
		return nfir.Sharing{Class: nfir.SharingSharedRW, Reason: reason("touches shared global state")}
	case sa.Keyed && pins():
		return nfir.Sharing{Class: nfir.SharingLocal, Reason: "key pins the flow-hash fields"}
	case sa.ReadOnly:
		return nfir.Sharing{Class: nfir.SharingSharedRO, Reason: reason("read-only state replicates per shard")}
	case sa.Keyed:
		return nfir.Sharing{Class: nfir.SharingSharedRW, Reason: reason("key does not pin the flow-hash fields")}
	default:
		return nfir.Sharing{Class: nfir.SharingSharedRW, Reason: reason("mutates cross-flow state")}
	}
}

// EffectiveSharedMA is the shared-MA polynomial shard-aware evaluation
// charges contention on: the analysed SharedMA when available, and the
// path's entire memory-access polynomial for paths that were never
// analysed — treating every access as potentially shared is the
// conservative reading of a contract without verdicts.
func (p *PathContract) EffectiveSharedMA() expr.Poly {
	if p.ShardAnalysed {
		return p.SharedMA
	}
	return p.Cost[perf.MemAccesses]
}

// ShardCost returns the path's cost polynomial with the shard dimension
// made explicit: for cycles it is
//
//	Cost[Cycles] + WorstXfer·contenders·sharedMA
//
// over the reserved expr.ShardPCV variable ("contenders" = S−1); other
// metrics are unchanged (sharding does not add instructions or
// accesses, it changes where the accesses are served from). Binding
// contenders to zero recovers Cost exactly.
func (p *PathContract) ShardCost(metric perf.Metric) expr.Poly {
	if metric != perf.Cycles {
		return p.Cost[metric]
	}
	shared := p.EffectiveSharedMA()
	if shared.IsZero() {
		return p.Cost[metric]
	}
	contention := shared.Scale(uint64(hwmodel.WorstXfer)).MulVar(expr.ShardPCV)
	return p.Cost[metric].Add(contention)
}

// ShardBoundAt evaluates the path's bound at a shard count: BoundAt's
// semantics (missing PCVs at their range maxima) with the contention
// term added for cycles at S ≥ 2.
func (p *PathContract) ShardBoundAt(metric perf.Metric, shards int, pcvs map[string]uint64) uint64 {
	if shards <= 1 || metric != perf.Cycles {
		return p.BoundAt(metric, pcvs)
	}
	poly := p.ShardCost(metric)
	binding := make(map[string]uint64)
	for _, v := range poly.Vars() {
		if v == expr.ShardPCV {
			binding[v] = uint64(shards - 1)
		} else if val, ok := pcvs[v]; ok {
			binding[v] = val
		} else if r, ok := p.PCVRanges[v]; ok {
			binding[v] = r.Hi
		} else {
			binding[v] = expr.DefaultHi
		}
	}
	return poly.Eval(binding)
}

// ShardBound is Bound at a shard count: the worst shard-aware
// prediction over all paths accepted by filter.
func (ct *Contract) ShardBound(metric perf.Metric, shards int, filter func(*PathContract) bool, pcvs map[string]uint64) (uint64, *PathContract) {
	var worst uint64
	var worstPath *PathContract
	for _, p := range ct.Paths {
		if filter != nil && !filter(p) {
			continue
		}
		v := p.ShardBoundAt(metric, shards, pcvs)
		if worstPath == nil || v > worst {
			worst, worstPath = v, p
		}
	}
	return worst, worstPath
}
