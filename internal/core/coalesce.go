package core

import (
	"fmt"
	"sort"
	"strings"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// This file implements composite path coalescing: between fold levels,
// composite paths that differ only in dead upstream branches are merged
// into one representative. Stage k's input path count is stage k−1's
// output, so this is the lever that controls composition depth.
//
// Two paths are mergeable when their downstream-visible state is
// identical: same terminal action, same packet writes (the substitution
// the next join performs), same *live* constraint/domain projection, and
// same cost class (same PCVs with the same ranges). "Live" is the
// transitive closure of connection to anything downstream-visible —
// shared input symbols (packet fields, now, pkt_len, in_port), symbols
// feeding packet writes or the output port, and PCV names. Constraints
// over symbols disconnected from all of those only witnessed the
// upstream branch's feasibility (already established when the path was
// kept); they are dropped from the representative, which widens the
// merged input class — the conservative direction.
//
// The representative's cost is the conservative maximum of the members'
// costs over the shared PCV box (expr.MaxAssuming: the dominating
// polynomial, or a sound upper envelope). Its events, witness and trace
// come from the first member in composite order, which keeps the merge
// deterministic at any Parallelism.
//
// Coalescing changes composite bytes, so it is opt-in
// (Generator.Coalesce) and composed cache keys are versioned by it
// (see composedKey).

// isSharedInputSym reports whether s is visible outside the stage that
// introduced it: a packet field, the packet length, the clock, or the
// ingress port.
func isSharedInputSym(s string) bool {
	if _, _, ok := nfir.ParseFieldSym(s); ok {
		return true
	}
	return s == nfir.SymNow || s == nfir.SymPktLen || s == nfir.SymInPort
}

// collectSyms appends every symbol of e to dst without sorting.
func collectSyms(e symb.Expr, dst []string) []string {
	switch x := e.(type) {
	case symb.Sym:
		dst = append(dst, x.Name)
	case symb.Bin:
		dst = collectSyms(x.L, dst)
		dst = collectSyms(x.R, dst)
	case symb.Not:
		dst = collectSyms(x.X, dst)
	}
	return dst
}

// liveProjection splits a path's constraints and domains into the live
// part (connected to downstream-visible symbols) and the dead rest.
func liveProjection(pc *PathContract, raw *nfir.Path) ([]symb.Expr, map[string]symb.Domain) {
	live := make(map[string]bool)
	for _, w := range raw.PktWrites {
		for _, s := range collectSyms(w.Val, nil) {
			live[s] = true
		}
	}
	if raw.Port != nil {
		for _, s := range collectSyms(raw.Port, nil) {
			live[s] = true
		}
	}
	for v := range pc.PCVRanges {
		live[v] = true
	}

	consSyms := make([][]string, len(pc.Constraints))
	for i, c := range pc.Constraints {
		consSyms[i] = collectSyms(c, nil)
	}
	isLive := make([]bool, len(pc.Constraints))
	for changed := true; changed; {
		changed = false
		for i := range pc.Constraints {
			if isLive[i] {
				continue
			}
			hot := len(consSyms[i]) == 0 // ground constraints stay
			for _, s := range consSyms[i] {
				if live[s] || isSharedInputSym(s) {
					hot = true
					break
				}
			}
			if !hot {
				continue
			}
			isLive[i] = true
			changed = true
			for _, s := range consSyms[i] {
				if !live[s] {
					live[s] = true
				}
			}
		}
	}

	liveCons := make([]symb.Expr, 0, len(pc.Constraints))
	for i, c := range pc.Constraints {
		if isLive[i] {
			liveCons = append(liveCons, c)
		}
	}
	liveDoms := make(map[string]symb.Domain, len(pc.Domains))
	for s, d := range pc.Domains {
		if live[s] || isSharedInputSym(s) {
			liveDoms[s] = d
		}
	}
	return liveCons, liveDoms
}

// coalesceSig renders the downstream-visible state of a path as the
// merge key.
func coalesceSig(pc *PathContract, raw *nfir.Path, liveCons []symb.Expr, liveDoms map[string]symb.Domain) string {
	var b strings.Builder
	fmt.Fprintf(&b, "act=%d\n", pc.Action)
	offs := make([]uint64, 0, len(raw.PktWrites))
	for off := range raw.PktWrites {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		w := raw.PktWrites[off]
		fmt.Fprintf(&b, "w %d/%d=%s\n", off, w.Size, w.Val)
	}
	if raw.Port != nil {
		fmt.Fprintf(&b, "port=%s\n", raw.Port)
	}
	for _, c := range liveCons {
		fmt.Fprintf(&b, "c %s\n", c)
	}
	names := make([]string, 0, len(liveDoms))
	for s := range liveDoms {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		d := liveDoms[s]
		fmt.Fprintf(&b, "d %s=[%d,%d]\n", s, d.Lo, d.Hi)
	}
	pcvs := make([]string, 0, len(pc.PCVRanges))
	for v := range pc.PCVRanges {
		pcvs = append(pcvs, v)
	}
	sort.Strings(pcvs)
	for _, v := range pcvs {
		r := pc.PCVRanges[v]
		fmt.Fprintf(&b, "r %s=[%d,%d]\n", v, r.Lo, r.Hi)
	}
	for _, m := range perf.Metrics {
		vars := append([]string(nil), pc.Cost[m].Vars()...)
		sort.Strings(vars)
		fmt.Fprintf(&b, "v %d %s\n", m, strings.Join(vars, ","))
	}
	return b.String()
}

// coalescePaths merges mergeable composite paths in first-occurrence
// order and returns the coalesced lists plus the number of paths merged
// away. raws and shared are aligned with pcs; shared[i] marks raws[i] as
// borrowed from the a-side (pass-through paths), which the merge must
// not mutate.
func coalescePaths(pcs []*PathContract, raws []*nfir.Path, shared []bool) ([]*PathContract, []*nfir.Path, []bool, uint64) {
	type group struct {
		out      int // index in the coalesced output
		members  []*PathContract
		liveCons []symb.Expr
		liveDoms map[string]symb.Domain
	}
	groups := make(map[string]*group)
	var outPcs []*PathContract
	var outRaws []*nfir.Path
	var outShared []bool
	var order []*group
	var merged uint64

	for i, pc := range pcs {
		liveCons, liveDoms := liveProjection(pc, raws[i])
		sig := coalesceSig(pc, raws[i], liveCons, liveDoms)
		if grp, ok := groups[sig]; ok {
			grp.members = append(grp.members, pc)
			merged++
			continue
		}
		grp := &group{out: len(outPcs), members: []*PathContract{pc}, liveCons: liveCons, liveDoms: liveDoms}
		groups[sig] = grp
		order = append(order, grp)
		outPcs = append(outPcs, pc)
		outRaws = append(outRaws, raws[i])
		outShared = append(outShared, shared[i])
	}
	if merged == 0 {
		return pcs, raws, shared, 0
	}

	for _, grp := range order {
		if len(grp.members) == 1 {
			continue // untouched: keeps its full constraint set and raw
		}
		first := grp.members[0]
		rep := *first
		rep.Constraints = grp.liveCons
		rep.Domains = grp.liveDoms
		rep.Cost = make(map[perf.Metric]expr.Poly, perf.NumMetrics)
		for _, m := range perf.Metrics {
			coalesced := first.Cost[m]
			for _, q := range grp.members[1:] {
				coalesced = expr.MaxAssuming(coalesced, q.Cost[m], rep.PCVRanges)
			}
			rep.Cost[m] = coalesced
		}
		// Shared-MA merges like any other metric: the envelope of the
		// members' shared-access polynomials over the merged PCV ranges.
		sharedMA := first.EffectiveSharedMA()
		for _, q := range grp.members[1:] {
			sharedMA = expr.MaxAssuming(sharedMA, q.EffectiveSharedMA(), rep.PCVRanges)
		}
		rep.SharedMA = sharedMA
		rep.ShardAnalysed = true
		outPcs[grp.out] = &rep
		repRaw := *outRaws[grp.out]
		repRaw.Constraints = grp.liveCons
		repRaw.Domains = grp.liveDoms
		outRaws[grp.out] = &repRaw
		outShared[grp.out] = false // fresh copy: safe to renumber
	}
	return outPcs, outRaws, outShared, merged
}
