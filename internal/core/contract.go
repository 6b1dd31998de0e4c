// Package core implements the paper's primary contribution: performance
// contracts for software network functions (§2) and BOLT, the analysis
// that generates them (§3, Algorithm 2).
//
// A Contract maps every feasible execution path of an NF to a
// performance expression — a polynomial over performance-critical
// variables (PCVs) — per metric (instructions, memory accesses,
// cycles). Paths carry the input-class constraints that select them, so
// callers can bound the performance of broad packet classes ("all valid
// IPv4 packets", "packets from established flows") without running the
// NF, exactly as §5.1 does.
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

// PathContract is the analysed form of one feasible execution path.
type PathContract struct {
	// ID is the path's index within the contract.
	ID int
	// Action is the path's terminal action.
	Action nfir.ActionKind
	// Constraints select the path's input class (packet-field and
	// abstract-state constraints, §3.3).
	Constraints []symb.Expr
	// Domains bound the symbols in Constraints.
	Domains map[string]symb.Domain
	// Events summarises the stateful calls ("flows.get:hit …").
	Events string
	// Trace lists the path's stateful calls as exploration recorded them
	// (data structure, method, chosen outcome, result symbols). The
	// online classifier (classify.go) needs it to match a concrete run's
	// call sequence against the path; it is nil for composed contracts,
	// whose joined paths no longer correspond to one call sequence.
	Trace []nfir.CallEvent
	// Cost is the path's performance expression per metric.
	Cost map[perf.Metric]expr.Poly
	// PCVRanges bound the PCVs appearing in Cost.
	PCVRanges map[string]expr.Range
	// SharedMA is the sub-polynomial of Cost[MemAccesses] attributable to
	// stateful calls classified shared-rw (or unknown) by the sharability
	// analysis — the accesses that touch mutable cross-flow state and pay
	// the coherence penalty when the NF runs sharded. See shard.go.
	SharedMA expr.Poly
	// ShardAnalysed records whether SharedMA was actually computed: true
	// for freshly generated and composed paths, false for paths built
	// without the analysis (by hand, or by a producer that omitted it).
	// Unanalysed paths fall back to a conservative shared-MA estimate;
	// see EffectiveSharedMA.
	ShardAnalysed bool
	// Witness is a concrete input exercising the path (nil when the
	// solver returned Unknown; such paths are retained conservatively).
	// Joined paths carry none: the model that kept a joined path moves
	// to the next fold of its composition in memory only (see
	// joinmodel.go) and never reaches a contract, artifact or store.
	Witness map[string]uint64
}

// Class returns the path's input-class label: terminal action plus the
// stateful-outcome summary.
func (p *PathContract) Class() string {
	if p.Events == "" {
		return p.Action.String()
	}
	return p.Action.String() + " [" + p.Events + "]"
}

// BoundAt evaluates the path's cost with the given PCV binding; PCVs
// absent from the binding are taken at their range maximum (the
// conservative choice the paper makes for broad classes).
func (p *PathContract) BoundAt(metric perf.Metric, pcvs map[string]uint64) uint64 {
	binding := make(map[string]uint64)
	for _, v := range p.Cost[metric].Vars() {
		if val, ok := pcvs[v]; ok {
			binding[v] = val
		} else if r, ok := p.PCVRanges[v]; ok {
			binding[v] = r.Hi
		} else {
			binding[v] = expr.DefaultHi
		}
	}
	return p.Cost[metric].Eval(binding)
}

// Contract is a performance contract C_N^U for one NF (or NF chain): the
// map from input classes — here materialised as analysed paths — to
// performance expressions (§2.2).
type Contract struct {
	// NF names the analysed function.
	NF string
	// Level records whether framework costs are included.
	Level string
	// Provenance records the frontend that produced the analysed
	// program (e.g. "bvm:ratelimit.bvm"); empty means a hand-written
	// builtin. It travels through the artifact codec so stored
	// contracts remember where they came from.
	Provenance string
	// Paths lists every feasible path.
	Paths []*PathContract
}

// Bound returns the worst-case prediction over all paths accepted by
// filter (nil accepts all), with missing PCVs at their range maxima.
// This implements the paper's query mode: "given this input class, BOLT
// reports the predicted value of the worst execution path in it".
func (ct *Contract) Bound(metric perf.Metric, filter func(*PathContract) bool, pcvs map[string]uint64) (uint64, *PathContract) {
	var worst uint64
	var worstPath *PathContract
	for _, p := range ct.Paths {
		if filter != nil && !filter(p) {
			continue
		}
		v := p.BoundAt(metric, pcvs)
		if worstPath == nil || v > worst {
			worst, worstPath = v, p
		}
	}
	return worst, worstPath
}

// ClassFilter selects paths whose event summary contains every given
// fragment and (optionally) end in the given action.
func ClassFilter(action nfir.ActionKind, fragments ...string) func(*PathContract) bool {
	return func(p *PathContract) bool {
		if action != nfir.ActionNone && p.Action != action {
			return false
		}
		for _, f := range fragments {
			if !strings.Contains(p.Events, f) {
				return false
			}
		}
		return true
	}
}

// ConstraintFilter further requires the path's constraints to be
// satisfiable together with the given extra constraints — the way §5.1
// narrows contracts to e.g. "matched prefixes ≤ 24 bits".
func ConstraintFilter(solver *symb.Solver, extra ...symb.Expr) func(*PathContract) bool {
	if solver == nil {
		solver = &symb.Solver{MaxNodes: 8000, Samples: 16}
	}
	return func(p *PathContract) bool {
		cs := append(append([]symb.Expr(nil), p.Constraints...), extra...)
		return solver.Feasible(cs, p.Domains)
	}
}

// And combines path filters conjunctively.
func And(filters ...func(*PathContract) bool) func(*PathContract) bool {
	return func(p *PathContract) bool {
		for _, f := range filters {
			if f != nil && !f(p) {
				return false
			}
		}
		return true
	}
}

// ClassSummary is one row of a rendered contract: an input class with
// its coalesced performance expression (the paper's Tables 1, 4, 5, 6).
type ClassSummary struct {
	Class string
	Count int
	// Expr is the class's coalesced expression: the dominating path's
	// polynomial, or a sound upper envelope when no single path
	// dominates over the PCV ranges.
	Expr map[perf.Metric]expr.Poly
	// PCVRanges merges the class's PCV ranges.
	PCVRanges map[string]expr.Range
}

// Classes groups paths by class label and coalesces each group into one
// legible expression per metric — the detail/legibility trade-off of
// §2.3 resolved the way the paper's published tables do.
func (ct *Contract) Classes() []ClassSummary {
	groups := make(map[string][]*PathContract)
	for _, p := range ct.Paths {
		groups[p.Class()] = append(groups[p.Class()], p)
	}
	labels := make([]string, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]ClassSummary, 0, len(labels))
	for _, label := range labels {
		paths := groups[label]
		ranges := make(map[string]expr.Range)
		for _, p := range paths {
			for v, r := range p.PCVRanges {
				if old, ok := ranges[v]; ok {
					if r.Lo < old.Lo {
						old.Lo = r.Lo
					}
					if r.Hi > old.Hi {
						old.Hi = r.Hi
					}
					ranges[v] = old
				} else {
					ranges[v] = r
				}
			}
		}
		exprRanges := make(map[string]expr.Range, len(ranges))
		for v, r := range ranges {
			exprRanges[v] = expr.Range{Lo: r.Lo, Hi: r.Hi}
		}
		summary := ClassSummary{Class: label, Count: len(paths), PCVRanges: ranges}
		summary.Expr = make(map[perf.Metric]expr.Poly, perf.NumMetrics)
		for _, m := range perf.Metrics {
			coalesced := paths[0].Cost[m]
			for _, p := range paths[1:] {
				coalesced = expr.MaxAssuming(coalesced, p.Cost[m], exprRanges)
			}
			summary.Expr[m] = coalesced
		}
		out = append(out, summary)
	}
	return out
}

// Render prints the contract as a table of classes for one metric, in
// the style of the paper's published contracts.
func (ct *Contract) Render(metric perf.Metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Performance contract: %s (%s, metric %s, %d paths)\n",
		ct.NF, ct.Level, metric, len(ct.Paths))
	for _, cls := range ct.Classes() {
		fmt.Fprintf(&b, "  %-58s %s\n", cls.Class, cls.Expr[metric])
	}
	return b.String()
}

// NumClasses reports the number of distinct input classes.
func (ct *Contract) NumClasses() int { return len(ct.Classes()) }
