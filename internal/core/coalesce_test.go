package core

import (
	"encoding/json"
	"testing"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

func TestCoalesceLiveProjection(t *testing.T) {
	// A path whose constraints mix: a packet-field guard (live: shared
	// input), a local feeding a packet write (live: downstream-visible),
	// a chain local→local→write (live by closure), a ground constraint
	// (always kept), and a dead local pair witnessing an upstream branch.
	f := "pkt_10_1"
	cons := []symb.Expr{
		symb.B(symb.Eq, symb.S(f), symb.C(4)),
		symb.B(symb.Ult, symb.S("w"), symb.C(9)),
		symb.B(symb.Eq, symb.S("u"), symb.S("w")),
		symb.C(1),
		symb.B(symb.Ugt, symb.S("dead"), symb.S("dead2")),
	}
	doms := map[string]symb.Domain{
		f:      {Lo: 0, Hi: 255},
		"w":    {Lo: 0, Hi: 8},
		"dead": {Lo: 0, Hi: 3},
	}
	pc := &PathContract{Action: nfir.ActionForward, Constraints: cons, Domains: doms}
	raw := &nfir.Path{
		Constraints: cons, Domains: doms, Action: nfir.ActionForward,
		PktWrites: map[uint64]nfir.PktWrite{20: {Size: 1, Val: symb.S("w")}},
	}
	liveCons, liveDoms := liveProjection(pc, raw)
	if len(liveCons) != 4 {
		t.Fatalf("live constraints = %v, want all but the dead pair", liveCons)
	}
	for _, c := range liveCons {
		for _, s := range collectSyms(c, nil) {
			if s == "dead" || s == "dead2" {
				t.Fatalf("dead constraint survived: %v", c)
			}
		}
	}
	if _, ok := liveDoms["dead"]; ok {
		t.Error("dead symbol's domain survived")
	}
	if _, ok := liveDoms["w"]; !ok {
		t.Error("write-feeding symbol's domain dropped")
	}
	if _, ok := liveDoms[f]; !ok {
		t.Error("field domain dropped")
	}
}

func TestCoalesceMergesDeadBranchTwins(t *testing.T) {
	f := "pkt_10_1"
	mk := func(deadSym string, ic uint64) (*PathContract, *nfir.Path) {
		cons := []symb.Expr{
			symb.B(symb.Eq, symb.S(f), symb.C(4)),
			symb.B(symb.Ult, symb.S(deadSym), symb.C(7)),
		}
		cost := make(map[perf.Metric]expr.Poly)
		for _, m := range perf.Metrics {
			cost[m] = expr.Const(ic)
		}
		pc := &PathContract{Action: nfir.ActionForward, Constraints: cons, Cost: cost}
		raw := &nfir.Path{Constraints: cons, Action: nfir.ActionForward,
			PktWrites: map[uint64]nfir.PktWrite{20: {Size: 1, Val: symb.C(1)}}}
		return pc, raw
	}
	p1, r1 := mk("deadA", 10)
	p2, r2 := mk("deadB", 25)
	p3, _ := mk("deadC", 3)
	p3.Action = nfir.ActionDrop // different action: its own group
	r3 := &nfir.Path{Constraints: p3.Constraints, Action: nfir.ActionDrop}

	pcs, raws, shared, merged := coalescePaths(
		[]*PathContract{p1, p2, p3},
		[]*nfir.Path{r1, r2, r3},
		[]bool{false, true, false})
	if merged != 1 || len(pcs) != 2 || len(raws) != 2 {
		t.Fatalf("merged=%d len=%d, want 1 merge leaving 2 paths", merged, len(pcs))
	}
	rep := pcs[0]
	for _, m := range perf.Metrics {
		if got := rep.BoundAt(m, nil); got < 25 {
			t.Errorf("metric %v: representative bound %d, want >= max member (25)", m, got)
		}
	}
	for _, c := range rep.Constraints {
		for _, s := range collectSyms(c, nil) {
			if s == "deadA" || s == "deadB" {
				t.Fatalf("dead branch guard survived the merge: %v", c)
			}
		}
	}
	if shared[0] {
		t.Error("merged representative raw still marked shared")
	}
	if pcs[1].Action != nfir.ActionDrop {
		t.Error("singleton group reordered")
	}
	if pcs[1] != p3 {
		t.Error("singleton group must pass through untouched")
	}

	// No mergeable pair: everything passes through unchanged.
	pcs2, _, _, merged2 := coalescePaths([]*PathContract{p1, p3}, []*nfir.Path{r1, r3}, []bool{false, false})
	if merged2 != 0 || pcs2[0] != p1 || pcs2[1] != p3 {
		t.Error("distinct paths must not be merged")
	}
}

// TestCoalesceConservativeBound is the semantic pin for coalescing: for
// every concrete packet (witness) admitted by a path of the uncoalesced
// 3-stage composite, some path of the coalesced composite admits it too
// — coalescing only widens input classes — and the bound the coalesced
// contract assigns it is never below the uncoalesced bound.
func TestCoalesceConservativeBound(t *testing.T) {
	chain := buildChain4()[:3]
	plain := NewGenerator()
	plain.Parallelism = 1
	base, err := ComposeMany(plain, chain)
	if err != nil {
		t.Fatal(err)
	}
	cg := NewGenerator()
	cg.Parallelism = 1
	cg.Coalesce = true
	co, err := ComposeMany(cg, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(co.Paths) >= len(base.Paths) {
		t.Fatalf("coalescing did not shrink the composite: %d -> %d paths", len(base.Paths), len(co.Paths))
	}

	admits := func(pc *PathContract, w map[string]uint64) bool {
		for s, d := range pc.Domains {
			if v, ok := w[s]; ok && (v < d.Lo || v > d.Hi) {
				return false
			}
		}
		for _, c := range pc.Constraints {
			for _, s := range symb.Symbols(c) {
				if _, ok := w[s]; !ok {
					return false // witness does not cover the symbol
				}
			}
			if c.Eval(w) == 0 {
				return false
			}
		}
		return true
	}

	classified := 0
	for _, u := range base.Paths {
		w, res := joinSolver.Solve(u.Constraints, u.Domains)
		if res != symb.Sat {
			continue // bounded search could not produce a packet for this path
		}
		// Round-trip the packet fields through wire encoding: the
		// witness describes a concrete header, and classification reads
		// it back with FieldValue.
		pkt := make([]byte, 64)
		for s, v := range w {
			if off, size, ok := nfir.ParseFieldSym(s); ok {
				for b := 0; b < size; b++ {
					pkt[int(off)+b] = byte(v >> (8 * (size - 1 - b)))
				}
			}
		}
		for s := range w {
			if off, size, ok := nfir.ParseFieldSym(s); ok {
				w[s] = FieldValue(pkt, off, size)
			}
		}
		pcvs := make(map[string]uint64)
		for v, r := range u.PCVRanges {
			pcvs[v] = r.Hi
		}
		var best *PathContract
		for _, c := range co.Paths {
			if c.Action == u.Action && admits(c, w) {
				if best == nil || c.BoundAt(perf.Instructions, pcvs) > best.BoundAt(perf.Instructions, pcvs) {
					best = c
				}
			}
		}
		if best == nil {
			t.Fatalf("no coalesced path admits the packet of uncoalesced path %d (%s)", u.ID, u.Class())
		}
		classified++
		for _, m := range perf.Metrics {
			if got, want := best.BoundAt(m, pcvs), u.BoundAt(m, pcvs); got < want {
				t.Errorf("path %d metric %v: coalesced bound %d < uncoalesced %d", u.ID, m, got, want)
			}
		}
	}
	if classified < len(base.Paths)/2 {
		t.Fatalf("only %d/%d uncoalesced paths yielded witnesses; pin too weak", classified, len(base.Paths))
	}
}

// Coalescing must stay deterministic at any worker count: merge groups
// key on first occurrence in composite order, which parallel assembly
// preserves.
func TestCoalesceParallelDeterminism(t *testing.T) {
	serial := NewGenerator()
	serial.Parallelism = 1
	serial.Coalesce = true
	want, err := ComposeMany(serial, buildChain4())
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _ := json.Marshal(want)
	for _, workers := range []int{4, 8} {
		g := NewGenerator()
		g.Parallelism = workers
		g.Coalesce = true
		got, err := ComposeMany(g, buildChain4())
		if err != nil {
			t.Fatal(err)
		}
		gotJS, _ := json.Marshal(got)
		if string(wantJS) != string(gotJS) {
			t.Errorf("coalesced ComposeMany at Parallelism=%d differs from serial", workers)
		}
	}
}
