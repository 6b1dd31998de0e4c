package core

import (
	"context"
	"testing"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// fuzzJoinChain decodes a fuzz byte stream into one a-path (contract +
// raw path with packet writes) and a small b-side contract, covering
// the shapes the join index classifies: constant and plain-symbol
// writes (including the ambiguous double-target case), guards over
// written and shared unwritten fields in both orientations, masked
// compound guards, Not, and singleton domains.
func fuzzJoinChain(data []byte) (*PathContract, *nfir.Path, *Contract, []*nfir.Path) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	const (
		f1 = "pkt_10_1" // offset 10, 1 byte
		f2 = "pkt_12_2" // offset 12, 2 bytes
	)
	fields := []string{f1, f2}
	ops := []symb.Op{symb.Eq, symb.Ne, symb.Ult, symb.Ule, symb.Ugt, symb.Uge}

	guard := func(sym string) symb.Expr {
		op := ops[next()%6]
		k := uint64(next() % 8)
		switch next() % 4 {
		case 0:
			return symb.B(op, symb.S(sym), symb.C(k))
		case 1:
			// Constant on the left: symConstCmp must normalise this.
			return symb.B(op, symb.C(k), symb.S(sym))
		case 2:
			// Masked compound shape: enumeration territory.
			return symb.B(op, symb.B(symb.And, symb.S(sym), symb.C(uint64(next()%16))), symb.C(k))
		default:
			return symb.Not{X: symb.B(op, symb.S(sym), symb.C(k))}
		}
	}
	doms := func(local string) map[string]symb.Domain {
		out := make(map[string]symb.Domain)
		for _, s := range append(append([]string(nil), fields...), local) {
			switch next() % 3 {
			case 0:
				// No declared domain.
			case 1:
				v := uint64(next() % 8)
				out[s] = symb.Domain{Lo: v, Hi: v}
			case 2:
				out[s] = symb.Domain{Lo: uint64(next() % 4), Hi: uint64(next() % 8)}
			}
		}
		return out
	}

	// a-path: guards over the two fields and a local symbol, plus
	// packet writes that are absent, constant, or the local symbol
	// (occasionally written to both fields, which the index must treat
	// as ambiguous and ignore).
	var aCons []symb.Expr
	for k, n := 0, int(next()%3); k < n; k++ {
		aCons = append(aCons, guard(fields[next()%2]))
	}
	if next()%2 == 0 {
		aCons = append(aCons, symb.B(ops[next()%6], symb.S("s"), symb.C(uint64(next()%8))))
	}
	aDoms := doms("s")
	writes := make(map[uint64]nfir.PktWrite)
	addWrite := func(off uint64, size int) {
		switch next() % 3 {
		case 0:
			// Unwritten.
		case 1:
			writes[off] = nfir.PktWrite{Size: size, Val: symb.C(uint64(next() % 8))}
		case 2:
			writes[off] = nfir.PktWrite{Size: size, Val: symb.S("s")}
		}
	}
	addWrite(10, 1)
	addWrite(12, 2)
	pa := &PathContract{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms}
	rawA := &nfir.Path{Constraints: aCons, Domains: aDoms, Action: nfir.ActionForward, PktWrites: writes}

	// b-side: 1–3 paths guarding the same fields plus a local symbol.
	nb := int(next()%3) + 1
	bCt := &Contract{NF: "b"}
	var bRaws []*nfir.Path
	for j := 0; j < nb; j++ {
		var cons []symb.Expr
		for k, n := 0, int(next()%4); k < n; k++ {
			cons = append(cons, guard(fields[next()%2]))
		}
		if next()%3 == 0 {
			cons = append(cons, symb.B(ops[next()%6], symb.S("t"), symb.S(fields[next()%2])))
		}
		pb := &PathContract{ID: j, Action: nfir.ActionForward, Constraints: cons, Domains: doms("t")}
		bCt.Paths = append(bCt.Paths, pb)
		bRaws = append(bRaws, &nfir.Path{ID: j, Constraints: cons, Domains: pb.Domains, Action: nfir.ActionForward})
	}
	return pa, rawA, bCt, bRaws
}

// FuzzJoinIndex pins the join index's soundness bar against exhaustive
// pairing, mirroring FuzzJoinPreFilter: every pair the index prunes —
// by the per-pair skip test or by exclusion from the equality-partition
// candidate list — must be refuted by joinPair under BOTH solver
// engines. The index may keep a pair the solver rejects (that costs
// time, not correctness), but pruning a pair either engine would keep
// breaks the composite contract.
func FuzzJoinIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 1, 4, 0, 2, 1, 0, 0, 2, 3})
	f.Add([]byte{0, 1, 1, 0, 0, 3, 2, 2, 1, 0, 5, 1, 1, 0, 2, 0, 7, 1})
	f.Add([]byte{2, 0, 2, 2, 1, 1, 1, 0, 0, 0, 0, 3, 1, 2, 2, 0, 1, 0, 4, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pa, rawA, bCt, bRaws := fuzzJoinChain(data)
		ix := buildJoinIndex(bCt, nil, "b.")
		aw := buildAJoinInfo(pa, rawA)
		cands, _ := ix.candidates(aw)
		inCands := make(map[int]bool)
		for _, j := range cands {
			inCands[j] = true
		}

		ctx := context.Background()
		engines := []*joinFeas{
			{sv: &symb.Solver{MaxNodes: DefaultComposeFeasibilityMaxNodes, Samples: DefaultComposeFeasibilitySamples, Reference: true}},
			{sv: &symb.Solver{MaxNodes: DefaultComposeFeasibilityMaxNodes, Samples: DefaultComposeFeasibilitySamples}, eng: symb.NewIncremental()},
		}
		for j, pb := range bCt.Paths {
			pruned := ix.skip(aw, pa, j) || (cands != nil && !inCands[j])
			if !pruned {
				continue
			}
			for e, jf := range engines {
				jp := jf.prefix(pa, rawA, "b.")
				if _, ok := joinPair(ctx, pa, rawA, pb, bRaws[j], jp, "b.", &ix.metas[j]); ok {
					t.Fatalf("index pruned pair (a, b%d) but engine %d keeps it\na: %v dom %v writes %v\nb: %v dom %v",
						j, e, pa.Constraints, pa.Domains, rawA.PktWrites, pb.Constraints, pb.Domains)
				}
			}
		}
	})
}

func TestNarrowOne(t *testing.T) {
	full := symb.Full
	cases := []struct {
		name string
		c    symb.Expr
		d    symb.Domain
		want symb.Domain
	}{
		{"eq-in", symb.B(symb.Eq, symb.S("x"), symb.C(5)), symb.Domain{Lo: 0, Hi: 9}, symb.Domain{Lo: 5, Hi: 5}},
		{"eq-out", symb.B(symb.Eq, symb.S("x"), symb.C(50)), symb.Domain{Lo: 0, Hi: 9}, emptyDomain},
		{"eq-flipped", symb.B(symb.Eq, symb.C(5), symb.S("x")), full, symb.Domain{Lo: 5, Hi: 5}},
		{"ne-singleton", symb.B(symb.Ne, symb.S("x"), symb.C(7)), symb.Domain{Lo: 7, Hi: 7}, emptyDomain},
		{"ne-chip-lo", symb.B(symb.Ne, symb.S("x"), symb.C(3)), symb.Domain{Lo: 3, Hi: 9}, symb.Domain{Lo: 4, Hi: 9}},
		{"ult-zero", symb.B(symb.Ult, symb.S("x"), symb.C(0)), full, emptyDomain},
		{"ult", symb.B(symb.Ult, symb.S("x"), symb.C(4)), symb.Domain{Lo: 0, Hi: 9}, symb.Domain{Lo: 0, Hi: 3}},
		{"ugt-flipped-to-ult", symb.B(symb.Ugt, symb.C(4), symb.S("x")), symb.Domain{Lo: 0, Hi: 9}, symb.Domain{Lo: 0, Hi: 3}},
		{"uge-empty", symb.B(symb.Uge, symb.S("x"), symb.C(10)), symb.Domain{Lo: 0, Hi: 9}, emptyDomain},
		{"mask-enum", symb.B(symb.Eq, symb.B(symb.And, symb.S("x"), symb.C(1)), symb.C(1)), symb.Domain{Lo: 0, Hi: 7}, symb.Domain{Lo: 1, Hi: 7}},
		{"mask-enum-empty", symb.B(symb.Eq, symb.B(symb.And, symb.S("x"), symb.C(0)), symb.C(1)), symb.Domain{Lo: 0, Hi: 7}, emptyDomain},
		{"enum-too-wide", symb.B(symb.Eq, symb.B(symb.And, symb.S("x"), symb.C(0)), symb.C(1)), full, full},
	}
	for _, tc := range cases {
		if got := narrowOne(tc.c, "x", tc.d); got != tc.want {
			t.Errorf("%s: narrowOne = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestPinHullFixpoint(t *testing.T) {
	// x >= 4 and x != 4 need two rounds: the Ne only chips the endpoint
	// after the Uge raises Lo to it.
	cons := []symb.Expr{
		symb.B(symb.Ne, symb.S("x"), symb.C(4)),
		symb.B(symb.Uge, symb.S("x"), symb.C(4)),
		symb.B(symb.Ule, symb.S("x"), symb.C(6)),
	}
	if got := pinHull(symb.Full, "x", cons); got != (symb.Domain{Lo: 5, Hi: 6}) {
		t.Fatalf("pinHull = %+v, want [5,6]", got)
	}
	if got := pinHull(symb.Domain{Lo: 0, Hi: 3}, "x", cons); got.Lo <= got.Hi {
		t.Fatalf("pinHull = %+v, want empty", got)
	}
}

func TestJoinIndexSkipCases(t *testing.T) {
	const f = "pkt_10_1"
	mkB := func(cons []symb.Expr, doms map[string]symb.Domain) (*Contract, *joinIndex) {
		ct := &Contract{Paths: []*PathContract{{Action: nfir.ActionForward, Constraints: cons, Domains: doms}}}
		return ct, buildJoinIndex(ct, nil, "b.")
	}
	mkA := func(writes map[uint64]nfir.PktWrite, cons []symb.Expr, doms map[string]symb.Domain) (*PathContract, aJoinInfo) {
		pa := &PathContract{Action: nfir.ActionForward, Constraints: cons, Domains: doms}
		raw := &nfir.Path{Constraints: cons, Domains: doms, PktWrites: writes, Action: nfir.ActionForward}
		return pa, buildAJoinInfo(pa, raw)
	}

	// Constant write vs. a contradicting equality guard: skip.
	_, ix := mkB([]symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(4))}, nil)
	pa, aw := mkA(map[uint64]nfir.PktWrite{10: {Size: 1, Val: symb.C(9)}}, nil, nil)
	if !ix.skip(aw, pa, 0) {
		t.Error("const write 9 vs guard ==4: want skip")
	}
	pa, aw = mkA(map[uint64]nfir.PktWrite{10: {Size: 1, Val: symb.C(4)}}, nil, nil)
	if ix.skip(aw, pa, 0) {
		t.Error("const write 4 vs guard ==4: want keep")
	}

	// Constant write vs. a bare declared domain: the merge drops b's
	// domain, so the index must NOT use it to skip.
	_, ix = mkB(nil, map[string]symb.Domain{f: {Lo: 4, Hi: 4}})
	pa, aw = mkA(map[uint64]nfir.PktWrite{10: {Size: 1, Val: symb.C(9)}}, nil, nil)
	if ix.skip(aw, pa, 0) {
		t.Error("const write vs bare declared domain: must keep (domain is dropped, not contradicted)")
	}

	// Symbol write: b's guard narrows the written symbol's merged
	// domain; empty hull means skip.
	_, ix = mkB([]symb.Expr{symb.B(symb.Ult, symb.S(f), symb.C(3))},
		map[string]symb.Domain{f: {Lo: 0, Hi: 255}})
	pa, aw = mkA(map[uint64]nfir.PktWrite{10: {Size: 1, Val: symb.S("s")}}, nil, nil)
	if ix.skip(aw, pa, 0) {
		t.Error("sym write, satisfiable guard under b's declared domain: want keep")
	}
	_, ix = mkB([]symb.Expr{symb.B(symb.Ult, symb.S(f), symb.C(3)), symb.B(symb.Ugt, symb.S(f), symb.C(5))},
		map[string]symb.Domain{f: {Lo: 0, Hi: 255}})
	if !ix.skip(aw, pa, 0) {
		t.Error("sym write, contradictory guards: want skip")
	}

	// Shared unwritten field: hull intersection decides.
	_, ix = mkB([]symb.Expr{symb.B(symb.Ugt, symb.S(f), symb.C(10))}, nil)
	pa, aw = mkA(nil, []symb.Expr{symb.B(symb.Ule, symb.S(f), symb.C(5))}, nil)
	if !ix.skip(aw, pa, 0) {
		t.Error("disjoint shared-field hulls: want skip")
	}
	pa, aw = mkA(nil, []symb.Expr{symb.B(symb.Ule, symb.S(f), symb.C(20))}, nil)
	if ix.skip(aw, pa, 0) {
		t.Error("overlapping shared-field hulls: want keep")
	}

	// Singleton intersection with a masked guard that fails there.
	_, ix = mkB([]symb.Expr{symb.B(symb.Eq, symb.B(symb.And, symb.S(f), symb.C(1)), symb.C(1))},
		map[string]symb.Domain{f: {Lo: 0, Hi: 255}})
	pa, aw = mkA(nil, []symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(2))}, nil)
	if !ix.skip(aw, pa, 0) {
		t.Error("singleton 2 fails b's odd-mask guard: want skip")
	}
	pa, aw = mkA(nil, []symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(3))}, nil)
	if ix.skip(aw, pa, 0) {
		t.Error("singleton 3 satisfies b's odd-mask guard: want keep")
	}
}

func TestJoinIndexCandidates(t *testing.T) {
	const f = "pkt_12_2"
	// Three b-paths: ==2048, ==2054, and an unguarded catch-all.
	ct := &Contract{Paths: []*PathContract{
		{Action: nfir.ActionForward, Constraints: []symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(2048))}},
		{Action: nfir.ActionForward, Constraints: []symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(2054))}},
		{Action: nfir.ActionForward},
	}}
	ix := buildJoinIndex(ct, nil, "b.")

	// a writes 2048 to the field: candidates are the ==2048 bucket plus
	// the rest, in ascending order.
	pa := &PathContract{Action: nfir.ActionForward}
	raw := &nfir.Path{PktWrites: map[uint64]nfir.PktWrite{12: {Size: 2, Val: symb.C(2048)}}, Action: nfir.ActionForward}
	aw := buildAJoinInfo(pa, raw)
	cands, pruned := ix.candidates(aw)
	if len(cands) != 2 || cands[0] != 0 || cands[1] != 2 || pruned != 1 {
		t.Fatalf("const-write candidates = %v pruned %d, want [0 2] pruned 1", cands, pruned)
	}

	// a pins the field to 2054 by its own guard (unwritten).
	pa = &PathContract{Action: nfir.ActionForward, Constraints: []symb.Expr{symb.B(symb.Eq, symb.S(f), symb.C(2054))}}
	raw = &nfir.Path{Constraints: pa.Constraints, Action: nfir.ActionForward}
	aw = buildAJoinInfo(pa, raw)
	cands, pruned = ix.candidates(aw)
	if len(cands) != 2 || cands[0] != 1 || cands[1] != 2 || pruned != 1 {
		t.Fatalf("guard-pin candidates = %v pruned %d, want [1 2] pruned 1", cands, pruned)
	}

	// Unpinned a-path: no partition applies.
	pa = &PathContract{Action: nfir.ActionForward}
	raw = &nfir.Path{Action: nfir.ActionForward}
	aw = buildAJoinInfo(pa, raw)
	if cands, _ = ix.candidates(aw); cands != nil {
		t.Fatalf("unpinned candidates = %v, want nil (consider all)", cands)
	}
}

// FuzzJoinHoistedPrefix pins the hoisted a-side prefix against the
// reference engine on the shapes where hoisting a's domains into it
// could go wrong: a writes a symbol it also bounds (the prefix withholds
// that domain, and b's bound for the written field overwrites it), and
// a shared unwritten field both sides bound (the merge intersects).
// One prefix per a-path serves every b-path, as in composePrepared;
// joinPair through it must keep exactly the pairs a fresh reference
// solve over the full merged map keeps.
func FuzzJoinHoistedPrefix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 1, 2, 0, 5, 1, 1, 0, 2, 3, 2, 0, 7, 1, 0, 4, 2, 6, 1})
	f.Add([]byte{0, 7, 0, 3, 2, 1, 2, 4, 0, 0, 1, 3, 1, 5, 0, 2, 2, 3, 0, 6, 1, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() uint64 {
			if pos >= len(data) {
				return 0
			}
			pos++
			return uint64(data[pos-1])
		}
		const (
			shared  = "pkt_10_1" // unwritten, bounded by both sides
			written = "pkt_12_2" // a writes s here
		)
		ops := []symb.Op{symb.Eq, symb.Ne, symb.Ult, symb.Ule, symb.Ugt, symb.Uge}
		guard := func(sym string) symb.Expr {
			op, k := ops[next()%6], symb.C(next()%24)
			switch next() % 4 {
			case 0:
				return symb.B(op, symb.S(sym), k)
			case 1:
				return symb.B(op, k, symb.S(sym))
			case 2:
				return symb.B(op, symb.B(symb.And, symb.S(sym), symb.C(next()%16)), k)
			default:
				return symb.Not{X: symb.B(op, symb.S(sym), k)}
			}
		}
		dom := func() symb.Domain {
			lo := next() % 16
			return symb.Domain{Lo: lo, Hi: lo + next()%24}
		}

		aDoms := map[string]symb.Domain{"s": dom(), shared: dom()}
		var aCons []symb.Expr
		for k, n := 0, int(next()%3); k < n; k++ {
			aCons = append(aCons, guard([]string{"s", shared}[next()%2]))
		}
		if next()%3 == 0 {
			aCons = append(aCons, symb.B(ops[next()%6], symb.S("s"), symb.S(shared)))
		}
		size := 2
		if next()%5 == 0 {
			size = 1 // mixed-size rewrite: b's field becomes a fresh b. symbol
		}
		pa := &PathContract{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms}
		rawA := &nfir.Path{Action: nfir.ActionForward, Constraints: aCons, Domains: aDoms,
			PktWrites: map[uint64]nfir.PktWrite{12: {Size: size, Val: symb.S("s")}}}

		bCt := &Contract{NF: "b"}
		var bRaws []*nfir.Path
		for j, nb := 0, int(next()%3)+1; j < nb; j++ {
			var cons []symb.Expr
			for k, n := 0, int(next()%4); k < n; k++ {
				cons = append(cons, guard([]string{shared, written, "t"}[next()%3]))
			}
			if next()%3 == 0 {
				// At most one symbol-symbol order guard: two in opposite
				// directions over unbounded symbols would make interval
				// propagation step one value at a time in any engine.
				cons = append(cons, symb.B(ops[next()%6], symb.S("t"), symb.S([]string{shared, written}[next()%2])))
			}
			doms := map[string]symb.Domain{shared: dom(), written: dom()}
			if next()%2 == 0 {
				doms["t"] = dom()
			}
			pb := &PathContract{ID: j, Action: nfir.ActionForward, Constraints: cons, Domains: doms}
			bCt.Paths = append(bCt.Paths, pb)
			bRaws = append(bRaws, &nfir.Path{ID: j, Constraints: cons, Domains: doms, Action: nfir.ActionForward})
		}

		ctx := context.Background()
		ix := buildJoinIndex(bCt, nil, "b.")
		engines := joinEngines()
		prefixes := []*joinPrefix{engines[0].prefix(pa, rawA, "b."), engines[1].prefix(pa, rawA, "b.")}
		for j, pb := range bCt.Paths {
			_, ref := joinPair(ctx, pa, rawA, pb, bRaws[j], prefixes[0], "b.", &ix.metas[j])
			_, inc := joinPair(ctx, pa, rawA, pb, bRaws[j], prefixes[1], "b.", &ix.metas[j])
			if ref != inc {
				t.Fatalf("pair (a, b%d): reference keeps %v, hoisted prefix keeps %v\na: %v dom %v writes %v\nb: %v dom %v",
					j, ref, inc, pa.Constraints, pa.Domains, rawA.PktWrites, pb.Constraints, pb.Domains)
			}
		}
	})
}
