package core

import (
	"context"
	"fmt"
	"sort"

	"gobolt/internal/nfir"
	"gobolt/internal/par"
	"gobolt/internal/symb"
)

// ComposeDAG composes an NF with per-output-port successors — the §3.4
// generalisation beyond linear chains: "this process further generalises
// to more complex networks, so long as the topology forms a directed
// acyclic graph". A forwarding path of the root NF whose output port can
// equal p continues into successors[p] (with the constraint Port == p
// added to the pair); ports without a successor are egress links and the
// path appears unchanged. Symbolic output ports fan out to every
// feasible successor, each pairing carrying its own port constraint.
//
// The root and every successor generate concurrently on the
// generator's worker pool, and the per-root-path joins then fan out
// over the pool into indexed slots; assembly restores root path order,
// so like ComposeMany the result is byte-identical at any Parallelism.
// It is content-addressed in the contract cache when one is attached.
func ComposeDAG(g *Generator, root ChainStage, successors map[uint64]ChainStage) (*Contract, error) {
	ctx := context.Background()
	ports := make([]uint64, 0, len(successors))
	for p := range successors {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })

	// Content-address the whole topology up front: root key plus each
	// port→successor key in port order. Keys derive from programs and
	// models alone, so a warm DAG returns before generating anything.
	rootKey, _ := g.cacheKey(root.Prog, root.Models)
	keyParts := []string{g.composeTag("dag"), rootKey}
	for _, p := range ports {
		st := successors[p]
		sk, _ := g.cacheKey(st.Prog, st.Models)
		keyParts = append(keyParts, fmt.Sprintf("port%d=%s", p, sk))
	}
	key := g.derivedKey(keyParts...)
	if key != "" {
		if ct, _, ok := g.Cache.lookup(key); ok {
			return ct, nil
		}
	}

	rootCt, rootPaths, err := g.GenerateWithPathsContext(ctx, root.Prog, root.Models)
	if err != nil {
		return nil, err
	}

	// Pre-generate each successor's contract and raw paths once, in
	// deterministic port order, and prepare each successor's join index —
	// the b-side is shared by every root path, so it is built once here.
	type succ struct {
		port  uint64
		ct    *Contract
		paths []*nfir.Path
		ix    *joinIndex
	}
	succs := make([]succ, len(ports))
	err = par.ForEach(ctx, g.workers(), len(ports), func(i int) error {
		st := successors[ports[i]]
		ct, paths, err := g.GenerateWithPathsContext(ctx, st.Prog, st.Models)
		if err != nil {
			return fmt.Errorf("core: successor on port %d: %w", ports[i], err)
		}
		succs[i] = succ{port: ports[i], ct: ct, paths: paths, ix: buildJoinIndex(ct, paths, "b.", false)} // DAG prefixes bring no model
		return nil
	})
	if err != nil {
		return nil, err
	}

	name := rootCt.NF + "+dag"
	jf := newJoinFeas()
	slots := make([][]*PathContract, len(rootCt.Paths))
	err = par.ForEach(ctx, g.workers(), len(rootCt.Paths), func(i int) error {
		pa := rootCt.Paths[i]
		rawA := rootPaths[i]
		if pa.Action != nfir.ActionForward || rawA.Port == nil {
			cp := *pa
			cp.Events = prefixEvents("a.", pa.Events)
			slots[i] = []*PathContract{&cp}
			return nil
		}
		jp := jf.prefix(pa, rawA, "b.", nil)
		aw := buildAJoinInfo(pa, rawA)
		var sl []*PathContract

		// Egress: the output port matches no successor.
		egress := append([]symb.Expr(nil), pa.Constraints...)
		for _, s := range succs {
			egress = append(egress, symb.B(symb.Ne, rawA.Port, symb.C(s.port)))
		}
		if jp.feasible(ctx, &pairQuery{constraints: egress, domains: pa.Domains}) {
			cp := *pa
			cp.Constraints = egress
			cp.Events = prefixEvents("a.", pa.Events) + " | egress"
			sl = append(sl, &cp)
		}

		for _, s := range succs {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Narrow a's path to this output port; the narrowed prefix
			// extends the shared session instead of re-preparing it.
			portEq := symb.B(symb.Eq, rawA.Port, symb.C(s.port))
			narrowed := *pa
			narrowed.Constraints = append(append([]symb.Expr(nil), pa.Constraints...), portEq)
			if !jp.feasible(ctx, &pairQuery{constraints: narrowed.Constraints, domains: narrowed.Domains}) {
				continue
			}
			np := jp.extend(portEq)
			for j, pb := range s.ct.Paths {
				if s.ix.skip(aw, pa, j) {
					continue
				}
				joined, _, ok := joinPair(ctx, &narrowed, rawA, pb, s.paths[j], np, "b.", &s.ix.metas[j])
				if !ok {
					continue
				}
				joined.Events = fmt.Sprintf("%s @port%d", joined.Events, s.port)
				sl = append(sl, joined)
			}
		}
		slots[i] = sl
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: composing %s: %w", name, err)
	}

	var pcs []*PathContract
	for _, sl := range slots {
		pcs = append(pcs, sl...)
	}
	if g.Coalesce {
		// Terminal composites keep no raw paths; liveness anchors on
		// classification-visible symbols only (see coalescePaths).
		pcs, _, _, _ = coalescePaths(pcs, nil, nil)
	}
	out := &Contract{NF: name, Level: rootCt.Level}
	for k, pc := range pcs {
		pc.ID = k
		out.Paths = append(out.Paths, pc)
	}
	if len(out.Paths) == 0 {
		return nil, fmt.Errorf("core: DAG composition produced no feasible paths")
	}
	if key != "" {
		g.Cache.store(key, out, nil)
	}
	return out, nil
}
