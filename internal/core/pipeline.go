package core

import (
	"context"
	"fmt"

	"gobolt/internal/dpdk"
	"gobolt/internal/expr"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nfir"
	"gobolt/internal/par"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// This file is the generation pipeline. Algorithm 2 runs as five named
// stages:
//
//	Explore     — symbolic execution enumerates the feasible paths
//	              (serial: the engine's state is inherently sequential)
//	AnalysePath — per path, assemble the cost polynomial from the
//	              stateless trace, the data-structure contracts the
//	              path's outcomes select, and the analysis-build padding
//	Solve       — per path, find a concrete witness for the constraints
//	Replay      — per path, execute the witness through the model-linked
//	              build and check it matches the symbolic analysis
//	Assemble    — collect the per-path contracts, in exploration order,
//	              into the Contract
//
// AnalysePath, Solve and Replay are independent across paths, so they
// run on a bounded worker pool (Generator.Parallelism). Results land in
// a slice indexed by exploration order and witness search is
// deterministic per path, which keeps the assembled contract
// byte-identical to a serial run at any pool width.

// GenerateWithPathsContext runs the full pipeline with cancellation.
// It is the ground-truth entry point every other Generate variant wraps,
// and it also returns the underlying symbolic paths, aligned with
// Contract.Paths: chain composition (§3.4) needs them to connect
// output-packet expressions across NFs.
func (g *Generator) GenerateWithPathsContext(ctx context.Context, prog *nfir.Program, models map[string]nfir.Model) (*Contract, []*nfir.Path, error) {
	modelNames := make(map[string]bool, len(models))
	for n := range models {
		modelNames[n] = true
	}
	if errs := prog.Validate(modelNames); len(errs) > 0 {
		return nil, nil, fmt.Errorf("core: %s fails validation: %v", prog.Name, errs[0])
	}

	key, cacheable := g.cacheKey(prog, models)
	if cacheable {
		if ct, paths, ok := g.Cache.lookup(key); ok {
			return ct, paths, nil
		}
	}

	paths, err := g.explorePaths(ctx, prog, models)
	if err != nil {
		return nil, nil, err
	}

	pcs := make([]*PathContract, len(paths))
	err = par.ForEach(ctx, g.workers(), len(paths), func(i int) error {
		pc, err := g.analysePath(ctx, prog, models, paths[i])
		if err != nil {
			return fmt.Errorf("core: %s path %d: %w", prog.Name, paths[i].ID, err)
		}
		pcs[i] = pc
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: generating %s: %w", prog.Name, err)
	}

	ct := g.assembleContract(prog, pcs)
	if cacheable {
		g.Cache.store(key, ct, paths)
	}
	return ct, paths, nil
}

// explorePaths is the Explore stage: symbolic execution of the stateless
// code against the models (Algorithm 2, lines 2–3).
func (g *Generator) explorePaths(ctx context.Context, prog *nfir.Program, models map[string]nfir.Model) ([]*nfir.Path, error) {
	engine := &nfir.Engine{Models: models}
	paths, err := engine.ExploreContext(ctx, prog)
	if err != nil {
		return nil, fmt.Errorf("core: symbolic execution of %s: %w", prog.Name, err)
	}
	return paths, nil
}

// analysePath runs the per-path stages in order: sharability
// classification, AnalysePath (cost assembly), Solve, and Replay.
// Each path's Events slice is private to the path (exploration clones
// it per branch), so annotating in parallel workers is race-free.
func (g *Generator) analysePath(ctx context.Context, prog *nfir.Program, models map[string]nfir.Model, pa *nfir.Path) (*PathContract, error) {
	annotateSharing(pa, models)
	pc := g.assembleCost(pa)
	if err := g.solvePath(ctx, prog, pa, pc); err != nil {
		return nil, err
	}
	return pc, nil
}

// assembleCost is the AnalysePath stage: the path's cost polynomial from
// its stateless trace plus the data-structure contracts its outcomes
// select (Algorithm 2 line 11) plus the per-call analysis-build padding,
// and the framework costs at full-stack level.
func (g *Generator) assembleCost(pa *nfir.Path) *PathContract {
	cost := map[perf.Metric]expr.Poly{
		perf.Instructions: expr.Const(pa.StatelessIC),
		perf.MemAccesses:  expr.Const(pa.StatelessMA),
		perf.Cycles:       expr.Const(g.statelessCycles(pa)),
	}
	pcvs := make(map[string]expr.Range, len(pa.PCVRanges))
	for v, r := range pa.PCVRanges {
		pcvs[v] = r
	}
	padCycles := uint64(float64(g.CallPadIC)*hwmodel.WorstALU) +
		uint64(float64(g.CallPadMA)*hwmodel.CyclesPerMemDRAM)
	sharedMA := expr.Const(0)
	for _, ev := range pa.Events {
		for m, p := range ev.Outcome.Cost {
			cost[m] = cost[m].Add(p)
		}
		cost[perf.Instructions] = cost[perf.Instructions].Add(expr.Const(g.CallPadIC))
		cost[perf.MemAccesses] = cost[perf.MemAccesses].Add(expr.Const(g.CallPadMA))
		cost[perf.Cycles] = cost[perf.Cycles].Add(expr.Const(padCycles))
		// Calls that touch mutable cross-flow state contribute their whole
		// MA polynomial (plus the call pad, whose access could land in the
		// structure) to the path's shared-MA bound.
		if ev.Sharing.Class == nfir.SharingSharedRW || ev.Sharing.Class == nfir.SharingUnknown {
			sharedMA = sharedMA.Add(ev.Outcome.Cost[perf.MemAccesses]).Add(expr.Const(g.CallPadMA))
		}
	}
	// Framework costs at full-stack level: RX on every path, TX or drop
	// by terminal action (§3.5, "Including DPDK and NIC driver code").
	if g.Level == dpdk.FullStack {
		for m, p := range dpdk.RxCost() {
			cost[m] = cost[m].Add(p)
		}
		tail := dpdk.DropCost()
		if pa.Action == nfir.ActionForward {
			tail = dpdk.TxCost()
		}
		for m, p := range tail {
			cost[m] = cost[m].Add(p)
		}
	}
	return &PathContract{
		Action:        pa.Action,
		Constraints:   pa.Constraints,
		Domains:       pa.Domains,
		Events:        pa.EventSummary(),
		Trace:         pa.Events,
		Cost:          cost,
		PCVRanges:     pcvs,
		SharedMA:      sharedMA,
		ShardAnalysed: true,
	}
}

// solvePath is the Solve stage (Algorithm 2 line 6) followed, on Sat, by
// the Replay stage: concrete inputs for the path, validated through the
// model-linked build. The solve reuses the prepared solver state
// exploration accumulated for the path (flattening, union-find,
// propagation already done); verdict and witness are identical to a
// from-scratch solve. The witness search is deterministic per path (the
// solver's sampling is seeded by symbol name), so the outcome does not
// depend on which worker runs it.
func (g *Generator) solvePath(ctx context.Context, prog *nfir.Program, pa *nfir.Path, pc *PathContract) error {
	witness, res := pa.Session.SolveContext(ctx, witnessSolver)
	pa.Session = nil // solved: release the session (and keep it out of the contract cache)
	if res != symb.Sat {
		// A cancelled solve reports Unknown; surface the cancellation
		// rather than silently emitting a witness-less path the serial
		// run would have solved.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("solve interrupted: %w", err)
		}
		return nil
	}
	pc.Witness = witness
	return g.replay(prog, pa, witness)
}

// assembleContract is the Assemble stage: per-path contracts, in
// exploration order, become the Contract. IDs are assigned sequentially
// so they are stable across pool widths.
func (g *Generator) assembleContract(prog *nfir.Program, pcs []*PathContract) *Contract {
	ct := &Contract{NF: prog.Name, Level: g.Level.String(), Provenance: prog.Source, Paths: make([]*PathContract, 0, len(pcs))}
	for _, pc := range pcs {
		pc.ID = len(ct.Paths)
		ct.Paths = append(ct.Paths, pc)
	}
	return ct
}

// statelessCycles runs the path's stateless instruction mix through the
// conservative hardware model: worst-case compute costs, DRAM for every
// access not provably L1D-resident along this path.
func (g *Generator) statelessCycles(pa *nfir.Path) uint64 {
	model := hwmodel.NewConservative()
	for class, n := range pa.Ops {
		if class == perf.OpLoad || class == perf.OpStore {
			continue
		}
		model.Op(perf.Access{Class: class, Count: n})
	}
	for _, acc := range pa.Accesses {
		if !acc.Known {
			model.ChargeUnknown()
			continue
		}
		class := perf.OpLoad
		if acc.Store {
			class = perf.OpStore
		}
		model.Op(perf.Access{Class: class, Count: 1, Addr: acc.Addr, Size: acc.Size})
	}
	return model.Cycles()
}
