package core

import (
	"context"
	"runtime"

	"gobolt/internal/dpdk"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// Generator is BOLT (Algorithm 2): it symbolically executes the NF's
// stateless code linked against the data-structure models, solves each
// path's constraints for a concrete witness, replays that witness to
// validate the path's stateless cost, and assembles the contract by
// combining the stateless cost with the data-structure contracts
// selected by each path's outcomes.
//
// Generation runs as a staged pipeline (see pipeline.go): Explore →
// AnalysePath → Solve → Replay → Assemble, with the per-path stages on a
// bounded worker pool. A Generator is safe for concurrent use once
// configured: Generate never mutates it.
type Generator struct {
	// Level selects NF-only or full-stack analysis (§3.5).
	Level dpdk.AnalysisLevel
	// CallPadIC/CallPadMA model the analysis-vs-production build gap:
	// the analysis links against models with link-time optimisation
	// disabled, so BOLT pads each stateful call conservatively (§3.5,
	// "Instruction Replay"). Default: 1 IC (call linkage the production
	// build inlines away); the build difference does not add accesses.
	CallPadIC, CallPadMA uint64
	// Coalesce merges composite paths that differ only in dead upstream
	// branches between fold levels, taking the conservative max of their
	// cost expressions (see coalesce.go). Bounds can only grow, never
	// shrink, but the composite's bytes change, so composed cache keys
	// are versioned by this knob and it defaults to off.
	Coalesce bool
	// Parallelism is the worker-pool width for the per-path stages
	// (solve + replay) of the pipeline. 0 means runtime.GOMAXPROCS(0);
	// 1 reproduces the serial generator exactly. The contract is
	// byte-identical regardless of the setting — only wall-clock changes.
	Parallelism int
	// Cache, when set, short-circuits Generate for (program, models,
	// config) triples it has seen before; see ContractCache for the
	// soundness conditions. nil disables caching.
	Cache *ContractCache
}

// NewGenerator returns a Generator with the default analysis-build
// padding (1 IC per stateful call). A zero-valued Generator pads
// nothing, which makes the analysis and production builds coincide —
// useful for the stylised §2.1 example, whose published Table 1 assumes
// exactly that. Every production entry point (cmd/bolt and all of
// internal/experiments) uses the padded NewGenerator configuration;
// core_test.go pins down the difference.
func NewGenerator() *Generator {
	return &Generator{CallPadIC: 1}
}

// The analysis takes no solver configuration (§3: NF code in, contract
// out). Solvers are stateless between calls, so sharing them keeps the
// Generator unmutated and concurrent Generate calls race-free.
// witnessSolver solves each path for its witness at the solver's
// default budget. joinSolver prunes dead path pairs in chain
// composition, with a budget above exploration's: refuting a pair keeps
// the composite tight, and an Unknown keeps it, soundly but loosely.
// shardSolver answers the sharability analysis's hash-field queries at
// nfir's exploration-pruning budget.
var (
	witnessSolver = &symb.Solver{}
	joinSolver    = &symb.Solver{MaxNodes: 20000, Samples: 24}
	shardSolver   = &symb.Solver{MaxNodes: nfir.PruneMaxNodes, Samples: nfir.PruneSamples}
)

// workers resolves the Parallelism option.
func (g *Generator) workers() int {
	if g.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if g.Parallelism < 1 {
		return 1
	}
	return g.Parallelism
}

// Generate computes the performance contract of prog against the given
// data-structure models.
func (g *Generator) Generate(prog *nfir.Program, models map[string]nfir.Model) (*Contract, error) {
	ct, _, err := g.GenerateWithPathsContext(context.Background(), prog, models)
	return ct, err
}

// GenerateContext is Generate with cancellation: a cancelled context
// stops exploration and the per-path solves promptly, returning an error
// that wraps ctx.Err() and reports partial progress.
func (g *Generator) GenerateContext(ctx context.Context, prog *nfir.Program, models map[string]nfir.Model) (*Contract, error) {
	ct, _, err := g.GenerateWithPathsContext(ctx, prog, models)
	return ct, err
}
