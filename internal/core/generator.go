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
	// MaxPaths bounds exploration (0 = nfir default).
	MaxPaths int
	// Solver produces path witnesses; nil gets a default.
	Solver *symb.Solver
	// FeasibilityMaxNodes / FeasibilitySamples configure the bounded
	// solver that prunes dead branches during exploration and dead path
	// pairs during chain composition. Zero keeps the per-site defaults
	// (nfir.DefaultFeasibilityMaxNodes/DefaultFeasibilitySamples for
	// exploration, DefaultComposeFeasibilityMaxNodes/Samples for joins);
	// deep NFs whose branches need more search to refute can raise them
	// without editing source. Larger budgets can only prune more provably
	// dead paths, never drop feasible ones.
	FeasibilityMaxNodes int
	FeasibilitySamples  int
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

// defaultSolver backs Generators with a nil Solver. Solvers are
// stateless between Solve calls, so sharing one is safe; keeping the
// Generator unmutated is what makes concurrent Generate calls race-free.
var defaultSolver = &symb.Solver{}

func (g *Generator) solver() *symb.Solver {
	if g.Solver == nil {
		return defaultSolver
	}
	return g.Solver
}

// feasibilitySolver resolves the exploration-pruning budget; nil keeps
// the nfir engine's default.
func (g *Generator) feasibilitySolver() *symb.Solver {
	if g.FeasibilityMaxNodes == 0 && g.FeasibilitySamples == 0 {
		return nil
	}
	s := &symb.Solver{MaxNodes: g.FeasibilityMaxNodes, Samples: g.FeasibilitySamples}
	if s.MaxNodes == 0 {
		s.MaxNodes = nfir.DefaultFeasibilityMaxNodes
	}
	if s.Samples == 0 {
		s.Samples = nfir.DefaultFeasibilitySamples
	}
	return s
}

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

// GenerateWithPaths also returns the underlying symbolic paths, aligned
// with Contract.Paths; chain composition (§3.4) needs them to connect
// output-packet expressions across NFs.
func (g *Generator) GenerateWithPaths(prog *nfir.Program, models map[string]nfir.Model) (*Contract, []*nfir.Path, error) {
	return g.GenerateWithPathsContext(context.Background(), prog, models)
}
