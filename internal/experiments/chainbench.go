package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/nf"
	"gobolt/internal/par"
	"gobolt/internal/store"
)

// ChainBenchRow is one chain length of the composition-engine ablation:
// the same chain composed serially vs on the worker pool, with the
// incremental join solver vs the reference engine, with composite
// coalescing on vs off, and cold vs warm against a private contract
// cache. Composites are verified identical across modes before any
// timing is recorded: serial, pooled and reference-engine composites
// must be byte-identical, and so must serial and pooled coalesced ones.
// (That the join index keeps exactly the pairs exhaustive pairing keeps
// is pinned in internal/core, by TestJoinIndexKeepsExhaustivePairs and
// FuzzJoinIndex.)
//
// Chains longer than maxExhaustiveNFs are benchmarked only in the
// pruned configuration (coalescing on): their uncoalesced composites
// are out of reach, which is exactly the point of the pruning levers.
// Those rows set PrunedOnly and leave the uncoalesced columns zero.
//
// Every timing covers the full ComposeMany call — stage generation plus
// the pairwise joins — because that is the operation a caller pays for;
// the ablation modes share the generation cost, so the reported ratios
// understate the join-only effect.
type ChainBenchRow struct {
	// NFs is the chain length; Stages names the roster prefix.
	NFs    int    `json:"nfs"`
	Stages string `json:"stages"`
	// Paths is the uncoalesced composite's path count (identical in
	// every uncoalesced mode — that identity is checked, not assumed).
	// Zero for PrunedOnly rows.
	Paths int `json:"paths"`
	// PrunedOnly marks chains composed only with index + coalescing.
	PrunedOnly bool `json:"pruned_only,omitempty"`
	// SerialNS composes the uncoalesced chain serially.
	SerialNS uint64 `json:"serial_ns,omitempty"`
	// ParallelNS runs the indexed composition on the worker pool.
	ParallelNS      uint64  `json:"parallel_ns,omitempty"`
	ParallelWorkers int     `json:"parallel_workers"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// ReferenceNS swaps every join feasibility check (and the stage
	// generations) to the pre-incremental reference solver, serially —
	// the NoIncremental ablation.
	ReferenceNS        uint64  `json:"reference_ns,omitempty"`
	IncrementalSpeedup float64 `json:"incremental_speedup,omitempty"`
	// CoalesceNS turns composite coalescing on (serial, index on);
	// CoalescedPaths is that composite's path count and CoalesceSpeedup
	// compares against SerialNS.
	CoalesceNS      uint64  `json:"coalesce_ns"`
	CoalescedPaths  int     `json:"coalesced_paths"`
	CoalesceSpeedup float64 `json:"coalesce_speedup,omitempty"`
	// ColdNS composes in the deep-chain configuration (index +
	// coalescing) against an empty private contract cache; WarmNS
	// re-composes the identical chain against the now-populated cache
	// (the fold prefix is content-addressed, so it is one lookup).
	ColdNS      uint64  `json:"cold_ns"`
	WarmNS      uint64  `json:"warm_ns"`
	WarmSpeedup float64 `json:"warm_speedup"`
	// WarmDiskNS simulates a process restart: the chain re-composes
	// against a fresh memory cache whose disk tier was populated by a
	// cold pass, so every stage and fold prefix is decoded from stored
	// artifacts (TierStats: zero misses, all hits on the disk tier).
	WarmDiskNS      uint64  `json:"warm_disk_ns"`
	WarmDiskSpeedup float64 `json:"warm_disk_speedup"`
	// Folds is the per-fold join-pruning record of the deep-chain
	// configuration (index + coalescing, serial): pairs considered,
	// pairs skipped by the index, pairs rejected by the static
	// pre-filter, pairs refuted by the solver, pairs kept, composites
	// merged by coalescing.
	Folds []core.JoinStats `json:"folds,omitempty"`
}

// ChainBenchResult is the chainbench experiment: rows for chains of 2–8
// NFs drawn from one fixed roster.
type ChainBenchResult struct {
	Workload string          `json:"workload"`
	Runs     int             `json:"runs"`
	Rows     []ChainBenchRow `json:"rows"`
}

// maxExhaustiveNFs is the longest chain still benchmarked without
// coalescing; longer chains run pruned-only.
const maxExhaustiveNFs = 6

// ChainBenchStages builds the benchmark roster — firewall → NAT →
// bridge → LB → static router → LPM router → egress firewall → edge
// router — sized by the scale. Chains of length n use the first n
// stages, so longer chains strictly extend shorter ones (which also
// exercises the fold-prefix cache reuse). Every stage comes from the
// shared internal/nf roster, so the stage cache keys — and therefore
// any on-disk store — line up with what bolt and the other tools build.
func ChainBenchStages(sc Scale) ([]core.ChainStage, []string, error) {
	// Display names keep the historical chainbench labels; the first
	// stage is the roster's "ingress-firewall" (the rule-bearing chain
	// head), distinct from the bare default-deny "firewall".
	rosterNames := []string{"ingress-firewall", "nat", "bridge", "lb", "static-router", "lpm-router", "egress-firewall", "edge-router"}
	names := []string{"firewall", "nat", "bridge", "lb", "static-router", "lpm-router", "egress-firewall", "edge-router"}
	stages := make([]core.ChainStage, len(rosterNames))
	for i, rn := range rosterNames {
		inst, err := nf.Build(rn, nf.BuildParams{Capacity: sc.TableCapacity})
		if err != nil {
			return nil, nil, err
		}
		stages[i] = core.ChainStage{Prog: inst.Prog, Models: inst.Models}
	}
	return stages, names, nil
}

// ChainBench runs the composition ablations over chains of 2–8 NFs.
// Parallelism for the pooled mode comes from the scale (≤1 means one
// worker per CPU); every other mode runs at Parallelism=1 so each
// ablation changes exactly one variable.
func ChainBench(sc Scale) (ChainBenchResult, error) {
	stages, names, err := ChainBenchStages(sc)
	if err != nil {
		return ChainBenchResult{}, err
	}
	workers := sc.Parallelism
	if workers <= 1 {
		workers = 0 // one worker per CPU
	}
	res := ChainBenchResult{
		Workload: strings.Join(names, "+"),
		Runs:     3,
	}
	ctx := context.Background()

	type mode struct {
		parallelism int
		noInc       bool
		coalesce    bool
	}
	compose := func(n int, m mode, cache *core.ContractCache) (*core.Contract, []core.JoinStats, time.Duration, error) {
		g := core.NewGenerator()
		g.Parallelism = m.parallelism
		g.NoIncremental = m.noInc
		g.Coalesce = m.coalesce
		g.Cache = cache
		start := time.Now()
		ct, stats, err := core.ComposeManyStats(ctx, g, stages[:n])
		return ct, stats, time.Since(start), err
	}
	minTime := func(n int, m mode) (time.Duration, []core.JoinStats, error) {
		best := time.Duration(0)
		var stats []core.JoinStats
		for i := 0; i < res.Runs; i++ {
			_, s, d, err := compose(n, m, nil)
			if err != nil {
				return 0, nil, err
			}
			if best == 0 || d < best {
				best, stats = d, s
			}
		}
		return best, stats, nil
	}
	marshal := func(ct *core.Contract) (string, error) {
		js, err := json.Marshal(ct)
		return string(js), err
	}

	for n := 2; n <= len(stages); n++ {
		row := ChainBenchRow{NFs: n, Stages: strings.Join(names[:n], "+"), ParallelWorkers: par.Workers(workers)}
		pruned := n > maxExhaustiveNFs
		row.PrunedOnly = pruned

		serialMode := mode{parallelism: 1}
		coalMode := mode{parallelism: 1, coalesce: true}

		if !pruned {
			// Correctness gate for the uncoalesced composite: pooled and
			// reference-mode runs must agree with the serial one.
			serialCt, _, _, err := compose(n, serialMode, nil)
			if err != nil {
				return res, fmt.Errorf("chainbench %s: %w", row.Stages, err)
			}
			want, err := marshal(serialCt)
			if err != nil {
				return res, err
			}
			for _, alt := range []struct {
				label string
				m     mode
			}{
				{"parallel", mode{parallelism: workers}},
				{"reference", mode{parallelism: 1, noInc: true}},
			} {
				ct, _, _, err := compose(n, alt.m, nil)
				if err != nil {
					return res, fmt.Errorf("chainbench %s (%s): %w", row.Stages, alt.label, err)
				}
				if got, err := marshal(ct); err != nil {
					return res, err
				} else if got != want {
					return res, fmt.Errorf("chainbench %s: %s composite differs from serial", row.Stages, alt.label)
				}
			}
			row.Paths = len(serialCt.Paths)
		}

		// Coalescing gate: serial and pooled coalesced composites must
		// be byte-identical (merge groups key on composite order, which
		// parallel assembly preserves).
		coalCt, _, _, err := compose(n, coalMode, nil)
		if err != nil {
			return res, fmt.Errorf("chainbench %s (coalesce): %w", row.Stages, err)
		}
		wantCoal, err := marshal(coalCt)
		if err != nil {
			return res, err
		}
		coalPar, _, _, err := compose(n, mode{parallelism: workers, coalesce: true}, nil)
		if err != nil {
			return res, fmt.Errorf("chainbench %s (coalesce, pooled): %w", row.Stages, err)
		}
		if got, err := marshal(coalPar); err != nil {
			return res, err
		} else if got != wantCoal {
			return res, fmt.Errorf("chainbench %s: pooled coalesced composite differs from serial", row.Stages)
		}
		row.CoalescedPaths = len(coalCt.Paths)

		// Ablation timings (no cache: every run pays generation + joins).
		if !pruned {
			serial, _, err := minTime(n, serialMode)
			if err != nil {
				return res, err
			}
			parallel, _, err := minTime(n, mode{parallelism: workers})
			if err != nil {
				return res, err
			}
			reference, _, err := minTime(n, mode{parallelism: 1, noInc: true})
			if err != nil {
				return res, err
			}
			row.SerialNS = uint64(serial.Nanoseconds())
			row.ParallelNS = uint64(parallel.Nanoseconds())
			row.ReferenceNS = uint64(reference.Nanoseconds())
			if serial > 0 {
				row.IncrementalSpeedup = float64(reference) / float64(serial)
			}
			if parallel > 0 {
				row.ParallelSpeedup = float64(serial) / float64(parallel)
			}
		}
		coalesce, coalStats, err := minTime(n, coalMode)
		if err != nil {
			return res, err
		}
		row.CoalesceNS = uint64(coalesce.Nanoseconds())
		if !pruned && coalesce > 0 {
			row.CoalesceSpeedup = float64(row.SerialNS) / float64(row.CoalesceNS)
		}
		row.Folds = coalStats

		// Cold vs warm in the deep-chain configuration against a
		// private cache: the cold pass populates per-stage and
		// fold-prefix entries, the warm pass must come back through the
		// content-addressed composite.
		cache := core.NewContractCache()
		coldCt, _, cold, err := compose(n, coalMode, cache)
		if err != nil {
			return res, err
		}
		warm := time.Duration(0)
		for i := 0; i < res.Runs; i++ {
			warmCt, _, d, err := compose(n, coalMode, cache)
			if err != nil {
				return res, err
			}
			if warmCt != coldCt {
				return res, fmt.Errorf("chainbench %s: warm re-compose did not return the cached composite", row.Stages)
			}
			if warm == 0 || d < warm {
				warm = d
			}
		}
		if warm >= cold {
			return res, fmt.Errorf("chainbench %s: warm re-compose (%v) not faster than cold (%v)", row.Stages, warm, cold)
		}
		row.ColdNS = uint64(cold.Nanoseconds())
		row.WarmNS = uint64(warm.Nanoseconds())
		if warm > 0 {
			row.WarmSpeedup = float64(cold) / float64(warm)
		}

		// Warm-from-disk: a cold pass through a disk-backed cache persists
		// every stage contract and fold prefix; each timed pass then
		// "restarts the process" — a fresh memory tier over the same store
		// — and must re-compose the identical chain purely from decoded
		// artifacts.
		diskDir, err := os.MkdirTemp("", "chainbench-store-")
		if err != nil {
			return res, err
		}
		st, err := store.Open(diskDir)
		if err != nil {
			os.RemoveAll(diskDir)
			return res, err
		}
		diskWarm, err := func() (time.Duration, error) {
			seed := core.NewContractCache()
			seed.AttachDisk(st)
			if _, _, _, err := compose(n, coalMode, seed); err != nil {
				return 0, err
			}
			best := time.Duration(0)
			for i := 0; i < res.Runs; i++ {
				restart := core.NewContractCache()
				restart.AttachDisk(st)
				dwCt, _, d, err := compose(n, coalMode, restart)
				if err != nil {
					return 0, err
				}
				if got, err := marshal(dwCt); err != nil {
					return 0, err
				} else if got != wantCoal {
					return 0, fmt.Errorf("chainbench %s: disk-warm composite differs from serial coalesced", row.Stages)
				}
				ts := restart.TierStats()
				if ts.Misses != 0 || ts.DiskHits == 0 {
					return 0, fmt.Errorf("chainbench %s: disk-warm re-compose was not served from the store (%d misses, %d disk hits)",
						row.Stages, ts.Misses, ts.DiskHits)
				}
				if best == 0 || d < best {
					best = d
				}
			}
			return best, nil
		}()
		os.RemoveAll(diskDir)
		if err != nil {
			return res, err
		}
		row.WarmDiskNS = uint64(diskWarm.Nanoseconds())
		if diskWarm > 0 {
			row.WarmDiskSpeedup = float64(cold) / float64(diskWarm)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderChainBench prints the ablation as a table. Pruned-only rows
// (chains beyond exhaustive reach) render "-" in the exhaustive columns.
func RenderChainBench(r ChainBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain composition ablations (roster %s; min of %d runs)\n", r.Workload, r.Runs)
	fmt.Fprintf(&b, "%-4s %6s %12s %12s %7s %12s %7s %12s %7s %7s %12s %12s %8s %12s %8s\n",
		"NFs", "paths", "serial", "parallel", "par x",
		"reference", "inc x", "coalesce", "paths", "co x", "cold", "warm", "warm x", "diskwarm", "disk x")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 149))
	rd := func(ns uint64) string {
		if ns == 0 {
			return "-"
		}
		return time.Duration(ns).Round(10 * time.Microsecond).String()
	}
	rx := func(x float64) string {
		if x == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", x)
	}
	for _, row := range r.Rows {
		paths := "-"
		if row.Paths > 0 {
			paths = fmt.Sprintf("%d", row.Paths)
		}
		fmt.Fprintf(&b, "%-4d %6s %12s %12s %7s %12s %7s %12s %7d %7s %12s %12s %7.0fx %12s %7.0fx\n",
			row.NFs, paths, rd(row.SerialNS),
			rd(row.ParallelNS), rx(row.ParallelSpeedup),
			rd(row.ReferenceNS), rx(row.IncrementalSpeedup),
			rd(row.CoalesceNS), row.CoalescedPaths, rx(row.CoalesceSpeedup),
			rd(row.ColdNS), rd(row.WarmNS), row.WarmSpeedup,
			rd(row.WarmDiskNS), row.WarmDiskSpeedup)
	}
	return b.String()
}

// RenderChainBenchFolds prints the per-fold join-pruning record of the
// deep-chain configuration — the boltbench -v view.
func RenderChainBenchFolds(r ChainBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-fold join pruning (index + coalescing, serial)\n")
	fmt.Fprintf(&b, "%-4s %-4s %8s %8s %8s %10s %9s %8s %8s %8s %7s\n",
		"NFs", "fold", "a-paths", "b-paths", "pairs", "idx-skip", "prefilter", "refuted", "kept", "merged", "out")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 92))
	for _, row := range r.Rows {
		skipped, kept, pairs := uint64(0), uint64(0), uint64(0)
		for _, f := range row.Folds {
			cached := ""
			if f.Cached {
				cached = " (cached)"
			}
			fmt.Fprintf(&b, "%-4d %-4d %8d %8d %8d %10d %9d %8d %8d %8d %7d%s\n",
				row.NFs, f.Fold, f.APaths, f.BPaths, f.Pairs, f.IndexSkipped,
				f.PreFiltered, f.SolverRefuted, f.Kept, f.CoalesceMerged, f.PathsOut, cached)
			skipped += f.IndexSkipped
			kept += f.Kept
			pairs += f.Pairs
		}
		if pairs > 0 {
			fmt.Fprintf(&b, "%-4d  = %d/%d pairs index-skipped (%.1f%%), %d joined\n",
				row.NFs, skipped, pairs, 100*float64(skipped)/float64(pairs), kept)
		}
	}
	return b.String()
}

// WriteChainBenchJSON records the result for tracking across commits.
func WriteChainBenchJSON(path string, r ChainBenchResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
