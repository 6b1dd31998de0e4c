// Command boltbench regenerates every table and figure of the paper's
// evaluation (§5) and prints them as text tables.
//
// Usage:
//
//	boltbench [-exp all|figure1|table3|microbench|bvm|table4|figure2|
//	                table5|figure3|table6|table7|figure4|figure5|
//	                fullstack|ablation|census|shardbench|solverbench|
//	                chainbench]
//	          [-scale default|quick] [-parallel N] [-nocache]
//	          [-store DIR] [-benchjson FILE] [-v]
//
// With -store DIR the contract cache is tiered onto the on-disk store
// at DIR (shared with bolt/boltmon/boltctl): a second boltbench run —
// or any other tool using the same store — starts warm, and the cache
// summary breaks hits down by tier.
//
// solverbench (the incremental-solver ablation) and chainbench (the
// chain-composition ablations) are opt-in: they repeat cold generations
// many times and are excluded from -exp all. Both honour -benchjson;
// chainbench additionally prints its per-fold join-pruning record
// under -v.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (all, figure1, table3, microbench, bvm, table4, figure2, table5, figure3, table6, table7, figure4, figure5, fullstack, ablation, census, shardbench, solverbench, chainbench)")
		scale     = flag.String("scale", "default", "experiment scale: default or quick")
		parallel  = flag.Int("parallel", 0, "worker pool size for contract generation and scenario runs (0 = one per CPU, 1 = serial)")
		nocache   = flag.Bool("nocache", false, "disable the contract cache (regenerate every contract from scratch)")
		storeDir  = flag.String("store", "", "back the contract cache with the on-disk store at this directory (shared with bolt/boltmon/boltctl)")
		benchjson = flag.String("benchjson", "", "with -exp solverbench or chainbench: also write the result as JSON to this path (e.g. BENCH_solver.json)")
		verbose   = flag.Bool("v", false, "with -exp chainbench: also print the per-fold join-pruning record (pairs, index-skipped, prefiltered, solver-refuted, kept, coalesced)")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	if *scale == "quick" {
		sc = experiments.QuickScale()
	}
	sc.Parallelism = *parallel
	sc.NoCache = *nocache
	if *storeDir != "" {
		if *nocache {
			fatal(fmt.Errorf("-store and -nocache are mutually exclusive"))
		}
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		sc.Cache = core.NewContractCache()
		sc.Cache.AttachDisk(s)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	// Figure 1 and Table 3 come from the same 14 scenario runs.
	if want("figure1") || want("table3") {
		rows, err := experiments.Figure1(sc)
		if err != nil {
			fatal(err)
		}
		if want("figure1") {
			section("Figure 1 — predicted vs measured IC and MA, 14 NF/packet classes")
			fmt.Print(experiments.RenderFigure1(rows))
		}
		if want("table3") {
			section("Table 3 — execution-cycle bounds (conservative model vs detailed model)")
			fmt.Print(experiments.RenderTable3(rows))
		}
	}

	if want("microbench") {
		rows, err := experiments.Microbench(20000)
		if err != nil {
			fatal(err)
		}
		section("§5.1 microbenchmarks — hardware-model validation (P1–P3)")
		fmt.Print(experiments.RenderMicrobench(rows))
	}

	if want("bvm") {
		rows, err := experiments.BVMBench(sc)
		if err != nil {
			fatal(err)
		}
		section("Bytecode frontend — contract generation and interpreter-trace classification")
		fmt.Print(experiments.RenderBVMBench(rows))
		for _, r := range rows {
			if r.Unclass > 0 {
				fatal(fmt.Errorf("%s: %d interpreter packets unclassified", r.NF, r.Unclass))
			}
		}
	}

	if want("table4") {
		rows, _, err := experiments.Table4(sc)
		if err != nil {
			fatal(err)
		}
		section("Table 4 — bridge performance contract (with rehash defence)")
		fmt.Print(experiments.RenderTable4(rows))
	}

	if want("figure2") {
		pts, err := experiments.Figure2(sc)
		if err != nil {
			fatal(err)
		}
		section("Figure 2 — bucket-traversal CCDF and per-traversal prediction")
		fmt.Print(experiments.RenderFigure2(pts))
	}

	if want("table5") || want("figure3") {
		if want("table5") {
			t5, _, _, _, err := experiments.ChainContracts(sc)
			if err != nil {
				fatal(err)
			}
			section("Table 5 — firewall, static router, and chain contracts")
			fmt.Print(experiments.RenderTable5(t5))
		}
		if want("figure3") {
			rows, err := experiments.Figure3(sc)
			if err != nil {
				fatal(err)
			}
			section("Figure 3 — naive addition vs BOLT's composite contract")
			fmt.Print(experiments.RenderFigure3(rows))
		}
	}

	if want("table6") {
		rows, err := experiments.Table6(sc)
		if err != nil {
			fatal(err)
		}
		section("Table 6 — VigNAT performance contract")
		fmt.Print(experiments.RenderTable6(rows))
	}

	if want("table7") || want("figure4") {
		second, milli, err := experiments.Figure4(sc)
		if err != nil {
			fatal(err)
		}
		if want("table7") {
			section("Tables 7 & 8 — Distiller expired-flow reports")
			fmt.Print(experiments.RenderExpiryHistogram("Coarse timestamp granularity (the VigNAT bug):", second.ExpiryHistogram))
			fmt.Println()
			fmt.Print(experiments.RenderExpiryHistogram("Fine timestamp granularity (the fix):", milli.ExpiryHistogram))
		}
		if want("figure4") {
			section("Figure 4 — latency tail before and after the granularity fix")
			fmt.Print(experiments.RenderFigure4(second, milli))
		}
	}

	if want("census") {
		rows, err := experiments.Census(sc)
		if err != nil {
			fatal(err)
		}
		section("§5.1 path census — paths and classes per contract")
		fmt.Print(experiments.RenderCensus(rows))
	}

	if want("ablation") {
		rows, err := experiments.AblationCoalescing(sc)
		if err != nil {
			fatal(err)
		}
		section("§6 ablation — the two over-estimation sources, removed one at a time")
		fmt.Print(experiments.RenderAblation(rows))
	}

	if want("fullstack") {
		rows, err := experiments.FullStack(sc)
		if err != nil {
			fatal(err)
		}
		section("§3.5 analysis levels — NF-only vs full software stack")
		fmt.Print(experiments.RenderFullStack(rows))
	}

	if want("figure5") {
		scenarios, err := experiments.AllocatorStudy(sc)
		if err != nil {
			fatal(err)
		}
		section("Figures 5–7 — port-allocator choice (A vs B, low vs high churn)")
		fmt.Print(experiments.RenderFigure5(scenarios))
	}

	if want("shardbench") {
		rows, err := experiments.ShardBench(sc)
		if err != nil {
			fatal(err)
		}
		section("Shard scaling — predicted per-shard bounds vs simulated sharded deployment")
		fmt.Print(experiments.RenderShardBench(rows))
	}

	// solverbench is opt-in only (not part of -exp all): it times ~10
	// cold generations per mode and its wall time would dominate the
	// evaluation run.
	if *exp == "solverbench" {
		res, err := experiments.SolverBench(sc)
		if err != nil {
			fatal(err)
		}
		section("Solver ablation — incremental engine vs from-scratch solving")
		fmt.Print(experiments.RenderSolverBench(res))
		if *benchjson != "" {
			if err := experiments.WriteSolverBenchJSON(*benchjson, res); err != nil {
				fatal(err)
			}
			fmt.Printf("(wrote %s)\n", *benchjson)
		}
	}

	// chainbench is opt-in for the same reason: it composes five chain
	// lengths in four modes each, several runs apiece.
	if *exp == "chainbench" {
		res, err := experiments.ChainBench(sc)
		if err != nil {
			fatal(err)
		}
		section("Chain composition — coalescing, serial vs pooled, incremental vs reference, cold vs warm")
		fmt.Print(experiments.RenderChainBench(res))
		if *verbose {
			fmt.Println()
			fmt.Print(experiments.RenderChainBenchFolds(res))
		}
		if *benchjson != "" {
			if err := experiments.WriteChainBenchJSON(*benchjson, res); err != nil {
				fatal(err)
			}
			fmt.Printf("(wrote %s)\n", *benchjson)
		}
	}

	if !*nocache {
		cache := core.SharedCache()
		if sc.Cache != nil {
			cache = sc.Cache
		}
		ts := cache.TierStats()
		fmt.Printf("\n(contract cache: %d mem hits, %d disk hits, %d misses, %d entries", ts.MemHits, ts.DiskHits, ts.Misses, ts.Entries)
		if ts.DiskErrs > 0 {
			fmt.Printf(", %d disk errors", ts.DiskErrs)
		}
		fmt.Print(")\n")
	}
	fmt.Printf("(total %s)\n", time.Since(start).Round(time.Millisecond))
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "boltbench:", err)
	os.Exit(1)
}
