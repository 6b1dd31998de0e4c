// Command boltbench regenerates every table and figure of the paper's
// evaluation (§5) and prints them as text tables.
//
// Usage:
//
//	boltbench [-exp all|figure1|table3|microbench|bvm|table4|figure2|
//	                table5|figure3|table6|table7|figure4|figure5|
//	                fullstack|ablation|census|shardbench]
//	          [-scale default|quick] [-parallel N] [-nocache]
//	          [-store DIR]
//
// An unknown -exp or -scale is a usage error (exit 2). With -store DIR
// the contract cache is tiered onto the on-disk store at DIR (shared
// with bolt/boltmon/boltctl): a second boltbench run — or any other
// tool using the same store — starts warm, and the cache summary breaks
// hits down by tier.
//
// boltbench reproduces results; it does not time the system. The
// repository's benchmark is `go run ./bench` (see BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

// experimentNames are the -exp values; "all" runs every experiment.
var experimentNames = []string{
	"all", "figure1", "table3", "microbench", "bvm", "table4", "figure2",
	"table5", "figure3", "table6", "table7", "figure4", "figure5",
	"fullstack", "ablation", "census", "shardbench",
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run ("+strings.Join(experimentNames, ", ")+")")
		scale    = flag.String("scale", "default", "experiment scale: default or quick")
		parallel = flag.Int("parallel", 0, "worker pool size for contract generation and scenario runs (0 = one per CPU, 1 = serial)")
		nocache  = flag.Bool("nocache", false, "disable the contract cache (regenerate every contract from scratch)")
		storeDir = flag.String("store", "", "back the contract cache with the on-disk store at this directory (shared with bolt/boltmon/boltctl)")
	)
	flag.Parse()

	if !slices.Contains(experimentNames, *exp) {
		usage(fmt.Sprintf("unknown experiment %q (valid: %s)", *exp, strings.Join(experimentNames, ", ")))
	}
	var sc experiments.Scale
	switch *scale {
	case "default":
		sc = experiments.DefaultScale()
	case "quick":
		sc = experiments.QuickScale()
	default:
		usage(fmt.Sprintf("unknown scale %q (valid: default, quick)", *scale))
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

// usage reports a bad flag value and exits 2, as flag.Parse does.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "boltbench:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "boltbench:", err)
	os.Exit(1)
}
