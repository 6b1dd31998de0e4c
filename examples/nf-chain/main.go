// Operator use-case (paper §3.4, §5.2): contracts for NF chains.
//
// Part 1 — the paper's two-stage chain. A firewall that drops
// option-carrying packets sits in front of a static router whose option
// processing is expensive (79·n + const). Adding the two NFs' individual
// worst cases wildly over-provisions: the router's worst case can never
// happen behind this firewall. BOLT's composite contract joins path
// pairs, proves the expensive pairs infeasible with the constraint
// solver, and yields a much tighter — and still sound — bound (paper
// Table 5 and Figure 3).
//
// Part 2 — a four-stage service chain through the composition engine:
// firewall → NAT → bridge → LB, folded left to right by
// core.ComposeMany. Each fold step namespaces the downstream stage's
// variables with "b.", so in the 4-stage composite the firewall's PCVs
// keep their names, the NAT's read "b.x", the bridge's "b.b.x", and the
// LB's "b.b.b.x" — the prefix counts how many joins deep the stage sits.
//
// Part 3 — warm re-composition. With a contract cache attached, every
// fold prefix is content-addressed (the composite's key hashes the two
// sides' keys), so re-composing the same chain is a map lookup instead
// of thousands of pairwise solver checks.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/perf"
)

func main() {
	// ------------------------------------------------------------------
	// Part 1: the paper's firewall+router chain (Table 5, Figure 3).
	// ------------------------------------------------------------------
	t5, _, _, _, err := experiments.ChainContracts(experiments.Scale{Packets: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Contracts (paper Table 5):")
	fmt.Print(experiments.RenderTable5(t5))

	rows, err := experiments.Figure3(experiments.Scale{Packets: 1000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nComposition comparison (paper Figure 3):")
	fmt.Print(experiments.RenderFigure3(rows))

	var naive, comp experiments.Figure3Row
	for _, r := range rows {
		switch r.Name {
		case "Naive-Add":
			naive = r
		case "Composite-Bolt":
			comp = r
		}
	}
	fmt.Printf("\nNaive addition over-provisions by %.0f%%; the composite contract by %.0f%%.\n",
		100*float64(naive.PredictedIC-naive.MeasuredIC)/float64(naive.MeasuredIC),
		100*float64(comp.PredictedIC-comp.MeasuredIC)/float64(comp.MeasuredIC))
	fmt.Println("The composite correctly reflects that option-carrying packets die cheaply")
	fmt.Println("at the firewall and never reach the router's slow path.")

	// ------------------------------------------------------------------
	// Part 2: a four-stage chain — firewall → NAT → bridge → LB.
	// ------------------------------------------------------------------
	stages, names, err := experiments.ChainStages(experiments.QuickScale())
	if err != nil {
		log.Fatal(err)
	}
	chain, chainNames := stages[:4], names[:4]

	g := core.NewGenerator()
	g.Cache = core.NewContractCache()
	coldStart := time.Now()
	ct, err := core.ComposeMany(g, chain)
	if err != nil {
		log.Fatal(err)
	}
	cold := time.Since(coldStart)
	fmt.Printf("\nFour-stage chain %s:\n", strings.Join(chainNames, " → "))
	fmt.Printf("  composite contract: %d paths, %d input classes\n", len(ct.Paths), ct.NumClasses())

	// The fold namespaces each stage one level deeper: count PCVs per
	// "b." depth to see all four stages represented in one contract.
	depth := map[int][]string{}
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			d := strings.Count(v, "b.")
			depth[d] = append(depth[d], v)
		}
	}
	fmt.Println("  PCV namespacing (\"b.\" per fold level):")
	for d := 0; d < len(chain); d++ {
		seen := map[string]bool{}
		var uniq []string
		for _, v := range depth[d] {
			if !seen[v] {
				seen[v] = true
				uniq = append(uniq, v)
			}
		}
		sort.Strings(uniq)
		if len(uniq) == 0 {
			uniq = []string{"(none — the firewall's paths are PCV-free)"}
		} else if len(uniq) > 4 {
			uniq = append(uniq[:4], "…")
		}
		fmt.Printf("    stage %d (%-8s): %s\n", d+1, chainNames[d], strings.Join(uniq, ", "))
	}

	// Naive addition charges every packet the sum of the four stages'
	// standalone worst cases — one number for all traffic. The composite
	// keeps per-class bounds: a path's Events record how deep into the
	// chain its packet got (one " | " per join survived), so classes the
	// firewall drops are bounded by the firewall alone.
	pcvs := map[string]uint64{}
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			pcvs[v] = 4
		}
	}
	var naiveSum uint64
	for _, st := range chain {
		stCt, err := g.Generate(st.Prog, st.Models)
		if err != nil {
			log.Fatal(err)
		}
		stPCVs := map[string]uint64{}
		for _, p := range stCt.Paths {
			for v := range p.PCVRanges {
				stPCVs[v] = 4
			}
		}
		b, _ := stCt.Bound(perf.Instructions, nil, stPCVs)
		naiveSum += b
	}
	fmt.Printf("  worst-case IC at all PCVs=4: naive addition says %d for every packet;\n", naiveSum)
	fmt.Println("  the composite bounds each class by where its packet dies:")
	for reached := 1; reached <= len(chain); reached++ {
		joins := reached - 1
		n := 0
		b, _ := ct.Bound(perf.Instructions, func(p *core.PathContract) bool {
			if strings.Count(p.Events, " | ") != joins {
				return false
			}
			n++
			return true
		}, pcvs)
		label := "dropped at " + chainNames[reached-1]
		if reached == len(chain) {
			label = "reaches " + chainNames[reached-1] + " (drop or forward)"
		}
		if n == 0 {
			fmt.Printf("    %-32s    (no class dies here — this stage never drops)\n", label)
			continue
		}
		fmt.Printf("    %-32s %8d\n", label, b)
	}

	// ------------------------------------------------------------------
	// Part 3: warm re-composition through the contract cache.
	// ------------------------------------------------------------------
	warmStart := time.Now()
	again, err := core.ComposeMany(g, chain)
	if err != nil {
		log.Fatal(err)
	}
	warm := time.Since(warmStart)
	if again != ct {
		log.Fatal("warm re-compose did not return the cached composite")
	}
	ts := g.Cache.TierStats()
	fmt.Printf("\nWarm re-compose: %v vs %v cold (%.0fx); cache: %d hits, %d misses, %d entries.\n",
		warm.Round(10*time.Microsecond), cold.Round(10*time.Microsecond),
		float64(cold)/float64(warm), ts.MemHits+ts.DiskHits, ts.Misses, ts.Entries)
	fmt.Println("The chain's fold prefixes are content-addressed, so recomposing (or")
	fmt.Println("extending) a known chain skips both stage generation and the joins.")
}
