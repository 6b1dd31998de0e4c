// Command distiller is the BOLT Distiller (§4): it feeds a packet trace
// through an NF's production build and reports the PCV values each
// packet induced — the tool operators use to bind the PCVs in a
// contract to what their traffic actually does.
//
// Usage:
//
//	distiller -nf NAME [-pcap trace.pcap [-inport P] | -packets N]
//	          [-capacity N] [-sensitivity PCV] [-store DIR]
//
// Without -pcap the distiller generates N packets (at least 1, exit 2
// otherwise) sized to the table capacity: bridge frames over
// capacity/4 stations for bridge, UDP traffic over capacity/4 flows for
// every other NF (at least one station or flow either way). An unknown
// NF exits 1 naming the roster.
//
// With -store DIR the distiller also generates (or loads from the
// shared on-disk contract store) the NF's performance contract and
// closes the loop: it evaluates the contract's bound at the distilled
// PCV maxima and reports predicted vs measured worst case.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/dpdk"
	"gobolt/internal/nf"
	"gobolt/internal/pcap"
	"gobolt/internal/perf"
	"gobolt/internal/store"
	"gobolt/internal/traffic"
)

func main() {
	var (
		nfName   = flag.String("nf", "nat", "NF to drive: "+nf.NamesList())
		pcapPath = flag.String("pcap", "", "replay this pcap file (default: generate traffic)")
		packets  = flag.Int("packets", 5000, "packets to generate when no pcap is given")
		capacity = flag.Int("capacity", 4096, "table capacity")
		inPort   = flag.Uint64("inport", 0, "arrival port for pcap packets")
		sens     = flag.String("sensitivity", "", "group packets by this PCV and report max/mean IC per value (§4 sensitivity analysis)")
		storeDir = flag.String("store", "", "contract store: check measurements against the NF's contract bound (shared with bolt/boltbench/boltctl)")
	)
	flag.Parse()
	if *pcapPath == "" && *packets < 1 {
		fmt.Fprintf(os.Stderr, "distiller: -packets must be at least 1, got %d\n", *packets)
		os.Exit(2)
	}

	// Ctrl-C stops a long replay at the next packet boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	inst, err := buildNF(*nfName, *capacity)
	if err != nil {
		fatal(err)
	}

	// With -store, generate (or load) the NF's contract through the shared
	// on-disk store before replaying, so the prediction is ready to check
	// the measurements against.
	var contract *core.Contract
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		g := core.NewGenerator()
		g.Cache = core.NewContractCache()
		g.Cache.AttachDisk(s)
		contract, err = g.GenerateContext(ctx, inst.Prog, inst.Models)
		if err != nil {
			fatal(err)
		}
		// The replay mutates NF state, so rebuild a fresh instance; the
		// contract itself is state-independent.
		if inst, err = buildNF(*nfName, *capacity); err != nil {
			fatal(err)
		}
	}

	var pkts []traffic.Packet
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		recs, err := pcap.ReadAll(f)
		if err != nil {
			fatal(err)
		}
		pkts = traffic.FromPCAP(recs, *inPort)
	} else {
		switch *nfName {
		case "bridge":
			pkts = traffic.BridgeFrames(traffic.BridgeConfig{
				Packets: *packets, MACs: max(1, *capacity/4), Ports: 4,
				StartNS: 1_000, GapNS: 10_000, Seed: 1,
			})
		default:
			pkts = traffic.UDPFlows(traffic.UDPFlowConfig{
				Packets: *packets, Flows: max(1, *capacity/4), NewFlowEvery: 16,
				StartNS: 1_000, GapNS: 10_000, Seed: 1, InPort: *inPort,
			})
		}
	}

	runner := &distill.Runner{Level: dpdk.NFOnly}
	recs, err := runner.RunContext(ctx, inst, pkts)
	if err != nil {
		fatal(err)
	}
	rep := &distill.Report{Records: recs}

	fmt.Printf("Distiller report: %s over %d packets\n\n", *nfName, len(rep.Records))
	fmt.Printf("Distilled PCV maxima: %v\n\n", rep.MaxPCVs())
	for _, pcv := range []struct{ name, desc string }{
		{"e", "expired entries per packet"},
		{"c", "hash collisions (worst op per packet)"},
		{"t", "bucket traversals (worst op per packet)"},
		{"l", "matched prefix length"},
		{"n", "IP options processed"},
		{"s", "allocator scan length"},
		{"b", "backend fallback probes"},
		{"o", "occupancy at rehash"},
	} {
		bins := rep.PCVHistogram(pcv.name)
		if len(bins) == 1 && bins[0].Value == 0 {
			continue // PCV never induced
		}
		fmt.Printf("PCV %q — %s:\n", pcv.name, pcv.desc)
		fmt.Printf("  %-12s %s\n", "value", "probability density (%)")
		for _, b := range bins {
			fmt.Printf("  %-12d %8.3f\n", b.Value, b.Percent)
		}
		fmt.Println()
	}

	ic := rep.Series(perf.Instructions)
	fmt.Printf("Per-packet IC: mean %.1f, p50 %d, p99 %d, max %d\n",
		distill.Mean(ic), distill.Quantile(ic, 0.5), distill.Quantile(ic, 0.99), distill.Max(ic))

	if *sens != "" {
		fmt.Printf("\nSensitivity to PCV %q:\n", *sens)
		fmt.Printf("  %-10s %8s %10s %10s\n", "value", "packets", "max IC", "mean IC")
		for _, row := range rep.Sensitivity(*sens) {
			fmt.Printf("  %-10d %8d %10d %10.1f\n", row.PCVValue, row.Count, row.MaxIC, row.MeanIC)
		}
	}

	if contract != nil {
		// Close the loop (§4): the contract's bound at the distilled PCV
		// maxima must cover every instruction count the trace induced.
		maxima := rep.MaxPCVs()
		predicted, worst := contract.Bound(perf.Instructions, nil, maxima)
		measured := distill.Max(ic)
		fmt.Printf("\nContract check (NF-only, metric IC):\n")
		fmt.Printf("  predicted bound at distilled maxima: %d", predicted)
		if worst != nil {
			fmt.Printf("  (path class %s)", worst.Class())
		}
		fmt.Printf("\n  measured max over trace:             %d\n", measured)
		if measured > predicted {
			fmt.Println("  VIOLATION: trace exceeded the contract bound")
			os.Exit(2)
		}
		fmt.Println("  contract holds for this trace")
	}
}

// buildNF builds a roster NF with the distiller's canonical overrides: a
// 60s expiry window for nat and bridge (so replayed traces actually
// induce the expiry PCV) and the single evaluation route for lpm.
func buildNF(name string, capacity int) (*nf.Instance, error) {
	p := nf.BuildParams{Capacity: capacity}
	switch name {
	case "nat", "bridge":
		p.TimeoutNS = 60_000_000_000
	case "lpm":
		p.Routes = []nf.Route{{Prefix: 0xC0A80000, Length: 16, Port: 1}}
	}
	return nf.Build(name, p)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distiller:", err)
	os.Exit(1)
}
