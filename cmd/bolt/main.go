// Command bolt generates and prints the performance contract of one of
// the built-in NFs — the tool-shaped form of the paper's headline
// workflow: NF code in, human-legible contract out, no execution of the
// NF required.
//
// Usage:
//
//	bolt -nf NAME              (-nf list prints the roster with provenance)
//	     [-bvm FILE]           (analyse a .bvm bytecode program instead)
//	     [-metric instructions|memaccesses|cycles]
//	     [-level nf|full]
//	     [-paths] [-capacity N] [-parallel N]
//	     [-provision RATE] [-clockhz HZ]
//	     [-json[=artifact|summary]]
//	     [-store DIR]
//
// -provision answers "how many cores do I need for this target rate?"
// from the contract alone: `bolt -nf nat -provision 10Mpps` inverts the
// shard-aware cycle bound (base cost plus the contention term the
// sharability analysis derives) and prints the smallest core count
// whose aggregate worst-case capacity reaches the target, with the
// per-core bound and capacity at each candidate count. RATE accepts
// K/M/G suffixes with an optional "pps" (e.g. 500Kpps, 10Mpps, 2.5M).
//
// With -store DIR the contract cache is backed by the on-disk store at
// DIR: a contract generated by any earlier run (of bolt or any other
// tool sharing the store) is loaded instead of regenerated, and fresh
// generations are persisted for later runs. boltctl administers DIR.
//
// -json emits the versioned lossless artifact (constraints, domains,
// traces, costs, shard verdicts, witnesses, raw paths). -json=summary emits
// the legacy provisioning summary instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/dpdk"
	"gobolt/internal/nf"
	"gobolt/internal/perf"
	"gobolt/internal/store"
	"gobolt/internal/symb"
)

// jsonMode is the -json flag: bare -json means the artifact codec,
// -json=summary keeps the legacy lossy export.
type jsonMode struct{ mode string }

func (j *jsonMode) String() string   { return j.mode }
func (j *jsonMode) IsBoolFlag() bool { return true }
func (j *jsonMode) Set(s string) error {
	switch s {
	case "true", "artifact":
		j.mode = "artifact"
	case "false", "":
		j.mode = ""
	case "summary":
		j.mode = "summary"
	default:
		return fmt.Errorf("unknown -json mode %q (want artifact or summary)", s)
	}
	return nil
}

func main() {
	var asJSON jsonMode
	var (
		nfName    = flag.String("nf", "nat", "NF to analyse ('list' prints the roster): "+nf.NamesList())
		bvmFile   = flag.String("bvm", "", "analyse a .bvm bytecode program from this file instead of a roster NF")
		metric    = flag.String("metric", "instructions", "metric: instructions, memaccesses, cycles")
		level     = flag.String("level", "nf", "analysis level: nf (NF-only) or full (full stack)")
		paths     = flag.Bool("paths", false, "print every path instead of coalesced classes")
		capacity  = flag.Int("capacity", 4096, "table capacity for stateful NFs")
		parallel  = flag.Int("parallel", 0, "worker pool size for per-path analysis (0 = one per CPU, 1 = serial)")
		storeDir  = flag.String("store", "", "back the contract cache with the on-disk store at this directory")
		provision = flag.String("provision", "", "target packet rate to provision cores for (e.g. 10Mpps); prints the core count the shard-aware bound needs")
		clockHz   = flag.Float64("clockhz", 3.2e9, "core clock for -provision")
		pcvFlag   = flag.String("pcv", "", "comma-separated PCV assumptions for -provision (e.g. c=2,e=1); unstated PCVs are assumed 0")
		provClass = flag.String("class", "", "restrict -provision to classes containing this substring (e.g. 'forward', 'lookup_int:hit'); default: all classes")
	)
	flag.Var(&asJSON, "json", "emit the contract as a lossless artifact (or -json=summary for the legacy provisioning export)")
	flag.Parse()
	var target float64
	if *provision != "" {
		var err error
		if target, err = parseRate(*provision); err != nil {
			fatal(err)
		}
	}
	if !positiveFinite(*clockHz) {
		fatal(fmt.Errorf("bad -clockhz %v (want a finite clock rate above 0 Hz, e.g. 3.2e9)", *clockHz))
	}

	// Interrupt cancels the generation; the pipeline reports how far it got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *bvmFile == "" && (*nfName == "list" || *nfName == "help") {
		for _, e := range nf.Roster() {
			fmt.Printf("%-18s %-22s %s\n", e.Name, e.ProvenanceLabel(), e.Summary)
		}
		return
	}

	var inst *nf.Instance
	var err error
	if *bvmFile != "" {
		inst, err = nf.LoadBVMFile(*bvmFile, nf.BuildParams{Capacity: *capacity})
	} else {
		inst, err = nf.Build(*nfName, nf.BuildParams{Capacity: *capacity})
	}
	if err != nil {
		fatal(err)
	}
	m, err := parseMetric(*metric)
	if err != nil {
		fatal(err)
	}
	g := core.NewGenerator()
	g.Parallelism = *parallel
	if *level == "full" {
		g.Level = dpdk.FullStack
	}
	// A cache makes the generation content-addressable (the artifact
	// key); -store makes it durable across processes.
	g.Cache = core.NewContractCache()
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		g.Cache.AttachDisk(s)
	}

	ct, rawPaths, err := g.GenerateWithPathsContext(ctx, inst.Prog, inst.Models)
	if err != nil {
		fatal(err)
	}

	switch asJSON.mode {
	case "artifact":
		key, _ := g.CacheKey(inst.Prog, inst.Models)
		data, err := core.EncodeArtifact(&core.Artifact{Key: key, Contract: ct, Paths: rawPaths})
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
		return
	case "summary":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ct); err != nil {
			fatal(err)
		}
		return
	}
	if *provision != "" {
		pcvs, err := parsePCVs(ct, *pcvFlag)
		if err != nil {
			fatal(err)
		}
		printProvision(ct, *clockHz, target, pcvs, *provClass)
		return
	}
	if *paths {
		fmt.Printf("Performance contract: %s (%s, metric %s)\n", ct.NF, ct.Level, m)
		for _, p := range ct.Paths {
			fmt.Printf("path %3d  %-60s %s\n", p.ID, p.Class(), p.Cost[m])
			fmt.Printf("          constraints: %s\n", symb.ConjString(p.Constraints))
		}
		return
	}
	fmt.Print(ct.Render(m))
}

func parseMetric(s string) (perf.Metric, error) { return perf.ParseMetric(s) }

// parseRate parses "10Mpps", "500Kpps", "2.5M", or a bare number into
// packets per second.
func parseRate(s string) (float64, error) {
	orig := s
	s = strings.TrimSuffix(strings.ToLower(strings.TrimSpace(s)), "pps")
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1e3, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1e6, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mult, s = 1e9, strings.TrimSuffix(s, "g")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !positiveFinite(v*mult) {
		return 0, fmt.Errorf("bad rate %q (want e.g. 10Mpps, 500Kpps, 2.5M)", orig)
	}
	return v * mult, nil
}

// positiveFinite reports whether v is a usable rate or clock: finite
// and above zero (strconv.ParseFloat also accepts "inf" and "nan").
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// parsePCVs turns the -pcv flag into the full assumption binding: every
// PCV the contract mentions, 0 unless stated. Provisioning at the PCV
// range maxima answers a different (pathological-worst-case) question —
// the contract's whole point is that bounds are conditional on stated
// workload assumptions, which the online monitor then enforces.
func parsePCVs(ct *core.Contract, s string) (map[string]uint64, error) {
	pcvs := make(map[string]uint64)
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			pcvs[v] = 0
		}
	}
	if s == "" {
		return pcvs, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -pcv entry %q (want name=value)", kv)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -pcv value in %q: %v", kv, err)
		}
		if _, known := pcvs[name]; !known {
			return nil, fmt.Errorf("contract has no PCV %q (has: %s)", name, pcvNameList(pcvs))
		}
		pcvs[name] = v
	}
	return pcvs, nil
}

func pcvNameList(pcvs map[string]uint64) string {
	names := make([]string, 0, len(pcvs))
	for v := range pcvs {
		names = append(names, v)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// printProvision inverts the shard-aware cycle bound for the target
// rate: the worst-case per-packet bound grows with the core count
// (contention on shared state), so capacity is not linear in cores —
// the plan is the smallest count whose aggregate capacity meets the
// target, shown alongside the scaling curve that led there.
func printProvision(ct *core.Contract, clockHz, targetPPS float64, pcvs map[string]uint64, class string) {
	var filter func(*core.PathContract) bool
	if class != "" {
		filter = func(p *core.PathContract) bool { return strings.Contains(p.Class(), class) }
	}
	plan := ct.ProvisionCores(clockHz, targetPPS, filter, pcvs, 0)
	fmt.Printf("Provisioning %s for %s at %.2f GHz\n", ct.NF, fmtPPS(targetPPS), clockHz/1e9)
	if class != "" {
		fmt.Printf("classes:     matching %q only\n", class)
	}
	if len(pcvs) > 0 {
		fmt.Printf("assumptions: %s (override with -pcv; the monitor pages when traffic breaks them)\n", renderPCVs(pcvs))
	}
	if plan.Cores == 0 {
		fmt.Printf("=> no paths match; nothing to provision\n")
		return
	}
	fmt.Printf("%7s %16s %16s\n", "CORES", "CYC/PKT BOUND", "CAPACITY")
	show := map[int]bool{1: true, 2: true, 4: true, 8: true, plan.Cores: true}
	for s := 1; s <= plan.Cores; s++ {
		if !show[s] {
			continue
		}
		cycles, _ := ct.ShardBound(perf.Cycles, s, filter, pcvs)
		fmt.Printf("%7d %16d %16s\n", s, cycles, fmtPPS(float64(s)*clockHz/float64(cycles)))
	}
	if plan.Achievable {
		fmt.Printf("=> %d core(s): guaranteed %s aggregate (bound %d cycles/pkt per core)\n",
			plan.Cores, fmtPPS(plan.PacketsPerSecond), plan.CyclesPerPacket)
	} else {
		fmt.Printf("=> target UNREACHABLE: capacity peaks at %s with %d core(s) — contention on shared state eats further cores\n",
			fmtPPS(plan.PacketsPerSecond), plan.Cores)
	}
}

func renderPCVs(pcvs map[string]uint64) string {
	names := make([]string, 0, len(pcvs))
	for v := range pcvs {
		names = append(names, v)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, v := range names {
		parts[i] = fmt.Sprintf("%s=%d", v, pcvs[v])
	}
	return strings.Join(parts, " ")
}

func fmtPPS(pps float64) string {
	switch {
	case pps >= 1e9:
		return fmt.Sprintf("%.2f Gpps", pps/1e9)
	case pps >= 1e6:
		return fmt.Sprintf("%.2f Mpps", pps/1e6)
	case pps >= 1e3:
		return fmt.Sprintf("%.2f Kpps", pps/1e3)
	}
	return fmt.Sprintf("%.0f pps", pps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bolt:", err)
	os.Exit(1)
}
