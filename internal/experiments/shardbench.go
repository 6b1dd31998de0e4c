package experiments

// shardbench validates the shard dimension of contracts (core/shard.go):
// for each NF it generates the shard-annotated contract once, then
// simulates the NF deployed across S ∈ {1,2,4,8} shards and compares
// the contract's per-shard bound against the worst simulated packet.
//
// The simulated deployment follows the sharability analysis, the way
// NFork physically partitions state the analysis proves partitionable:
// packets route to shards by monitor.FlowKey (the same dispatch the
// sharded online monitor uses), each shard runs on its own warm
// detailed core model with a private address partition, and only the
// calls the contract classified shared-rw run at real addresses
// through a cache-coherence directory that charges cross-core line
// transfers (hwmodel.ShardSim). The prediction side charges
// hwmodel.WorstXfer per contending shard for every shared access —
// pessimistic against the ≤ XferCycles a real transfer costs, the same
// way the conservative compute model dominates the detailed one.
//
// The container runs on one CPU, so shardbench measures model fidelity
// (is the bound sound, and how loose is it per shard count?), not
// wall-clock speedup.

import (
	"fmt"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/hwmodel"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// ShardCounts are the shard counts shardbench sweeps.
var ShardCounts = []int{1, 2, 4, 8}

// ShardRow is one (NF, shard count) cell of the shardbench table.
type ShardRow struct {
	NF     string
	Shards int
	// SharedCalls is the number of distinct (ds, method) pairs the
	// contract classified shared-rw (0 = the NF scales flat).
	SharedCalls int
	// PredictedCycles is the worst per-packet shard-aware bound over the
	// measured packets, each evaluated at its own observed PCVs.
	PredictedCycles uint64
	// MeasuredCycles is the worst simulated per-packet cycle count
	// (detailed core model plus coherence transfer charges).
	MeasuredCycles uint64
	// Transfers is the total number of cross-shard cache-line transfers
	// the coherence directory charged during measurement.
	Transfers uint64
	Packets   int
	// Unclassified counts measured packets whose call trace matched no
	// contract path (those fall back to the worst same-action path).
	Unclassified int
}

// Ratio is predicted ÷ measured cycles.
func (r ShardRow) Ratio() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.PredictedCycles) / float64(r.MeasuredCycles)
}

// shardBenchNFs are the roster NFs shardbench sweeps: the stateful
// builtins spanning all three verdicts (shard-local flow state, shared
// allocators and sweeps, read-only rings and tables) plus the four
// bytecode NFs.
var shardBenchNFs = []string{
	"nat", "bridge", "lb", "lpm", "firewall",
	"bvm-ratelimit", "bvm-acl", "bvm-decap", "bvm-scrub",
}

// ShardBench runs the sweep.
func ShardBench(sc Scale) ([]ShardRow, error) {
	var rows []ShardRow
	for _, name := range shardBenchNFs {
		nfRows, err := shardBenchNF(sc, name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, nfRows...)
	}
	return rows, nil
}

// sharedCallPairs collects the (ds, method) pairs the contract
// classified shared-rw — or could not classify, which shard-aware
// evaluation treats the same way.
func sharedCallPairs(ct *core.Contract) map[string]bool {
	pairs := make(map[string]bool)
	for _, p := range ct.Paths {
		for _, ev := range p.Trace {
			if ev.Sharing.Class == nfir.SharingSharedRW || ev.Sharing.Class == nfir.SharingUnknown {
				pairs[ev.DS+"."+ev.Method] = true
			}
		}
	}
	return pairs
}

// sharedBracketDS wraps a concrete data structure so that the methods
// the contract classified shared-rw execute inside a ShardSim shared
// bracket (real addresses, coherence directory); everything else stays
// in the current shard's private partition.
type sharedBracketDS struct {
	name   string
	inner  nfir.ConcreteDS
	sim    *hwmodel.ShardSim
	shared map[string]bool // full "ds.method" names
}

// Invoke implements nfir.ConcreteDS.
func (d *sharedBracketDS) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	if d.shared[d.name+"."+method] {
		d.sim.SetShared(true)
		defer d.sim.SetShared(false)
	}
	return d.inner.Invoke(method, args, env)
}

// attachSharedBrackets wraps every concrete DS of the environment.
func attachSharedBrackets(env *nfir.Env, sim *hwmodel.ShardSim, shared map[string]bool) {
	env.WrapLinked(func(name string, ds nfir.ConcreteDS) nfir.ConcreteDS {
		return &sharedBracketDS{name: name, inner: ds, sim: sim, shared: shared}
	})
}

func shardBenchNF(sc Scale, name string) ([]ShardRow, error) {
	inst, err := nf.Build(name, nf.BuildParams{Capacity: sc.TableCapacity})
	if err != nil {
		return nil, fmt.Errorf("shardbench %s: %w", name, err)
	}
	ct, err := sc.Generator().Generate(inst.Prog, inst.Models)
	if err != nil {
		return nil, fmt.Errorf("shardbench %s: generate: %w", name, err)
	}
	shared := sharedCallPairs(ct)
	pcvNames := make(map[string]bool)
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			pcvNames[v] = true
		}
	}

	warm, measure := shardWorkload(name, sc)
	var rows []ShardRow
	for _, shards := range ShardCounts {
		row, err := runSharded(sc, name, ct, shared, pcvNames, warm, measure, shards)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSharded simulates one shard count: a fresh instance (each
// deployment starts from empty state), the packets routed by flow hash,
// warmup excluded from measurement the way every other experiment
// excludes it.
func runSharded(sc Scale, name string, ct *core.Contract, shared map[string]bool,
	pcvNames map[string]bool, warm, measure []traffic.Packet, shards int) (ShardRow, error) {

	inst, err := nf.Build(name, nf.BuildParams{Capacity: sc.TableCapacity})
	if err != nil {
		return ShardRow{}, fmt.Errorf("shardbench %s: %w", name, err)
	}
	sim := hwmodel.NewShardSim(shards)
	inst.Env.Meter = perf.NewMeter(sim)
	attachSharedBrackets(inst.Env, sim, shared)
	// The call log wraps the shared brackets, so every recorded call
	// still executes inside its bracket.
	cl, err := core.NewClassifier(ct)
	if err != nil {
		return ShardRow{}, fmt.Errorf("shardbench %s: classifier: %w", name, err)
	}
	var log core.CallLog
	core.AttachCallLog(inst.Env, &log)
	pktBuf := make([]byte, nfir.MaxPacket)

	run := func(pkts []traffic.Packet, check bool, row *ShardRow) error {
		binding := make(map[string]uint64, len(pcvNames))
		for i, p := range pkts {
			shard := int(monitor.FlowKey(p.Data, p.InPort) % uint64(shards))
			sim.SetShard(shard)
			before := sim.Cycles(shard)
			// Classify against the pre-run bytes (the NF may rewrite the
			// packet in place).
			n := copy(pktBuf, p.Data)
			for j := n; j < len(pktBuf); j++ {
				pktBuf[j] = 0
			}
			log.Reset()
			inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
			act, err := inst.Env.Run(inst.Prog)
			if err != nil {
				return fmt.Errorf("shardbench %s S=%d packet %d: %w", name, shards, i, err)
			}
			if !check {
				continue
			}
			meas := sim.Cycles(shard) - before
			pcvs := inst.Env.PCVs()
			for v := range pcvNames {
				binding[v] = pcvs[v]
			}
			// The prediction is scoped to the packet's input class, the
			// paper's contract semantics: classify the observed trace to
			// its contract path and evaluate that path's shard-aware
			// bound at the observed PCVs. Packets the classifier cannot
			// place fall back to the worst same-action path.
			obs := &core.PacketObservation{
				Pkt: pktBuf, InPort: p.InPort, Time: p.Time,
				PktLen: uint64(len(p.Data)), Action: act.Kind, Calls: log.Records(),
			}
			var pred uint64
			if pc, ok := cl.Classify(obs); ok {
				pred = pc.ShardBoundAt(perf.Cycles, shards, binding)
			} else {
				row.Unclassified++
				filter := func(p *core.PathContract) bool { return p.Action == act.Kind }
				pred, _ = ct.ShardBound(perf.Cycles, shards, filter, binding)
			}
			if meas > pred {
				return fmt.Errorf("shardbench %s S=%d packet %d: SOUNDNESS VIOLATION: measured %d cycles > predicted %d (pcvs %v)",
					name, shards, i, meas, pred, binding)
			}
			if meas > row.MeasuredCycles {
				row.MeasuredCycles = meas
			}
			if pred > row.PredictedCycles {
				row.PredictedCycles = pred
			}
			row.Packets++
		}
		return nil
	}

	row := ShardRow{NF: name, Shards: shards, SharedCalls: len(shared)}
	if err := run(warm, false, &row); err != nil {
		return ShardRow{}, err
	}
	sim.ResetCycles()
	if err := run(measure, true, &row); err != nil {
		return ShardRow{}, err
	}
	row.Transfers = sim.Transfers()
	return row, nil
}

// shardWorkload builds the warmup and measurement streams for one NF.
// Flow-rich traffic spreads across shards; the bytecode NFs reuse their
// branch-covering workloads.
func shardWorkload(name string, sc Scale) (warm, measure []traffic.Packet) {
	n := sc.Warmup + sc.Packets
	var pkts []traffic.Packet
	switch name {
	case "bridge":
		pkts = traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: n, MACs: sc.TableCapacity / 4, Ports: 4,
			StartNS: 1_000, GapNS: 1_000, Seed: 21,
		})
	case "bvm-ratelimit", "bvm-acl", "bvm-decap", "bvm-scrub":
		pkts = bvmWorkload(name, Scale{Packets: n, TableCapacity: sc.TableCapacity})
	default:
		pkts = traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: n, Flows: sc.TableCapacity / 4, NewFlowEvery: 16,
			StartNS: 1_000, GapNS: 1_000, Seed: 17,
		})
	}
	if len(pkts) <= sc.Warmup {
		return nil, pkts
	}
	return pkts[:sc.Warmup], pkts[sc.Warmup:]
}

// RenderShardBench formats the sweep as a fidelity table.
func RenderShardBench(rows []ShardRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %7s %7s %12s %12s %7s %9s %8s\n",
		"NF", "SHARDS", "SHARED", "PRED(cyc)", "MEAS(cyc)", "RATIO", "XFERS", "UNCLASS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %7d %7d %12d %12d %6.1fx %9d %8d\n",
			r.NF, r.Shards, r.SharedCalls, r.PredictedCycles, r.MeasuredCycles, r.Ratio(), r.Transfers, r.Unclassified)
	}
	return b.String()
}
