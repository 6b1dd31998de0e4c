package experiments

import (
	"context"
	"fmt"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/par"
	"gobolt/internal/traffic"
)

// Path filters used to carve the paper's input classes out of a
// contract.
func has(frags ...string) func(*core.PathContract) bool {
	return func(p *core.PathContract) bool {
		for _, f := range frags {
			if !strings.Contains(p.Events, f) {
				return false
			}
		}
		return true
	}
}

func hasNot(frag string) func(*core.PathContract) bool {
	return func(p *core.PathContract) bool { return !strings.Contains(p.Events, frag) }
}

func acts(kind nfir.ActionKind) func(*core.PathContract) bool {
	return func(p *core.PathContract) bool { return p.Action == kind }
}

const hourNS = uint64(3_600_000_000_000)

// Scenario is one of the §5.1 NF/packet-class measurements, packaged so
// other harnesses (Figure1 itself, the online monitor's differential
// tests) can replay exactly the published methodology: warm the
// instance, synthesize any unreachable state, then measure the class.
type Scenario struct {
	// Name is the Figure 1 row label (NAT1 … LPM2).
	Name string
	// Instance is the freshly built NF with its generated contract.
	Instance *nf.Instance
	Contract *core.Contract
	// Warmup packets run through the measuring runner before Prepare.
	Warmup []traffic.Packet
	// Prepare synthesizes state between warmup and measurement (mass-aged
	// tables for the pathological classes, dead backends for LB3); nil
	// when the class needs none.
	Prepare func() error
	// Measure is the class's packet workload.
	Measure []traffic.Packet
	// Filter selects the class's contract paths (nil = whole contract).
	Filter func(*core.PathContract) bool
}

// Figure1 runs the 14 NF/packet-class scenarios of §5.1 and returns
// their predicted-vs-measured rows (IC and MA in Figure 1, cycles in
// Table 3 — the same runs produce both). The four NF families are
// independent (each scenario builds a fresh instance), so they run
// concurrently on the scale's worker pool; rows keep the serial order.
func Figure1(sc Scale) ([]ClassResult, error) {
	families := []func(Scale) ([]Scenario, error){
		natScenarios, bridgeScenarios, lbScenarios, lpmScenarios,
	}
	rows := make([][]ClassResult, len(families))
	err := par.ForEach(context.Background(), sc.workers(), len(families), func(i int) error {
		scens, err := families[i](sc)
		if err != nil {
			return err
		}
		for _, s := range scens {
			res, err := measureScenario(s)
			if err != nil {
				return err
			}
			rows[i] = append(rows[i], res)
		}
		return nil
	})
	var out []ClassResult
	for _, rs := range rows {
		out = append(out, rs...)
	}
	return out, err
}

// Scenarios builds all 14 Figure-1 scenarios without measuring them, in
// row order. Each carries a fresh instance, so a caller can run the
// class through any harness (the monitor's zero-false-positive test).
func Scenarios(sc Scale) ([]Scenario, error) {
	var out []Scenario
	for _, family := range []func(Scale) ([]Scenario, error){
		natScenarios, bridgeScenarios, lbScenarios, lpmScenarios,
	} {
		scens, err := family(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, scens...)
	}
	return out, nil
}

// classFlows sizes the steady-state flow population so the working set
// scales with the table (keeping cache behaviour — and thus the Table 3
// cycle ratios — representative rather than toy-sized).
func classFlows(sc Scale) int {
	f := sc.TableCapacity / 4
	if f < 64 {
		f = 64
	}
	return f
}

func warmupFor(sc Scale, flows int) int {
	if sc.Warmup > flows {
		return sc.Warmup
	}
	return flows
}

func natScenarios(sc Scale) ([]Scenario, error) {
	build := func() (*nf.NAT, *core.Contract, error) {
		nat := nf.NewNAT(nf.NATConfig{
			ExternalIP: 0xC0A80001, Capacity: sc.TableCapacity,
			TimeoutNS: hourNS, GranularityNS: 1_000_000, Seed: 11,
		})
		ct, err := sc.Generator().Generate(nat.Prog, nat.Models)
		return nat, ct, err
	}
	var out []Scenario

	// NAT1: unconstrained traffic / pathological synthesized state — a
	// full, fully-collided, fully-aged flow table mass-expired by one
	// packet (paper §5.1 methodology).
	{
		nat, ct, err := build()
		if err != nil {
			return nil, err
		}
		now := hourNS * 2
		trigger := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: 1, Flows: 1, StartNS: now, Seed: 1, InPort: nf.NATPortInternal,
		})
		out = append(out, Scenario{
			Name: "NAT1", Instance: nat.Instance, Contract: ct,
			Prepare: func() error {
				nat.Map.SynthesizePathological(nat.Env, sc.PathoEntries)
				return nil
			},
			Measure: trigger,
		})
	}

	// NAT2: packets from the internal network belonging to new
	// connections.
	{
		nat, ct, err := build()
		if err != nil {
			return nil, err
		}
		pkts := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: sc.Packets, NewFlowEvery: 1,
			StartNS: 1_000, GapNS: 1_000, Seed: 2, InPort: nf.NATPortInternal,
		})
		out = append(out, Scenario{
			Name: "NAT2", Instance: nat.Instance, Contract: ct, Measure: pkts,
			Filter: core.And(acts(nfir.ActionForward), has("flows.add:ok")),
		})
	}

	// NAT3: established connections.
	{
		nat, ct, err := build()
		if err != nil {
			return nil, err
		}
		population := classFlows(sc)
		warmN := warmupFor(sc, population)
		flows := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: warmN, Flows: population, RoundRobin: true,
			StartNS: 1_000, GapNS: 1_000, Seed: 3, InPort: nf.NATPortInternal,
		})
		replay := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: population,
			StartNS: 1_000 + uint64(warmN)*1_000, GapNS: 1_000, Seed: 3, InPort: nf.NATPortInternal,
		})
		out = append(out, Scenario{
			Name: "NAT3", Instance: nat.Instance, Contract: ct,
			Warmup: flows, Measure: replay,
			Filter: core.And(acts(nfir.ActionForward), has("flows.lookup_int:hit")),
		})
	}

	// NAT4: external packets with no matching allocation (dropped).
	{
		nat, ct, err := build()
		if err != nil {
			return nil, err
		}
		pkts := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: 64,
			StartNS: 1_000, GapNS: 1_000, Seed: 4, InPort: nf.NATPortExternal,
		})
		out = append(out, Scenario{
			Name: "NAT4", Instance: nat.Instance, Contract: ct, Measure: pkts,
			Filter: core.And(acts(nfir.ActionDrop), has("flows.lookup_ext:miss")),
		})
	}
	return out, nil
}

func bridgeScenarios(sc Scale) ([]Scenario, error) {
	build := func() (*nf.Bridge, *core.Contract, error) {
		br := nf.NewBridge(nf.BridgeConfig{
			Ports: 4, Capacity: sc.TableCapacity,
			TimeoutNS: hourNS, GranularityNS: 1_000_000, Seed: 21,
		})
		ct, err := sc.Generator().Generate(br.Prog, br.Models)
		return br, ct, err
	}
	var out []Scenario

	// Br1: pathological mass expiry.
	{
		br, ct, err := build()
		if err != nil {
			return nil, err
		}
		now := hourNS * 2
		trigger := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: 1, MACs: 4, Ports: 4, StartNS: now, Seed: 1,
		})
		out = append(out, Scenario{
			Name: "Br1", Instance: br.Instance, Contract: ct,
			Prepare: func() error {
				br.Table.SynthesizePathological(br.Env, sc.PathoEntries)
				return nil
			},
			Measure: trigger,
		})
	}

	// Br2: broadcast frames from known stations.
	{
		br, ct, err := build()
		if err != nil {
			return nil, err
		}
		warm := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: warmupFor(sc, classFlows(sc)), MACs: classFlows(sc), Ports: 4, RoundRobin: true,
			StartNS: 1_000, GapNS: 1_000, Seed: 5,
		})
		bcast := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: sc.Packets, MACs: classFlows(sc), BroadcastFraction: 1.0, Ports: 4, RoundRobin: true,
			StartNS: 1_000 + uint64(warmupFor(sc, classFlows(sc)))*1_000, GapNS: 1_000, Seed: 5,
		})
		out = append(out, Scenario{
			Name: "Br2", Instance: br.Instance, Contract: ct,
			Warmup: warm, Measure: bcast,
			Filter: core.And(has("mac.put:known"), hasNot("mac.peek")),
		})
	}

	// Br3: unicast frames between known stations.
	{
		br, ct, err := build()
		if err != nil {
			return nil, err
		}
		warm := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: warmupFor(sc, classFlows(sc)), MACs: classFlows(sc), Ports: 4, RoundRobin: true,
			StartNS: 1_000, GapNS: 1_000, Seed: 6,
		})
		uni := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: sc.Packets, MACs: classFlows(sc), Ports: 4, RoundRobin: true,
			StartNS: 1_000 + uint64(warmupFor(sc, classFlows(sc)))*1_000, GapNS: 1_000, Seed: 6,
		})
		out = append(out, Scenario{
			Name: "Br3", Instance: br.Instance, Contract: ct,
			Warmup: warm, Measure: uni,
			Filter: has("mac.put:known", "mac.peek:hit"),
		})
	}
	return out, nil
}

func lbScenarios(sc Scale) ([]Scenario, error) {
	const backends = 16
	build := func() (*nf.LB, *core.Contract, error) {
		lb, err := nf.NewLB(nf.LBConfig{
			Backends: backends, RingSize: 4099, BackendIPBase: 0xAC100000,
			FlowCapacity: sc.TableCapacity,
			TimeoutNS:    hourNS, GranularityNS: 1_000_000,
			HeartbeatTimeoutNS: hourNS, Seed: 31,
		})
		if err != nil {
			return nil, nil, err
		}
		ct, err := sc.Generator().Generate(lb.Prog, lb.Models)
		return lb, ct, err
	}
	heartbeatAll := func(t uint64) []traffic.Packet {
		var hb []traffic.Packet
		for b := uint64(0); b < backends; b++ {
			hb = append(hb, traffic.Heartbeat(b, nf.LBHeartbeatPort, t+b))
		}
		return hb
	}
	var out []Scenario

	// LB1: pathological mass expiry of the flow table.
	{
		lb, ct, err := build()
		if err != nil {
			return nil, err
		}
		now := hourNS * 2
		trigger := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: 1, Flows: 1, StartNS: now, Seed: 1, InPort: nf.LBPortClient,
		})
		out = append(out, Scenario{
			Name: "LB1", Instance: lb.Instance, Contract: ct,
			Prepare: func() error {
				lb.Flows.SynthesizePathological(lb.Env, sc.PathoEntries)
				for b := 0; b < backends; b++ {
					lb.Ring.SetHeartbeat(b, now)
				}
				return nil
			},
			Measure: trigger,
		})
	}

	// LB2: new flows from the external network, all backends live.
	{
		lb, ct, err := build()
		if err != nil {
			return nil, err
		}
		warm := heartbeatAll(1_000)
		pkts := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: sc.Packets, NewFlowEvery: 1,
			StartNS: 10_000, GapNS: 1_000, Seed: 7, InPort: nf.LBPortClient,
		})
		out = append(out, Scenario{
			Name: "LB2", Instance: lb.Instance, Contract: ct,
			Warmup: warm, Measure: pkts,
			Filter: has("flows.get:miss", "ring.pick_alive:direct"),
		})
	}

	// LB3: existing flows whose backend became unresponsive: warm flows
	// with all backends alive, then mark every backend dead except one.
	// The warmup runs through a bare runner inside Prepare (not the
	// measuring runner), preserving the original cold-cache measurement.
	{
		lb, ct, err := build()
		if err != nil {
			return nil, err
		}
		warm := append(heartbeatAll(1_000), traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: sc.Packets, RoundRobin: true,
			StartNS: 10_000, GapNS: 1_000, Seed: 8, InPort: nf.LBPortClient,
		})...)
		replay := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: sc.Packets, RoundRobin: true,
			StartNS: 10_000 + uint64(sc.Packets)*1_000, GapNS: 1_000, Seed: 8, InPort: nf.LBPortClient,
		})
		out = append(out, Scenario{
			Name: "LB3", Instance: lb.Instance, Contract: ct,
			Prepare: func() error {
				if _, err := (&distill.Runner{}).Run(lb.Instance, warm); err != nil {
					return err
				}
				// Kill all backends but 0 (state synthesis, as the paper does
				// for states traffic cannot reach quickly).
				for b := 1; b < backends; b++ {
					lb.Ring.SetHeartbeat(b, 0)
				}
				lb.Ring.TimeoutNS = 1 // everything not re-heartbeated is dead
				lb.Ring.SetHeartbeat(0, hourNS*3)
				return nil
			},
			Measure: replay,
			Filter: core.And(has("flows.get:hit", "ring.alive:dead", "flows.put:known"),
				hasNot("ring.pick_alive:none")),
		})
	}

	// LB4: existing flows with live backends.
	{
		lb, ct, err := build()
		if err != nil {
			return nil, err
		}
		population := classFlows(sc)
		warmN := warmupFor(sc, population)
		warm := append(heartbeatAll(1_000), traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: warmN, Flows: population, RoundRobin: true,
			StartNS: 10_000, GapNS: 1_000, Seed: 9, InPort: nf.LBPortClient,
		})...)
		replay := traffic.UDPFlows(traffic.UDPFlowConfig{
			Packets: sc.Packets, Flows: population,
			StartNS: 10_000 + uint64(warmN)*1_000, GapNS: 1_000, Seed: 9, InPort: nf.LBPortClient,
		})
		out = append(out, Scenario{
			Name: "LB4", Instance: lb.Instance, Contract: ct,
			Warmup: warm, Measure: replay,
			Filter: has("flows.get:hit", "ring.alive:alive"),
		})
	}

	// LB5: heartbeat packets from backends.
	{
		lb, ct, err := build()
		if err != nil {
			return nil, err
		}
		var pkts []traffic.Packet
		for i := 0; i < sc.Packets; i++ {
			pkts = append(pkts, traffic.Heartbeat(uint64(i%backends), nf.LBHeartbeatPort, uint64(1_000+i*1_000)))
		}
		out = append(out, Scenario{
			Name: "LB5", Instance: lb.Instance, Contract: ct, Measure: pkts,
			Filter: has("ring.heartbeat:ok"),
		})
	}
	return out, nil
}

func lpmScenarios(sc Scale) ([]Scenario, error) {
	build := func() (*nf.LPMRouter, *core.Contract, error) {
		r := nf.NewLPMRouter(nf.LPMRouterConfig{Ports: 16, DefaultPort: 0, MaxTbl8Groups: 64})
		routes := []struct {
			prefix uint32
			length int
			port   uint16
		}{
			{0x0A000000, 8, 1},
			{0x0A010000, 16, 2},
			{0xC0A80100, 24, 3},
			{0xC0A80180, 25, 4}, // long prefixes: the LPM1 class
			{0xC0A801C0, 26, 5},
			{0x08080800, 29, 6},
		}
		for _, rt := range routes {
			if err := r.Table.AddRoute(rt.prefix, rt.length, rt.port); err != nil {
				return nil, nil, err
			}
		}
		ct, err := sc.Generator().Generate(r.Prog, r.Models)
		return r, ct, err
	}
	var out []Scenario

	// LPM1: unconstrained traffic — CASTAN-style adversarial generation
	// drives every packet into the two-read path (>24-bit matches).
	{
		r, ct, err := build()
		if err != nil {
			return nil, err
		}
		pkts := traffic.AdversarialLPM(r.Table, sc.Packets, 1_000, 1_000, 10)
		out = append(out, Scenario{
			Name: "LPM1", Instance: r.Instance, Contract: ct, Measure: pkts,
			Filter: has("lpm.get:long"),
		})
	}

	// LPM2: matched prefixes ≤ 24 bits — exactly one table read.
	{
		r, ct, err := build()
		if err != nil {
			return nil, err
		}
		// Note: destinations must avoid tbl24 slots extended by the >24
		// routes — in DIR-24-8 those take two reads even for ≤24-bit
		// matches, which is precisely why the paper phrases LPM2 as a
		// *constraint on the input class*.
		pkts := traffic.LPMPackets(traffic.LPMConfig{
			Packets: sc.Packets,
			Dsts:    []uint32{0x0A020304, 0x0A010505, 0x0B000001, 0x01020304},
			StartNS: 1_000, GapNS: 1_000, Seed: 11,
		})
		out = append(out, Scenario{
			Name: "LPM2", Instance: r.Instance, Contract: ct, Measure: pkts,
			Filter: has("lpm.get:short"),
		})
	}
	return out, nil
}

// RenderFigure1 prints the Figure 1 rows as a text table.
func RenderFigure1(rows []ClassResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %14s %14s %8s %12s %12s %8s\n",
		"Class", "Predicted IC", "Measured IC", "Over%", "Pred MA", "Meas MA", "Over%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14d %14d %7.2f%% %12d %12d %7.2f%%\n",
			r.Scenario, r.PredictedIC, r.MeasuredIC, r.OverIC(),
			r.PredictedMA, r.MeasuredMA, r.OverMA())
	}
	return b.String()
}

// RenderTable3 prints the cycle rows (Table 3).
func RenderTable3(rows []ClassResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %18s %18s %8s\n", "Class", "Predicted Bound", "Measured Cycles", "Ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %18d %18d %8.2f\n",
			r.Scenario, r.PredictedCycles, r.MeasuredCycles, r.CycleRatio())
	}
	return b.String()
}
