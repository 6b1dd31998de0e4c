package experiments

import (
	"fmt"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/dslib"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// Table5 holds the three §5.2 chain contracts: the firewall, the static
// router, and their composition.
type Table5 struct {
	Firewall [][2]string
	Router   [][2]string
	Chain    [][2]string
}

// Figure3Row compares composition strategies on the chain's worst case.
type Figure3Row struct {
	Name        string
	PredictedIC uint64
	PredictedMA uint64
	MeasuredIC  uint64
	MeasuredMA  uint64
}

func buildChain() (*nf.Firewall, *nf.StaticRouter, error) {
	// Deny rules first, accepts last: legitimate traffic traverses the
	// whole scan, as in a defence-in-depth rule set.
	fw := nf.NewFirewall(nf.FirewallConfig{
		Rules: []dslib.Rule{
			{SrcMask: 0xFF000000, SrcVal: 0x7F000000, Action: 0}, // deny loopback
			{ProtoVal: 1, SrcMask: 0, SrcVal: 0, Action: 0},      // deny ICMP
			{SrcMask: 0xFFFF0000, SrcVal: 0xC0A80000, Action: 1}, // accept 192.168/16
			{SrcMask: 0xFF000000, SrcVal: 0x0A000000, Action: 1}, // accept 10/8
		},
		DefaultAccept: false,
	})
	sr := nf.NewStaticRouter(nf.StaticRouterConfig{Ports: 4})
	if err := sr.Table.AddRoute(0xC0A80100, 24, 1); err != nil {
		return nil, nil, err
	}
	if err := sr.Table.AddRoute(0x0A000000, 8, 2); err != nil {
		return nil, nil, err
	}
	return fw, sr, nil
}

// ChainContracts generates the three contracts of Table 5, rendered as
// (traffic type, instruction expression) rows.
func ChainContracts(sc Scale) (*Table5, *core.Contract, *core.Contract, *core.Contract, error) {
	fw, sr, err := buildChain()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g := sc.Generator()
	fwCt, err := g.Generate(fw.Prog, fw.Models)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srCt, err := g.Generate(sr.Prog, sr.Models)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	comp, err := core.ComposeMany(g, []core.ChainStage{
		{Prog: fw.Prog, Models: fw.Models},
		{Prog: sr.Prog, Models: sr.Models},
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}

	worstExpr := func(ct *core.Contract, filter func(*core.PathContract) bool) string {
		var worst *core.PathContract
		var worstVal uint64
		for _, p := range ct.Paths {
			if filter != nil && !filter(p) {
				continue
			}
			v := p.BoundAt(perf.Instructions, nil)
			if worst == nil || v > worstVal {
				worst, worstVal = p, v
			}
		}
		if worst == nil {
			return "(no path)"
		}
		return worst.Cost[perf.Instructions].String()
	}
	fwd := acts(nfir.ActionForward)
	drop := acts(nfir.ActionDrop)
	t5 := &Table5{
		Firewall: [][2]string{
			{"No IP options (rule scan)", worstExpr(fwCt, fwd)},
			{"IP options (dropped)", worstExpr(fwCt, core.And(drop, hasNot("rules.match")))},
		},
		Router: [][2]string{
			{"No IP options", worstExpr(srCt, core.And(fwd, has("optproc.process:none")))},
			{"IP options", worstExpr(srCt, core.And(fwd, has("optproc.process:options")))},
		},
		Chain: [][2]string{
			{"No IP options", worstExpr(comp, fwd)},
			{"IP options (dropped at firewall)", worstExpr(comp, drop)},
		},
	}
	return t5, fwCt, srCt, comp, nil
}

// Figure3 compares the naive addition of the two contracts against the
// composite contract, with chain measurements as ground truth.
func Figure3(sc Scale) ([]Figure3Row, error) {
	_, fwCt, srCt, comp, err := ChainContracts(sc)
	if err != nil {
		return nil, err
	}
	fw, sr, err := buildChain()
	if err != nil {
		return nil, err
	}

	// Workload: accepted traffic (10/8 sources, no options) plus
	// option-carrying and denied packets.
	var pkts []traffic.Packet
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: sc.Packets, Flows: 64, Seed: 5, StartNS: 1_000, GapNS: 1_000,
	})...)
	for n := 1; n <= 8; n++ {
		pkts = append(pkts, traffic.WithOptions(n, uint64(2_000_000+n*1000), 0))
	}
	// The router runs one packet at a time while fwRecs is read, so it
	// gets its own Runner: a Run overwrites the records of the last.
	runner, srRunner := &distill.Runner{}, &distill.Runner{}
	fwRecs, err := runner.Run(fw.Instance, pkts)
	if err != nil {
		return nil, err
	}
	var fwMaxIC, fwMaxMA, chainMaxIC, chainMaxMA, srMaxIC, srMaxMA uint64
	for i, rec := range fwRecs {
		totalIC, totalMA := rec.IC, rec.MA
		if rec.Action.Kind == nfir.ActionForward {
			srRecs, err := srRunner.Run(sr.Instance, pkts[i:i+1])
			if err != nil {
				return nil, err
			}
			totalIC += srRecs[0].IC
			totalMA += srRecs[0].MA
			if srRecs[0].IC > srMaxIC {
				srMaxIC = srRecs[0].IC
			}
			if srRecs[0].MA > srMaxMA {
				srMaxMA = srRecs[0].MA
			}
		}
		if rec.IC > fwMaxIC {
			fwMaxIC = rec.IC
		}
		if rec.MA > fwMaxMA {
			fwMaxMA = rec.MA
		}
		if totalIC > chainMaxIC {
			chainMaxIC = totalIC
		}
		if totalMA > chainMaxMA {
			chainMaxMA = totalMA
		}
	}

	// The router alone, facing the unfiltered workload (its own worst
	// case includes option processing).
	srAlone, err := buildRouterAlone()
	if err != nil {
		return nil, err
	}
	srAloneRecs, err := runner.Run(srAlone.Instance, pkts)
	if err != nil {
		return nil, err
	}
	var srAloneMaxIC, srAloneMaxMA uint64
	for _, rec := range srAloneRecs {
		if rec.IC > srAloneMaxIC {
			srAloneMaxIC = rec.IC
		}
		if rec.MA > srAloneMaxMA {
			srAloneMaxMA = rec.MA
		}
	}

	naiveIC := core.NaiveAdd(fwCt, srCt, perf.Instructions, nil)
	naiveMA := core.NaiveAdd(fwCt, srCt, perf.MemAccesses, nil)
	fwPredIC, _ := fwCt.Bound(perf.Instructions, nil, nil)
	fwPredMA, _ := fwCt.Bound(perf.MemAccesses, nil, nil)
	srPredIC, _ := srCt.Bound(perf.Instructions, nil, nil)
	srPredMA, _ := srCt.Bound(perf.MemAccesses, nil, nil)
	compIC, _ := comp.Bound(perf.Instructions, nil, nil)
	compMA, _ := comp.Bound(perf.MemAccesses, nil, nil)

	return []Figure3Row{
		{Name: "Firewall", PredictedIC: fwPredIC, PredictedMA: fwPredMA, MeasuredIC: fwMaxIC, MeasuredMA: fwMaxMA},
		{Name: "Router", PredictedIC: srPredIC, PredictedMA: srPredMA, MeasuredIC: srAloneMaxIC, MeasuredMA: srAloneMaxMA},
		{Name: "Naive-Add", PredictedIC: naiveIC, PredictedMA: naiveMA, MeasuredIC: chainMaxIC, MeasuredMA: chainMaxMA},
		{Name: "Composite-Bolt", PredictedIC: compIC, PredictedMA: compMA, MeasuredIC: chainMaxIC, MeasuredMA: chainMaxMA},
	}, nil
}

func buildRouterAlone() (*nf.StaticRouter, error) {
	sr := nf.NewStaticRouter(nf.StaticRouterConfig{Ports: 4})
	if err := sr.Table.AddRoute(0xC0A80100, 24, 1); err != nil {
		return nil, err
	}
	if err := sr.Table.AddRoute(0x0A000000, 8, 2); err != nil {
		return nil, err
	}
	return sr, nil
}

// RenderTable5 prints the three contracts.
func RenderTable5(t5 *Table5) string {
	var b strings.Builder
	section := func(title string, rows [][2]string) {
		fmt.Fprintf(&b, "%s:\n", title)
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-34s %s\n", r[0], r[1])
		}
	}
	section("(a) Firewall", t5.Firewall)
	section("(b) Static Router", t5.Router)
	section("(c) Firewall+Router chain", t5.Chain)
	return b.String()
}

// RenderFigure3 prints the composition comparison.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s\n", "NF", "Pred IC", "Meas IC", "Pred MA", "Meas MA")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12d %12d %12d %12d\n", r.Name, r.PredictedIC, r.MeasuredIC, r.PredictedMA, r.MeasuredMA)
	}
	return b.String()
}

// ChainStages builds the deep-chain roster — firewall → NAT → bridge →
// LB → static router → LPM router → egress firewall → edge router —
// sized by the scale. Chains of length n use the first n stages, so
// longer chains strictly extend shorter ones (which also exercises the
// fold-prefix cache reuse). Every stage comes from the shared
// internal/nf roster, so the stage cache keys — and therefore any
// on-disk store — line up with what bolt and the other tools build.
func ChainStages(sc Scale) ([]core.ChainStage, []string, error) {
	// The first stage is the roster's "ingress-firewall" (the
	// rule-bearing chain head), distinct from the bare default-deny
	// "firewall"; its display name is "firewall".
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
