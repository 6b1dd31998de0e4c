package core

import (
	"strings"
	"testing"

	"gobolt/internal/distill"
	"gobolt/internal/dslib"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

func buildChainNFs() (*nf.Firewall, *nf.StaticRouter) {
	fw := nf.NewFirewall(nf.FirewallConfig{
		Rules: []dslib.Rule{
			{SrcMask: 0xFF000000, SrcVal: 0x0A000000, Action: 1}, // accept 10/8
		},
		DefaultAccept: false,
	})
	sr := nf.NewStaticRouter(nf.StaticRouterConfig{Ports: 4})
	return fw, sr
}

func TestComposeFirewallRouter(t *testing.T) {
	fw, sr := buildChainNFs()
	g := NewGenerator()
	fwCt, err := g.Generate(fw.Prog, fw.Models)
	if err != nil {
		t.Fatal(err)
	}
	srCt, err := g.Generate(sr.Prog, sr.Models)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ComposeMany(g, []ChainStage{{Prog: fw.Prog, Models: fw.Models}, {Prog: sr.Prog, Models: sr.Models}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Paths) == 0 {
		t.Fatal("empty composite contract")
	}

	// The firewall drops IP-options packets, so no composite path may
	// reach the router's expensive options-processing outcome.
	for _, p := range comp.Paths {
		if strings.Contains(p.Events, "optproc.process:options") {
			t.Errorf("composite retained an impossible path: %s", p.Class())
		}
	}

	// Figure 3's claim: the composite bound is tighter than naively
	// adding the two individual worst cases.
	pcvs := map[string]uint64{"n": 10, "b.n": 10}
	compBound, _ := comp.Bound(perf.Instructions, nil, pcvs)
	naive := NaiveAdd(fwCt, srCt, perf.Instructions, pcvs)
	if compBound >= naive {
		t.Errorf("composite bound %d should beat naive addition %d", compBound, naive)
	}

	// Soundness of the composite: run the chain (b only sees a's
	// forwarded output) and compare per-packet.
	var pkts []traffic.Packet
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 200, Flows: 16, Seed: 77, StartNS: 1,
	})...)
	pkts = append(pkts, traffic.WithOptions(3, 5_000, 0))
	pkts = append(pkts, traffic.NonIPv4(6_000, 0))

	// The router gets its own Runner: a Run overwrites the records of
	// the last, and fwRecs is read while the router runs.
	runner, srRunner := &distill.Runner{}, &distill.Runner{}
	fwRecs, err := runner.Run(fw.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range fwRecs {
		total := rec.IC
		pcvObs := map[string]uint64{}
		for k, v := range rec.PCVs {
			pcvObs[k] = v
		}
		if rec.Action.Kind == nfir.ActionForward {
			// Replay the same packet through the router.
			srRecs, err := srRunner.Run(sr.Instance, pkts[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			total += srRecs[0].IC
			for k, v := range srRecs[0].PCVs {
				pcvObs["b."+k] = v
			}
		}
		bound, _ := comp.Bound(perf.Instructions, nil, pcvObs)
		if total > bound {
			t.Fatalf("packet %d: chain IC %d > composite bound %d (pcvs %v)",
				i, total, bound, pcvObs)
		}
	}
}

func TestComposeDropPathsPassThrough(t *testing.T) {
	fw, sr := buildChainNFs()
	g := NewGenerator()
	fwCt, err := g.Generate(fw.Prog, fw.Models)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := ComposeMany(g, []ChainStage{{Prog: fw.Prog, Models: fw.Models}, {Prog: sr.Prog, Models: sr.Models}})
	if err != nil {
		t.Fatal(err)
	}
	// Every firewall drop path must appear exactly once in the composite.
	var fwDrops, compADrops int
	for _, p := range fwCt.Paths {
		if p.Action == nfir.ActionDrop {
			fwDrops++
		}
	}
	for _, p := range comp.Paths {
		if p.Action == nfir.ActionDrop && !strings.Contains(p.Events, " | b.") &&
			!strings.HasPrefix(p.Events, "b.") {
			compADrops++
		}
	}
	if fwDrops == 0 || compADrops != fwDrops {
		t.Errorf("firewall drop paths: %d in contract, %d in composite", fwDrops, compADrops)
	}
}

func TestNaiveAddExceedsParts(t *testing.T) {
	fw, sr := buildChainNFs()
	g := NewGenerator()
	fwCt, err := g.Generate(fw.Prog, fw.Models)
	if err != nil {
		t.Fatal(err)
	}
	srCt, err := g.Generate(sr.Prog, sr.Models)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fwCt.Bound(perf.Instructions, nil, nil)
	b, _ := srCt.Bound(perf.Instructions, nil, nil)
	if got := NaiveAdd(fwCt, srCt, perf.Instructions, nil); got != a+b {
		t.Errorf("NaiveAdd = %d, want %d", got, a+b)
	}
}
