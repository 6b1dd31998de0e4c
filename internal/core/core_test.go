package core

import (
	"strings"
	"testing"

	"gobolt/internal/distill"
	"gobolt/internal/dpdk"
	"gobolt/internal/expr"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// TestExampleLPMReproducesTable1 is the paper's running example: the
// generated contract for the §2.1 router must be exactly Table 1.
func TestExampleLPMReproducesTable1(t *testing.T) {
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	g := &Generator{} // zero padding: Table 1 assumes analysis == production
	ct, err := g.Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (valid, invalid)", len(ct.Paths))
	}
	for _, p := range ct.Paths {
		switch p.Action {
		case nfir.ActionDrop: // invalid packets: 2 IC, 1 MA
			if got := p.Cost[perf.Instructions].String(); got != "2" {
				t.Errorf("invalid IC = %s, want 2", got)
			}
			if got := p.Cost[perf.MemAccesses].String(); got != "1" {
				t.Errorf("invalid MA = %s, want 1", got)
			}
		case nfir.ActionForward: // valid packets: 4·l+5 IC, l+3 MA
			if got := p.Cost[perf.Instructions].String(); got != "4·l + 5" {
				t.Errorf("valid IC = %s, want 4·l + 5", got)
			}
			if got := p.Cost[perf.MemAccesses].String(); got != "l + 3" {
				t.Errorf("valid MA = %s, want l + 3", got)
			}
			if p.Witness == nil {
				t.Error("valid path must have a witness")
			}
		}
	}
}

// TestZeroValueGeneratorVsNewGenerator pins down the configuration
// footgun: a zero-value &Generator{} reproduces the paper's Table 1
// exactly (analysis build == production build), while NewGenerator adds
// the per-stateful-call analysis padding every production entry point
// uses. Table 1's "4·l + 5" only appears under the zero-value config.
func TestZeroValueGeneratorVsNewGenerator(t *testing.T) {
	build := func() *nf.ExampleLPM { return nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4}) }
	forwardIC := func(g *Generator) string {
		ex := build()
		ct, err := g.Generate(ex.Prog, ex.Models)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ct.Paths {
			if p.Action == nfir.ActionForward {
				return p.Cost[perf.Instructions].String()
			}
		}
		t.Fatal("no forward path")
		return ""
	}
	if got := forwardIC(&Generator{}); got != "4·l + 5" {
		t.Errorf("zero-value Generator forward IC = %s, want Table 1's 4·l + 5", got)
	}
	padded := forwardIC(NewGenerator())
	if padded == "4·l + 5" {
		t.Error("NewGenerator should pad stateful calls; got the unpadded Table 1 bound")
	}
	if padded != "4·l + 6" {
		t.Errorf("NewGenerator forward IC = %s, want 4·l + 6 (one padded call)", padded)
	}
}

func TestExampleLPMSoundAgainstExecution(t *testing.T) {
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	if err := ex.Trie.AddRoute(0x0A000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := ex.Trie.AddRoute(0xC0A80100, 24, 2); err != nil {
		t.Fatal(err)
	}
	ct, err := (&Generator{}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	pkts := traffic.LPMPackets(traffic.LPMConfig{
		Packets: 200,
		Dsts:    []uint32{0x0A010203, 0xC0A80105, 0x08080808},
		Seed:    5,
	})
	pkts = append(pkts, traffic.NonIPv4(1, 0))
	recs, err := (&distill.Runner{}).Run(ex.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		bound, _ := ct.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC > bound {
			t.Fatalf("packet %d: measured IC %d > bound %d (pcvs %v)", i, rec.IC, bound, rec.PCVs)
		}
		boundMA, _ := ct.Bound(perf.MemAccesses, nil, rec.PCVs)
		if rec.MA > boundMA {
			t.Fatalf("packet %d: measured MA %d > bound %d", i, rec.MA, boundMA)
		}
	}
	// Tightness on the matched class: for l=24 packets the IC bound is
	// 4·24+5 = 101 and real executions reach at least 3·24-ish.
	valid := ClassFilter(nfir.ActionForward)
	bound, _ := ct.Bound(perf.Instructions, valid, map[string]uint64{"l": 24})
	if bound != 101 {
		t.Errorf("class bound at l=24 = %d, want 101", bound)
	}
}

func buildBridge() *nf.Bridge {
	return nf.NewBridge(nf.BridgeConfig{
		Ports:         4,
		Capacity:      128,
		TimeoutNS:     50_000_000, // 50ms: plenty of expiry under test traffic
		GranularityNS: 1_000_000,
		Seed:          99,
	})
}

func TestBridgeContractClasses(t *testing.T) {
	br := buildBridge()
	ct, err := NewGenerator().Generate(br.Prog, br.Models)
	if err != nil {
		t.Fatal(err)
	}
	// expire(1) × put(4: known/new/full/rehash... threshold=0 → 3) ×
	// (broadcast + peek hit + peek miss) = 1×3×3 = 9 paths.
	if len(ct.Paths) != 9 {
		for _, p := range ct.Paths {
			t.Logf("path: %s", p.Class())
		}
		t.Fatalf("paths = %d, want 9", len(ct.Paths))
	}
	// The Table 4 shape: the known-source-MAC forwarding class has the
	// published PCV structure.
	known := ClassFilter(nfir.ActionForward, "mac.put:known", "mac.peek:hit")
	var found *PathContract
	for _, p := range ct.Paths {
		if known(p) {
			found = p
			break
		}
	}
	if found == nil {
		t.Fatal("no known-MAC forwarding path")
	}
	ic := found.Cost[perf.Instructions]
	if got := ic.Coef("e"); got != 245 {
		t.Errorf("e coefficient = %d, want 245", got)
	}
	if got := ic.Coef("c"); got != 144 { // 72 per table op × 2 ops
		t.Errorf("c coefficient = %d, want 144", got)
	}
	if got := ic.Coef("t"); got != 36 { // 18 per walk × 2 walks (put refresh + peek)
		t.Errorf("t coefficient = %d, want 36", got)
	}
	if got := ic.Coef("c*e"); got != 82 {
		t.Errorf("e·c coefficient = %d, want 82", got)
	}
	if got := ic.Coef("e*t"); got != 19 {
		t.Errorf("e·t coefficient = %d, want 19", got)
	}
}

func TestBridgeSoundnessAndGap(t *testing.T) {
	br := buildBridge()
	ct, err := NewGenerator().Generate(br.Prog, br.Models)
	if err != nil {
		t.Fatal(err)
	}
	pkts := traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 2000, MACs: 64, BroadcastFraction: 0.1, Ports: 4, Seed: 4,
		StartNS: 1, GapNS: 1_000_000, // 1ms apart so entries expire mid-run
	})
	recs, err := (&distill.Runner{}).Run(br.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	var worstGap float64
	for i, rec := range recs {
		for _, m := range []perf.Metric{perf.Instructions, perf.MemAccesses} {
			measured := rec.IC
			if m == perf.MemAccesses {
				measured = rec.MA
			}
			bound, _ := ct.Bound(m, nil, rec.PCVs)
			if measured > bound {
				t.Fatalf("packet %d: measured %s %d > bound %d (pcvs %v)",
					i, m, measured, bound, rec.PCVs)
			}
		}
		bound, _ := ct.Bound(perf.Instructions, nil, rec.PCVs)
		gap := float64(bound-rec.IC) / float64(bound)
		if gap > worstGap {
			worstGap = gap
		}
	}
	// The per-packet gap against the per-packet-PCV global bound stays
	// well under the paper's regime once the per-class structure is
	// accounted for; here we only require the bound to be meaningful
	// (not 10× the measurement) for typical packets.
	if worstGap > 0.9 {
		t.Errorf("bound is vacuous: worst relative gap %.2f", worstGap)
	}
}

func TestNATContractTable6Shape(t *testing.T) {
	nat := nf.NewNAT(nf.NATConfig{
		ExternalIP: 0xC0A80001, Capacity: 128,
		TimeoutNS: 10_000_000, GranularityNS: 1_000_000,
	})
	ct, err := NewGenerator().Generate(nat.Prog, nat.Models)
	if err != nil {
		t.Fatal(err)
	}
	// Known internal flows (the NAT3 class): Table 6 coefficients.
	hit := ClassFilter(nfir.ActionForward, "flows.lookup_int:hit")
	var p *PathContract
	for _, pc := range ct.Paths {
		if hit(pc) {
			p = pc
			break
		}
	}
	if p == nil {
		t.Fatal("no lookup_int:hit path")
	}
	ic := p.Cost[perf.Instructions]
	for mono, want := range map[string]uint64{"e": 359, "c*e": 80, "e*t": 38, "c": 30, "t": 18} {
		if got := ic.Coef(expr.Mono(mono)); got != want {
			t.Errorf("coefficient %s = %d, want %d", mono, got, want)
		}
	}
	// New internal flows: 44·t put walk.
	newFlow := ClassFilter(nfir.ActionForward, "flows.add:ok")
	var pn *PathContract
	for _, pc := range ct.Paths {
		if newFlow(pc) {
			pn = pc
		}
	}
	if pn == nil {
		t.Fatal("no add:ok path")
	}
	// The paper's 44·t for new internal flows: miss-lookup walk (18) +
	// add walk (18) + insert extra (8).
	if got := pn.Cost[perf.Instructions].Coef("t"); got != 44 {
		t.Errorf("new-flow t coefficient = %d, want 44", got)
	}
}

func TestNATSoundnessMixedTraffic(t *testing.T) {
	nat := nf.NewNAT(nf.NATConfig{
		ExternalIP: 0xC0A80001, Capacity: 256,
		TimeoutNS: 20_000_000, GranularityNS: 1_000_000,
	})
	ct, err := NewGenerator().Generate(nat.Prog, nat.Models)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []traffic.Packet
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 1500, Flows: 64, NewFlowEvery: 10, Seed: 7,
		StartNS: 1, GapNS: 100_000, InPort: nf.NATPortInternal,
	})...)
	// External probes (mostly misses → NAT4 class) and invalid frames.
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 200, Flows: 16, Seed: 8,
		StartNS: 2, GapNS: 100_000, InPort: nf.NATPortExternal,
	})...)
	pkts = append(pkts, traffic.NonIPv4(3, 0))

	recs, err := (&distill.Runner{}).Run(nat.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	var forwards, drops int
	for i, rec := range recs {
		switch rec.Action.Kind {
		case nfir.ActionForward:
			forwards++
		default:
			drops++
		}
		bound, _ := ct.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC > bound {
			t.Fatalf("packet %d: IC %d > bound %d", i, rec.IC, bound)
		}
		boundMA, _ := ct.Bound(perf.MemAccesses, nil, rec.PCVs)
		if rec.MA > boundMA {
			t.Fatalf("packet %d: MA %d > bound %d", i, rec.MA, boundMA)
		}
	}
	if forwards == 0 || drops == 0 {
		t.Errorf("degenerate workload: %d forwards, %d drops", forwards, drops)
	}
}

func TestLBContractAndSoundness(t *testing.T) {
	lb, err := nf.NewLB(nf.LBConfig{
		Backends: 8, RingSize: 257, BackendIPBase: 0xAC100000,
		FlowCapacity: 128, TimeoutNS: 50_000_000, GranularityNS: 1_000_000,
		HeartbeatTimeoutNS: 30_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewGenerator().Generate(lb.Prog, lb.Models)
	if err != nil {
		t.Fatal(err)
	}
	// All five LB classes must be present as paths.
	for _, frag := range []string{
		"ring.heartbeat:ok",               // LB5
		"flows.get:hit ring.alive:alive",  // LB4
		"flows.get:hit ring.alive:dead",   // LB3
		"flows.get:miss ring.pick_alive:", // LB2
	} {
		found := false
		for _, p := range ct.Paths {
			if strings.Contains(p.Events, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no path with events %q", frag)
		}
	}

	// Workload: heartbeats keep half the backends alive, then client flows.
	var pkts []traffic.Packet
	now := uint64(1_000_000)
	for b := uint64(0); b < 4; b++ {
		pkts = append(pkts, traffic.Heartbeat(b, nf.LBHeartbeatPort, now))
		now += 1000
	}
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 800, Flows: 32, NewFlowEvery: 20, Seed: 13,
		StartNS: now, GapNS: 50_000, InPort: nf.LBPortClient,
	})...)
	recs, err := (&distill.Runner{}).Run(lb.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		bound, _ := ct.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC > bound {
			t.Fatalf("packet %d: IC %d > bound %d (pcvs %v)", i, rec.IC, bound, rec.PCVs)
		}
	}
}

func TestLPMRouterTwoClasses(t *testing.T) {
	r := nf.NewLPMRouter(nf.LPMRouterConfig{Ports: 8})
	if err := r.Table.AddRoute(0x0A000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Table.AddRoute(0xC0A80180, 25, 2); err != nil {
		t.Fatal(err)
	}
	ct, err := NewGenerator().Generate(r.Prog, r.Models)
	if err != nil {
		t.Fatal(err)
	}
	short := ClassFilter(nfir.ActionForward, "lpm.get:short")
	long := ClassFilter(nfir.ActionForward, "lpm.get:long")
	bShort, _ := ct.Bound(perf.Instructions, short, nil)
	bLong, _ := ct.Bound(perf.Instructions, long, nil)
	if bLong <= bShort {
		t.Errorf("LPM1 (long, %d) must exceed LPM2 (short, %d)", bLong, bShort)
	}

	// Soundness over both classes.
	pkts := traffic.LPMPackets(traffic.LPMConfig{
		Packets: 400,
		Dsts:    []uint32{0x0A010203, 0xC0A801FF, 0xC0A80181},
		Seed:    3,
	})
	recs, err := (&distill.Runner{}).Run(r.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		bound, _ := ct.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC > bound {
			t.Fatalf("packet %d: IC %d > bound %d", i, rec.IC, bound)
		}
	}
}

func TestFullStackLevelAddsFrameworkCosts(t *testing.T) {
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	nfOnly, err := (&Generator{}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&Generator{Level: dpdk.FullStack}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	bNF, _ := nfOnly.Bound(perf.Instructions, nil, nil)
	bFull, _ := full.Bound(perf.Instructions, nil, nil)
	if bFull <= bNF {
		t.Fatalf("full-stack bound %d must exceed NF-only %d", bFull, bNF)
	}

	// And the full-stack measurement stays within the full-stack bound.
	if err := ex.Trie.AddRoute(0x0A000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	pkts := traffic.LPMPackets(traffic.LPMConfig{Packets: 100, Dsts: []uint32{0x0A000001}, Seed: 1})
	recs, err := (&distill.Runner{Level: dpdk.FullStack}).Run(ex.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		bound, _ := full.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC > bound {
			t.Fatalf("packet %d: full-stack IC %d > bound %d", i, rec.IC, bound)
		}
		nfBound, _ := nfOnly.Bound(perf.Instructions, nil, rec.PCVs)
		if rec.IC <= nfBound {
			t.Fatalf("packet %d: full-stack measurement %d should exceed the NF-only bound %d", i, rec.IC, nfBound)
		}
	}
}

func TestContractRenderAndClasses(t *testing.T) {
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	ct, err := (&Generator{}).Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	out := ct.Render(perf.Instructions)
	if !strings.Contains(out, "4·l + 5") {
		t.Errorf("render missing the valid-class expression:\n%s", out)
	}
	if ct.NumClasses() != 2 {
		t.Errorf("classes = %d, want 2", ct.NumClasses())
	}
}

func TestCyclesBoundDominatesIC(t *testing.T) {
	br := buildBridge()
	ct, err := NewGenerator().Generate(br.Prog, br.Models)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ct.Paths {
		pcvs := map[string]uint64{}
		for v, r := range p.PCVRanges {
			pcvs[v] = r.Hi / 2
		}
		ic := p.BoundAt(perf.Instructions, pcvs)
		cyc := p.BoundAt(perf.Cycles, pcvs)
		if cyc < ic {
			t.Errorf("path %d: cycles %d below IC %d", p.ID, cyc, ic)
		}
	}
}

// Contracts must be deterministic: the same NF analysed twice renders
// identically (witnesses included), which is what makes Diff-based
// regression gating trustworthy.
func TestContractGenerationDeterministic(t *testing.T) {
	render := func() (string, string) {
		br := buildBridge()
		ct, err := NewGenerator().Generate(br.Prog, br.Models)
		if err != nil {
			t.Fatal(err)
		}
		js, err := ct.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return ct.Render(perf.Instructions), string(js)
	}
	r1, j1 := render()
	r2, j2 := render()
	if r1 != r2 {
		t.Error("contract rendering is not deterministic")
	}
	if j1 != j2 {
		t.Error("contract JSON is not deterministic")
	}
}
