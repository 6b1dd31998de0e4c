package monitor_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/expr"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/packet"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the monitor report goldens")

// The monitor's output, pinned: for each case the Report() text plus
// every alert — its String() and the class window it carried — as the
// serial monitor produced them before the classifier and engine moved
// to integer slots. Regenerate with
//
//	go test ./internal/monitor -run TestMonitorGolden -update
//
// only when a change of output is intended, and say why in the commit.
func TestMonitorGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"bridge_streams", goldenBridgeStreams},
		{"bridge_churn", goldenBridgeChurn},
		{"bridge_attack", goldenBridgeAttack},
		{"figure1", goldenFigure1},
		{"nat_violations", goldenNATViolations},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			path := filepath.Join("testdata", tc.name+".golden.txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with `go test ./internal/monitor -run TestMonitorGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("monitor output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

// renderMonitor is what a golden holds for one monitor: its report,
// then every alert with the window it carried.
func renderMonitor(mon *monitor.Monitor) string {
	var b strings.Builder
	b.WriteString(mon.Report())
	for _, a := range mon.Alerts() {
		fmt.Fprintf(&b, "alert %s\n", a)
		if len(a.Window) > 0 {
			fmt.Fprintf(&b, "  window %v\n", a.Window)
		}
	}
	return b.String()
}

// benchBridge is bench/'s datapath bridge: 4 ports, 8192 entries,
// rehash threshold 16, seed 77; timeout one hour, or 2 ms at 1-µs
// granularity under churn.
func benchBridge(churn bool) *nf.Bridge {
	cfg := nf.BridgeConfig{
		Ports: 4, Capacity: 8192, TimeoutNS: 3_600_000_000_000, GranularityNS: 1_000_000,
		RehashThreshold: 16, Seed: 77,
	}
	if churn {
		cfg.TimeoutNS, cfg.GranularityNS = 2_000_000, 1_000
	}
	return nf.NewBridge(cfg)
}

func runBench(t *testing.T, churn bool, warm, meas []traffic.Packet) string {
	t.Helper()
	br := benchBridge(churn)
	ct, err := core.NewGenerator().Generate(br.Prog, br.Models)
	if err != nil {
		t.Fatal(err)
	}
	mon, _ := runMonitored(t, br.Instance, ct, monitor.Config{}, warm, meas)
	return renderMonitor(mon)
}

// goldenBridgeStreams is bench's dp-mon pass: 8 interleaved bridge
// streams (odd ones moved to 10.3.1.i, as bench's spreadFlow does),
// 256 warm-up and 625 measured packets each.
func goldenBridgeStreams(t *testing.T) string {
	const gap = 1_000
	ss := traffic.BridgeStreams(traffic.StreamConfig{Streams: 8, PacketsPerStream: 256 + 625, Seed: 13})
	ws, ms := make([][]traffic.Packet, len(ss)), make([][]traffic.Packet, len(ss))
	for i, st := range ss {
		if i%2 == 1 {
			spreadFlow(st)
		}
		ws[i], ms[i] = st[:256], st[256:]
	}
	warm := traffic.Interleave(42, gap, gap, ws...)
	meas := traffic.Interleave(43, gap*uint64(1+len(warm)), gap, ms...)
	return runBench(t, false, warm, meas)
}

// goldenBridgeChurn is bench's dp-mon-churn pass: 2-ms expiry under
// random stations drawn from 8192 MACs.
func goldenBridgeChurn(t *testing.T) string {
	all := traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 4096 + 5000, MACs: 8192, Ports: 4, StartNS: 1_000, GapNS: 1_000, Seed: 42,
	})
	return runBench(t, true, all[:4096], all[4096:])
}

// spreadFlow is bench's: it moves a stream's destination from 10.3.0.i
// to 10.3.1.i so the flow hash spreads the streams over two shards.
func spreadFlow(stream []traffic.Packet) {
	const ip, udp = 14, 34
	for _, p := range stream {
		hdr := p.Data[ip:udp]
		hdr[18] = 1
		hdr[10], hdr[11] = 0, 0
		binary.BigEndian.PutUint16(hdr[10:12], packet.Checksum(hdr))
		p.Data[udp+6], p.Data[udp+7] = 0, 0
	}
}

// goldenBridgeAttack is the §5.2 attack with a calibrated budget: the
// colliding trace pages (OVERLOAD, with PCVs and window), and a benign
// burst on the same monitor afterwards lets the page clear.
func goldenBridgeAttack(t *testing.T) string {
	sc := experiments.QuickScale()
	ctx := context.Background()
	benign := func(packets int, start uint64, seed int64) []traffic.Packet {
		return traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: packets, MACs: 128, Ports: 4, StartNS: start, GapNS: 1_000, Seed: seed,
		})
	}
	br, ct, err := experiments.AttackBridge(sc)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := monitor.Calibrate(ctx, ct, monitor.Config{}, br.Instance, benign(450, 1_000, 41), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	br2, ct2, err := experiments.AttackBridge(sc)
	if err != nil {
		t.Fatal(err)
	}
	warm := benign(200, 1_000, 42)
	start := 1_000 + uint64(len(warm))*1_000
	attack := traffic.CollidingFrames(br2.Table, 32, start, 1_000, 43)
	if attack == nil {
		t.Fatal("no colliding MACs found")
	}
	tail := benign(64, start+uint64(len(attack))*1_000, 44)
	mon, _ := runMonitored(t, br2.Instance, ct2, monitor.Config{Budget: budget}, warm, append(attack, tail...))
	out := renderMonitor(mon)
	for _, want := range []string{"[OVERLOAD]", "[cleared]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("attack golden carries no %s alert:\n%s", want, out)
		}
	}
	return out
}

// goldenFigure1 replays the 14 Figure-1 scenarios with cycles measured:
// among them the Maglev load balancer and the DIR-24-8 router, whose
// sibling outcomes only the structures' self-reported labels separate.
func goldenFigure1(t *testing.T) string {
	scens, err := experiments.Scenarios(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var b strings.Builder
	for _, s := range scens {
		mon, err := monitor.New(s.Contract, monitor.Config{Detailed: true, Budget: 200})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Warmup) > 0 {
			if err := mon.Warm(ctx, s.Instance, s.Warmup); err != nil {
				t.Fatal(err)
			}
		}
		if s.Prepare != nil {
			if err := s.Prepare(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mon.Run(ctx, s.Instance, s.Measure); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n%s", s.Name, renderMonitor(mon))
	}
	out := b.String()
	for _, want := range []string{"lpm.get:long", "lpm.get:short", "ring.pick_alive:fallback"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure1 golden exercises no %s class", want)
		}
	}
	return out
}

// goldenNATViolations watches the NAT against a doctored copy of its
// contract: every instruction bound is half its constant term plus t,
// so packets page as VIOLATION with their PCVs and windows, and the
// header-check drop path is gone, so non-IPv4 frames go unclassified.
func goldenNATViolations(t *testing.T) string {
	inst, ct := buildRoster(t, "nat")
	doctored := &core.Contract{NF: ct.NF, Level: ct.Level}
	for _, p := range ct.Paths {
		if p.Class() == "drop [flows.expire:ok]" {
			continue
		}
		cp := *p
		cp.Cost = make(map[perf.Metric]expr.Poly, len(p.Cost))
		for m, poly := range p.Cost {
			cp.Cost[m] = poly
		}
		cp.Cost[perf.Instructions] = expr.Const(p.Cost[perf.Instructions].ConstTerm() / 2).Add(expr.Term(1, "t"))
		doctored.Paths = append(doctored.Paths, &cp)
	}
	streams := traffic.UDPStreams(traffic.StreamConfig{Streams: 3, PacketsPerStream: 12, Seed: 6})
	invalid := make([]traffic.Packet, 4)
	for i := range invalid {
		invalid[i] = traffic.NonIPv4(0, 1)
	}
	meas := traffic.Interleave(7, 1_000, 1_000, append(streams, invalid)...)
	mon, _ := runMonitored(t, inst, doctored, monitor.Config{Detailed: true}, nil, meas)
	out := renderMonitor(mon)
	for _, want := range []string{"[VIOLATION]", "[unclassified]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("violations golden carries no %s alert:\n%s", want, out)
		}
	}
	return out
}
