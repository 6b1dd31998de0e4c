package core_test

import (
	"encoding/binary"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nf"
	"gobolt/internal/traffic"
)

// TestRosterClassifiesLikeOracle drives every roster NF — the builtins
// and every internal/nf/bvmdata program — with one mixed workload built
// from the traffic generators, and requires the compiled classifier to
// assign every packet exactly as the string-keyed oracle does: the same
// path and the same Matches list. Every packet arrives on a port every
// NF has, so none may go UNCLASSIFIED. Tables are small and expiry
// short, so full tables, expiries and re-learning show up beside the
// steady state.
func TestRosterClassifiesLikeOracle(t *testing.T) {
	workload := rosterWorkload()
	for _, entry := range nf.Roster() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			inst, err := entry.Build(nf.BuildParams{Capacity: 64, TimeoutNS: 500_000})
			if err != nil {
				t.Fatal(err)
			}
			ct, err := core.NewGenerator().Generate(inst.Prog, inst.Models)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := core.NewClassifier(ct)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := core.NewOracleClassifier(ct)
			if err != nil {
				t.Fatal(err)
			}
			var log core.CallLog
			restore := core.AttachCallLog(inst.Env, &log)
			defer restore()
			paths := make(map[int]bool)
			unclassified := 0
			runner := &distill.Runner{Observer: func(i int, p traffic.Packet, rec *distill.Record) {
				defer log.Reset()
				obs := &core.PacketObservation{
					Pkt: p.Data, InPort: p.InPort, Time: p.Time, PktLen: uint64(len(p.Data)),
					Action: rec.Action.Kind, Calls: log.Records(),
				}
				got, want := cls.Matches(obs), oracle.Matches(obs)
				if len(got) != len(want) {
					t.Fatalf("packet %d: compiled classifier matches %d paths, oracle %d (calls %s)",
						i, len(got), len(want), core.CallSig(obs.Calls))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("packet %d: match %d is path %d, oracle's is path %d", i, j, got[j].ID, want[j].ID)
					}
				}
				p1, ok := cls.Classify(obs)
				p2, _ := oracle.Classify(obs)
				if p1 != p2 {
					t.Fatalf("packet %d: compiled classifier chose %v, oracle %v", i, p1, p2)
				}
				if !ok {
					unclassified++
					return
				}
				paths[p1.ID] = true
			}}
			if _, err := runner.Run(inst, workload); err != nil {
				t.Fatal(err)
			}
			if unclassified > 0 {
				t.Errorf("%d of %d packets unclassified", unclassified, len(workload))
			}
			t.Logf("%d of %d paths visited", len(paths), len(ct.Paths))
		})
	}
}

// rosterWorkload concatenates the generators' traffic, on ports 0 and 1
// only — UDP flows with churn and their replies, bridge frames with
// broadcasts,
// routed destinations on and off the LPM routes, LB heartbeats,
// IP-in-IP frames for the decapsulator, non-IPv4 and optioned frames —
// and restamps it 5 µs apart, so a 0.5-ms expiry window turns over
// about every hundred packets.
func rosterWorkload() []traffic.Packet {
	var pkts []traffic.Packet
	udp := traffic.UDPFlows(traffic.UDPFlowConfig{Packets: 300, Flows: 48, NewFlowEvery: 5, Seed: 3})
	for i, p := range udp {
		pkts = append(pkts, p)
		if i%3 == 0 {
			pkts = append(pkts, traffic.Packet{Data: swapIPs(p.Data), InPort: 1})
		}
	}
	pkts = append(pkts, traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 200, MACs: 96, Ports: 2, BroadcastFraction: 0.15, Seed: 4,
	})...)
	pkts = append(pkts, traffic.LPMPackets(traffic.LPMConfig{
		Packets: 60, Dsts: []uint32{0x0A010203, 0xC0A80181, 0xC0A80101, 0x08080808}, Seed: 5,
	})...)
	for b := uint64(0); b < 16; b++ {
		pkts = append(pkts, traffic.Heartbeat(b, nf.LBHeartbeatPort, 0))
	}
	for i := 0; i < 24; i++ {
		pkts = append(pkts, traffic.Packet{Data: ipipFrame(0x0A636363, 4, 0x0A010101+uint32(i), byte(1+i%4)), InPort: uint64(i % 2)})
	}
	pkts = append(pkts,
		traffic.Packet{Data: ipipFrame(0x0A636364, 4, 0x0A010101, 9)},
		traffic.Packet{Data: ipipFrame(0x0A636363, 17, 0x0A010101, 9), InPort: 1},
		traffic.NonIPv4(0, 1), traffic.WithOptions(3, 0, 0),
	)
	pkts = append(pkts, traffic.UDPFlows(traffic.UDPFlowConfig{Packets: 200, Flows: 6, Seed: 6})...)
	for i := range pkts {
		pkts[i].Time = 1_000 + uint64(i)*5_000
	}
	return pkts
}

// swapIPs returns a copy of an IPv4 frame with source and destination
// addresses exchanged: the reply direction.
func swapIPs(pkt []byte) []byte {
	out := append([]byte(nil), pkt...)
	copy(out[26:30], pkt[30:34])
	copy(out[30:34], pkt[26:30])
	return out
}

// ipipFrame builds an Ethernet/IPv4-in-IPv4 frame: the outer header
// carries proto and outerDst, the inner one (at offset 34) ttl and
// innerDst.
func ipipFrame(outerDst uint32, proto byte, innerDst uint32, ttl byte) []byte {
	b := make([]byte, 64)
	b[12], b[13] = 0x08, 0x00
	b[14], b[22], b[23] = 0x45, 64, proto
	binary.BigEndian.PutUint32(b[30:], outerDst)
	b[34], b[42] = 0x45, ttl
	binary.BigEndian.PutUint32(b[50:], innerDst)
	return b
}
