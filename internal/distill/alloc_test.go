package distill

import (
	"reflect"
	"slices"
	"testing"

	"gobolt/internal/hwmodel"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/traffic"
)

// bridgeStreams is the benchmark's dp-* shape: 8 single-flow streams
// through a bridge with a one-hour timeout, interleaved.
func bridgeStreams(perStream int) (*nf.Bridge, []traffic.Packet) {
	br := nf.NewBridge(nf.BridgeConfig{
		Ports: 4, Capacity: 8192, TimeoutNS: 3_600_000_000_000, GranularityNS: 1_000_000,
		RehashThreshold: 16, Seed: 77,
	})
	ss := traffic.BridgeStreams(traffic.StreamConfig{Streams: 8, PacketsPerStream: perStream, Seed: 13})
	return br, traffic.Interleave(1, 1_000, 1_000, ss...)
}

// churn warms an instance up over all but the last meas packets, checks
// that at least half of the warm-up's second half expired something, and
// returns the rest: time keeps running, so every measured packet meets
// the steady state.
func churn(t *testing.T, inst *nf.Instance, pkts []traffic.Packet, meas int) []traffic.Packet {
	t.Helper()
	warm := pkts[:len(pkts)-meas]
	recs, err := (&Runner{}).Run(inst, warm)
	if err != nil {
		t.Fatal(err)
	}
	steady, expiring := recs[len(recs)/2:], 0
	for _, rec := range steady {
		if rec.PCVs["e"] > 0 {
			expiring++
		}
	}
	if 2*expiring < len(steady) {
		t.Fatalf("only %d of the last %d warm-up packets expire an entry", expiring, len(steady))
	}
	return pkts[len(pkts)-meas:]
}

// The per-packet path of an established flow allocates nothing: not in
// the interpreter, not in the data structures' charging or results. Nor
// does a churning one: a new flow reuses an entry an expiry freed.
func TestEstablishedPacketsAllocateNothing(t *testing.T) {
	br, pkts := bridgeStreams(64)
	if _, err := (&Runner{}).Run(br.Instance, pkts); err != nil {
		t.Fatal(err)
	}
	nat := nf.NewNAT(nf.NATConfig{
		ExternalIP: 0xC0A80001, Capacity: 4096,
		TimeoutNS: 3_600_000_000_000, GranularityNS: 1_000_000,
	})
	flows := traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 256, Flows: 64, RoundRobin: true, StartNS: 1_000, GapNS: 1_000,
		InPort: nf.NATPortInternal,
	})
	natRecs, err := (&Runner{}).Run(nat.Instance, flows)
	if err != nil {
		t.Fatal(err)
	}
	if last := natRecs[len(natRecs)-1]; last.Action.Kind != nfir.ActionForward || nat.Map.Count() != 64 {
		t.Fatalf("NAT flows not established: %+v, %d flows", last, nat.Map.Count())
	}

	// The churn cases measure more packets than AllocsPerRun runs, so
	// their time never wraps: the benchmark's dp-mon-churn bridge (2-ms
	// expiry over 8192 random stations), and a NAT whose round-robin
	// flows expire before they come round again.
	const meas = 1024
	churnBr := nf.NewBridge(nf.BridgeConfig{
		Ports: 4, Capacity: 8192, TimeoutNS: 2_000_000, GranularityNS: 1_000,
		RehashThreshold: 16, Seed: 77,
	})
	stations := traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 4096 + meas, MACs: 8192, Ports: 4, StartNS: 1_000, GapNS: 1_000, Seed: 42,
	})
	churnNAT := nf.NewNAT(nf.NATConfig{
		ExternalIP: 0xC0A80001, Capacity: 64, TimeoutNS: 20_000, GranularityNS: 1_000,
	})
	rotating := traffic.UDPFlows(traffic.UDPFlowConfig{
		Packets: 1024 + meas, Flows: 64, RoundRobin: true, StartNS: 1_000, GapNS: 1_000,
		InPort: nf.NATPortInternal,
	})
	for _, c := range []struct {
		name string
		inst *nf.Instance
		pkts []traffic.Packet
	}{
		{"bridge, known source and destination", br.Instance, pkts},
		{"NAT lookup_int:hit", nat.Instance, flows},
		{"bridge under churn", churnBr.Instance, churn(t, churnBr.Instance, stations, meas)},
		{"NAT under churn", churnNAT.Instance, churn(t, churnNAT.Instance, rotating, meas)},
	} {
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			p := c.pkts[i%len(c.pkts)]
			i++
			c.inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
			if _, err := c.inst.Env.Run(c.inst.Prog); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per ResetPacket+Run, want 0", c.name, allocs)
		}
	}
}

// A warmed Runner.Run allocates nothing: the record slice and the meter
// are the Runner's, kept across calls, and records with equal PCV
// vectors share one interned map.
func TestRunnerAllocationsAmortised(t *testing.T) {
	br, pkts := bridgeStreams(256)
	r := &Runner{}
	if _, err := r.Run(br.Instance, pkts); err != nil { // learn every station
		t.Fatal(err)
	}
	var recs []Record
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if recs, err = r.Run(br.Instance, pkts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warmed Run of %d packets over established flows, want 0", allocs, len(pkts))
	}
	shared := 0
	for i := 1; i < len(recs); i++ {
		if sameMap(recs[i].PCVs, recs[0].PCVs) {
			shared++
		}
	}
	if shared < len(recs)/2 {
		t.Errorf("only %d of %d records share the first record's PCV map", shared, len(recs))
	}
}

// A Run's records live in the Runner's buffer: the next Run reuses its
// backing array and overwrites them, so a caller that keeps records
// across Runs clones them first.
func TestRunnerReusesRecords(t *testing.T) {
	br, pkts := bridgeStreams(16)
	r := &Runner{}
	first, err := r.Run(br.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(first)
	second, err := r.Run(br.Instance, pkts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 || &second[0] != &first[0] {
		t.Fatalf("the second Run did not reuse the first one's backing array")
	}
	// The first packet learned its source station; replayed, it finds it.
	if kept[0].IC == first[0].IC {
		t.Errorf("record 0 reads IC %d after the second Run, as the first Run measured: not overwritten", first[0].IC)
	}
	for i := range kept {
		if i > 0 && !reflect.DeepEqual(kept[i], first[i]) {
			t.Fatalf("record %d changed although the second Run stopped at 1 packet", i)
		}
	}
}

// The Runner's meter follows Detailed: attaching a cycle model between
// Runs routes the next Run's accesses to it, and records carry cycles.
func TestRunnerMeterFollowsDetailed(t *testing.T) {
	br, pkts := bridgeStreams(8)
	r := &Runner{}
	recs, err := r.Run(br.Instance, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Cycles != 0 {
		t.Fatalf("cycles %d without a cycle model", recs[0].Cycles)
	}
	r.Detailed = hwmodel.NewDetailed()
	if recs, err = r.Run(br.Instance, pkts); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Cycles == 0 {
			t.Fatalf("record %d has no cycles after Detailed was set", i)
		}
	}
	r.Detailed = nil
	if recs, err = r.Run(br.Instance, pkts); err != nil {
		t.Fatal(err)
	}
	if recs[0].Cycles != 0 {
		t.Errorf("cycles %d after Detailed was cleared", recs[0].Cycles)
	}
}

// sameMap reports whether two maps are one object.
func sameMap(a, b map[string]uint64) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// The intern table is bounded. Under the benchmark's churn trace — 2-ms
// expiry over 8192 random stations — it stays far below its cap, and a
// workload with more distinct PCV vectors than the cap makes it start
// over rather than grow; every record keeps its own correct values.
func TestInternTableBounded(t *testing.T) {
	br := nf.NewBridge(nf.BridgeConfig{
		Ports: 4, Capacity: 8192, TimeoutNS: 2_000_000, GranularityNS: 1_000,
		RehashThreshold: 16, Seed: 77,
	})
	churn := traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 9096, MACs: 8192, Ports: 4, StartNS: 1_000, GapNS: 1_000, Seed: 42,
	})
	r := &Runner{}
	recs, err := r.Run(br.Instance, churn)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[[3]uint64]bool{}
	for _, rec := range recs {
		distinct[[3]uint64{rec.PCVs["e"], rec.PCVs["c"], rec.PCVs["t"]}] = true
	}
	if n := len(r.pcvs.table); n > maxInterned || n > 2*len(distinct) {
		t.Errorf("churn trace: %d interned maps for %d distinct PCV vectors (cap %d)", n, len(distinct), maxInterned)
	}

	env := nfir.NewEnv()
	var in pcvInterner
	for v := uint64(0); v < 3*maxInterned; v++ {
		env.ResetPacket(nil, 0, 0)
		env.ObservePCV("e", v)
		if got := in.snapshot(env); len(got) != 1 || got["e"] != v {
			t.Fatalf("vector %d interned as %v", v, got)
		}
		if len(in.table) > maxInterned {
			t.Fatalf("after %d distinct vectors the table holds %d entries, cap %d", v+1, len(in.table), maxInterned)
		}
	}
}
