package core_test

import (
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nf"
	"gobolt/internal/traffic"
)

func TestFieldValue(t *testing.T) {
	cases := []struct {
		pkt  []byte
		off  uint64
		size int
		want uint64
	}{
		{[]byte{0x01, 0x02, 0x03, 0x04}, 0, 4, 0x01020304},
		{[]byte{0x01, 0x02, 0x03, 0x04}, 2, 2, 0x0304},
		// Reads past the packet's end zero-extend, matching the concrete
		// interpreter's zero-padded buffer.
		{[]byte{0x12, 0x34}, 1, 2, 0x3400},
		{nil, 0, 4, 0},
		{[]byte{0xff}, 0, 1, 0xff},
	}
	for _, c := range cases {
		if got := core.FieldValue(c.pkt, c.off, c.size); got != c.want {
			t.Errorf("FieldValue(%x, %d, %d) = %#x, want %#x", c.pkt, c.off, c.size, got, c.want)
		}
	}
}

// TestClassifierRejectsCompositions: a path with stateful events but no
// call trace (chain compositions, hand-built contracts) cannot be
// classified online; NewClassifier must refuse it rather than mismatch.
func TestClassifierRejectsCompositions(t *testing.T) {
	ct := &core.Contract{Paths: []*core.PathContract{{ID: 0, Events: "mac.put:new"}}}
	if _, err := core.NewClassifier(ct); err == nil {
		t.Fatal("NewClassifier accepted a path with events but no trace")
	}
}

// TestClassifierLPMLongPath is the regression test for outcome-label
// evidence: the DIR-24-8 short and long outcomes both return one port
// value, so without the concrete structure's self-reported label every
// two-read adversarial packet would fall into the cheaper short-path
// class and the monitor would raise false violations.
func TestClassifierLPMLongPath(t *testing.T) {
	r := nf.NewLPMRouter(nf.LPMRouterConfig{Ports: 16})
	if err := r.Table.AddRoute(0x0A000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Table.AddRoute(0xC0A80180, 25, 2); err != nil {
		t.Fatal(err)
	}
	ct, err := core.NewGenerator().Generate(r.Prog, r.Models)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := core.NewClassifier(ct)
	if err != nil {
		t.Fatal(err)
	}
	pkts := traffic.AdversarialLPM(r.Table, 8, 1_000, 1_000, 3)
	if len(pkts) == 0 {
		t.Fatal("route table has no extended slots; nothing adversarial to send")
	}
	runner := &distill.Runner{}
	var log core.CallLog
	restore := core.AttachCallLog(r.Env, &log)
	defer restore()
	for i, p := range pkts {
		log.Reset()
		recs, err := runner.Run(r.Instance, []traffic.Packet{p})
		if err != nil {
			t.Fatal(err)
		}
		obs := &core.PacketObservation{
			Pkt: p.Data, InPort: p.InPort, Time: p.Time,
			PktLen: uint64(len(p.Data)), Action: recs[0].Action.Kind, Calls: log.Records(),
		}
		path, ok := cls.Classify(obs)
		if !ok {
			t.Fatalf("adversarial packet %d unclassified", i)
		}
		if !strings.Contains(path.Class(), "lpm.get:long") {
			t.Fatalf("adversarial two-read packet %d classified as %q; outcome-label evidence lost", i, path.Class())
		}
	}
}

// TestClassifyKeyedAllocatesNothing pins the classifier's steady state:
// neither recorded calls (interned IDs) nor hand-built ones (resolved
// through the call table on entry) cost an allocation.
func TestClassifyKeyedAllocatesNothing(t *testing.T) {
	br := nf.NewBridge(nf.BridgeConfig{Ports: 4, Capacity: 64, TimeoutNS: 1 << 40, GranularityNS: 1})
	ct, err := core.NewGenerator().Generate(br.Prog, br.Models)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := core.NewClassifier(ct)
	if err != nil {
		t.Fatal(err)
	}
	var log core.CallLog
	restore := core.AttachCallLog(br.Env, &log)
	defer restore()
	pkts := traffic.BridgeFrames(traffic.BridgeConfig{Packets: 2, MACs: 1, Ports: 4, StartNS: 1000, GapNS: 1000, Seed: 3})
	runner := &distill.Runner{}
	for _, p := range pkts {
		log.Reset()
		recs, err := runner.Run(br.Instance, []traffic.Packet{p})
		if err != nil {
			t.Fatal(err)
		}
		obs := &core.PacketObservation{
			Pkt: p.Data, InPort: p.InPort, Time: p.Time,
			PktLen: uint64(len(p.Data)), Action: recs[0].Action.Kind, Calls: log.Records(),
		}
		bare := *obs
		bare.Calls = nil
		for _, c := range obs.Calls {
			c.OpID, c.OutcomeID = 0, 0
			bare.Calls = append(bare.Calls, c)
		}
		var key []byte
		for _, o := range []*core.PacketObservation{obs, &bare} {
			if _, ok := cls.ClassifyKeyed(o, &key); !ok {
				t.Fatalf("packet at t=%d unclassified", p.Time)
			}
			if n := testing.AllocsPerRun(100, func() { cls.ClassifyKeyed(o, &key) }); n != 0 {
				t.Errorf("ClassifyKeyed allocates %v times per packet, want 0", n)
			}
		}
	}
}
