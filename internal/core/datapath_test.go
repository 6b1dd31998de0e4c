package core_test

import (
	"sync"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nf"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// A call log attached between two packets records the very next packet,
// and restore() stops the recording at once: the Env re-resolves its
// data-structure handles whenever the links change, mid-trace included.
func TestAttachCallLogTakesEffectNextPacket(t *testing.T) {
	br := nf.NewBridge(nf.BridgeConfig{Ports: 4, Capacity: 64, TimeoutNS: 1 << 40, GranularityNS: 1})
	pkts := traffic.BridgeFrames(traffic.BridgeConfig{Packets: 4, MACs: 4, Ports: 4, StartNS: 1000, GapNS: 1000, Seed: 3})
	runner := &distill.Runner{}
	var log core.CallLog
	run := func(i int) int {
		t.Helper()
		log.Reset()
		if _, err := runner.Run(br.Instance, pkts[i:i+1]); err != nil {
			t.Fatal(err)
		}
		return len(log.Records())
	}
	if n := run(0); n != 0 {
		t.Fatalf("before attach: %d calls recorded", n)
	}
	restore := core.AttachCallLog(br.Env, &log)
	if n := run(1); n < 2 {
		t.Errorf("first packet after attach: %d calls recorded, want the bridge's expire+put(+peek)", n)
	}
	if n := run(2); n < 2 {
		t.Errorf("second packet after attach: %d calls recorded", n)
	}
	restore()
	if n := run(3); n != 0 {
		t.Errorf("first packet after restore: %d calls recorded, want 0", n)
	}
}

// Generators replaying paths in parallel, and several generators at
// once, all execute one shared *nfir.Program (run with -race).
func TestConcurrentReplaysShareProgram(t *testing.T) {
	nat := nf.NewNAT(nf.NATConfig{Capacity: 64, TimeoutNS: 1 << 30, GranularityNS: 1 << 20, FirstPort: 1000, PortCount: 64})
	var want string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := core.NewGenerator()
			gen.Parallelism = 4
			gen.Cache = nil
			ct, err := gen.Generate(nat.Prog, nat.Models)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if got := ct.Render(perf.Instructions); want == "" {
				want = got
			} else if got != want {
				t.Error("concurrent generations of one program disagree")
			}
		}()
	}
	wg.Wait()
}
