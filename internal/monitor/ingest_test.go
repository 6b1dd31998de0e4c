package monitor_test

import (
	"context"
	"strings"
	"testing"

	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/traffic"
)

// This file pins the sharded ingest hop itself: the batch size and
// flush-stall levers' absence from report semantics, and the adaptive
// flush's bounded detection delay.

// straddlingWorkload builds a warm/measure pair whose eight UDP flows
// deliberately straddle shards at every shard count above one: the
// hop's routing and per-shard order must hold on ANY trace, not just
// stream-consistent ones. FlowKey puts all eight generated flows on one
// shard, so the odd ones move to another destination (spreadFlow).
func straddlingWorkload() (warm, meas []traffic.Packet) {
	streams := traffic.UDPStreams(traffic.StreamConfig{Streams: 8, PacketsPerStream: 40, Seed: 3})
	var warmStreams, measStreams [][]traffic.Packet
	for i, s := range streams {
		if i%2 == 1 {
			spreadFlow(s)
		}
		warmStreams = append(warmStreams, s[:10])
		measStreams = append(measStreams, s[10:])
	}
	warm = traffic.Interleave(1, 1_000, 1_000, warmStreams...)
	meas = traffic.Interleave(2, 1_000+uint64(len(warm))*1_000, 1_000, measStreams...)
	return warm, meas
}

// TestBatchAndFlushStallInvariance pins that the ingest levers — batch
// size and the adaptive flush threshold — never appear in the merged
// output. FlushStall=1 degenerates nearly every batch to a partial
// handoff; the report must not care.
func TestBatchAndFlushStallInvariance(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()
	var want string
	for _, cfg := range []monitor.Config{
		{Shards: 4},
		{Shards: 4, FlushStall: 1},
		{Shards: 4, FlushStall: 7},
		{Shards: 4, Batch: 5, FlushStall: 3},
	} {
		_, got := runMonitored(t, rebuildRoster(t, "nat"), ct, cfg, warm, meas)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("config %+v report differs\nfirst:\n%s\nthis:\n%s", cfg, want, got)
		}
	}
}

// TestAdaptiveFlushBoundsDetection is the trailing-partial-batch
// latency fix's pin. The §5.2 attack trace is 32 packets of one flow;
// with Batch=64 the whole attack fits one never-full batch, which
// before the adaptive flush only reached its shard at Close — correct
// report, unbounded detection delay. The test routes the attack flow
// to shard 0 and a benign tail to shard 1, and asserts:
//
//   - with FlushStall=16 the attack batch is handed off partially
//     filled (PartialFlushes > 0) and the monitor still pages at
//     packet 7 — the same packet the serial monitor pages at;
//   - with the stall bound effectively off (huge FlushStall), no
//     partial handoff happens before Close, demonstrating the lever is
//     what bounds the delay.
func TestAdaptiveFlushBoundsDetection(t *testing.T) {
	sc := experiments.QuickScale()
	ctx := context.Background()

	// Mirror the §5.2 pipeline's shapes: quick scale has a 512-entry
	// table, a 128-MAC benign population, and a 200-packet warmup; the
	// budget is calibrated at 1.25× the worst benign prediction, exactly
	// as experiments.AttackDetection does it.
	benign := func(packets int, startNS uint64, seed int64) []traffic.Packet {
		return traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: packets, MACs: 128, Ports: 4,
			StartNS: startNS, GapNS: 1_000, Seed: seed,
		})
	}
	calBr, calCt, err := experiments.AttackBridge(sc)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := monitor.Calibrate(ctx, calCt, monitor.Config{Trigger: 3, Clear: 8},
		calBr.Instance, benign(200+sc.Packets, 1_000, 41), 1.25)
	if err != nil {
		t.Fatal(err)
	}

	run := func(cfg monitor.Config) (*monitor.Monitor, string) {
		cfg.Budget = budget
		br, ct, err := experiments.AttackBridge(sc)
		if err != nil {
			t.Fatal(err)
		}
		warm := benign(200, 1_000, 42)
		attackStart := 1_000 + uint64(len(warm))*1_000
		attack := traffic.CollidingFrames(br.Table, 32, attackStart, 1_000, 43)
		if attack == nil {
			t.Fatal("collision search found no attack trace")
		}
		tail := benign(192, attackStart+uint64(len(attack))*1_000, 45)
		trace := append(append([]traffic.Packet{}, attack...), tail...)
		if cfg.Shards > 1 {
			// Deterministic routing for the test: the attack flow owns
			// shard 0, everything else shard 1.
			attackKey := monitor.FlowKey(attack[0].Data, attack[0].InPort)
			cfg.FlowHash = func(pkt []byte, inPort uint64) uint64 {
				if monitor.FlowKey(pkt, inPort) == attackKey {
					return 0
				}
				return 1
			}
		}
		mon, err := monitor.New(ct, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Warm(ctx, br.Instance, warm); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Run(ctx, br.Instance, trace); err != nil {
			t.Fatal(err)
		}
		return mon, mon.Report()
	}

	firstOverload := func(mon *monitor.Monitor) int {
		for _, a := range mon.Alerts() {
			if a.Kind == monitor.AlertOverload {
				return a.PacketIndex
			}
		}
		return -1
	}

	serial, _ := run(monitor.Config{Trigger: 3, Clear: 8})
	want := firstOverload(serial)
	if want != 7 {
		t.Fatalf("serial attack pages at packet %d, expected the pinned packet 7", want)
	}

	sharded, _ := run(monitor.Config{
		Trigger: 3, Clear: 8,
		Shards: 2, Batch: 64, FlushStall: 16,
	})
	if got := firstOverload(sharded); got != want {
		t.Errorf("sharded Batch=64 pages at packet %d, serial at %d", got, want)
	}
	if sharded.PartialFlushes() == 0 {
		t.Error("FlushStall=16 with a 32-packet sub-Batch attack handed off no partial batch; the adaptive flush never engaged")
	}
	if sharded.Violations() != serial.Violations() {
		t.Errorf("violations: sharded %d, serial %d", sharded.Violations(), serial.Violations())
	}

	lazy, _ := run(monitor.Config{
		Trigger: 3, Clear: 8,
		Shards: 2, Batch: 64, FlushStall: 1 << 20,
	})
	if got := firstOverload(lazy); got != want {
		t.Errorf("stall-unbounded run pages at packet %d, serial at %d (drain at Close must still merge identically)", got, want)
	}
	if lazy.PartialFlushes() != 0 {
		t.Errorf("FlushStall=2^20 handed off %d partial batches; the lever is not what bounds the delay", lazy.PartialFlushes())
	}
}

// TestPartialFlushCountsAccumulate pins PartialFlushes across multiple
// Runs of one monitor: each sharded Run's adaptive handoffs add up, and
// a serial monitor reports zero.
func TestPartialFlushCountsAccumulate(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	warm, meas := straddlingWorkload()
	inst := rebuildRoster(t, "nat")
	mon, err := monitor.New(ct, monitor.Config{Shards: 4, FlushStall: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := mon.Warm(ctx, inst, warm); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Run(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	after1 := mon.PartialFlushes()
	if after1 == 0 {
		t.Fatal("FlushStall=4 over an 8-flow straddling trace produced no partial handoffs")
	}
	if _, err := mon.Run(ctx, inst, meas); err != nil {
		t.Fatal(err)
	}
	if after2 := mon.PartialFlushes(); after2 <= after1 {
		t.Errorf("second Run did not accumulate partial flushes: %d then %d", after1, after2)
	}

	serialMon, report := runMonitored(t, rebuildRoster(t, "nat"), ct, monitor.Config{}, warm, meas)
	if serialMon.PartialFlushes() != 0 {
		t.Errorf("serial monitor reports %d partial flushes, want 0\n%s", serialMon.PartialFlushes(), report)
	}
	if !strings.Contains(report, "packets") {
		t.Fatalf("sanity: report rendered empty:\n%s", report)
	}
}

// TestSerialRunAllocations pins the serial monitor's steady state the
// way bench's dp-mon allocs_per_op gate sees it: a warmed Run allocates
// nothing, over a trace of 2,048 packets or twice that. The runner keeps
// its records and meter, the observer is built once in New, and the call
// log reuses its wrappers; before that a Run allocated 6 times. Each
// count is the least of three windows, so the runtime's occasional
// allocation inside a window cannot fail it.
func TestSerialRunAllocations(t *testing.T) {
	perRun := func(frames int) float64 {
		run, _ := warmedReplayN(t, monitor.Config{}, frames)
		run()
		n := testing.AllocsPerRun(5, run)
		for i := 0; i < 2; i++ {
			n = min(n, testing.AllocsPerRun(5, run))
		}
		return n
	}
	short, long := perRun(2048), perRun(4096)
	t.Logf("serial Run: %v allocations over 2048 packets, %v over 4096", short, long)
	if short != 0 || long != 0 {
		t.Errorf("a warmed serial Run allocates %v times over 2048 packets and %v over 4096, want 0", short, long)
	}
}

// TestShardedRunAllocationsRepeat pins that a steady-state sharded Run
// allocates a fixed, small count: the batch buffers and their freelist
// channels live on the Monitor across Runs, so the only per-Run
// allocations on top of the serial monitor's are the ingester itself —
// its header and three per-shard slices — and per shard the queue
// channel (its header and, because the element is a pointer, a
// separate buffer) and the worker goroutine's closure: 4 + 3·Shards,
// 0 + 10 = 10 at two shards, since a warmed serial Run allocates
// nothing. A hop that allocated a ring per shard per Run read 22 here
// (with 6 serial allocations); one that allocated its batches per Run,
// with arenas grown from nothing, read 161.
func TestShardedRunAllocationsRepeat(t *testing.T) {
	perRun := func(cfg monitor.Config) (lo, hi float64) {
		run, _ := warmedReplay(t, cfg)
		run() // the first sharded Run fills the freelists and grows the arenas
		lo = testing.AllocsPerRun(5, run)
		hi = lo
		for i := 0; i < 4; i++ {
			n := testing.AllocsPerRun(5, run)
			lo, hi = min(lo, n), max(hi, n)
		}
		return lo, hi
	}
	const shards = 2
	serial, _ := perRun(monitor.Config{})
	lo, hi := perRun(monitor.Config{Shards: shards, Batch: 64})
	t.Logf("sharded Run: %v..%v allocations, serial %v", lo, hi, serial)
	// One allocation of slack: the runtime itself occasionally allocates
	// inside a window.
	if hi-lo > 1 {
		t.Errorf("sharded Run allocations do not repeat: %v..%v per Run", lo, hi)
	}
	if serial != 0 {
		t.Errorf("a warmed serial Run allocates %v times, want 0", serial)
	}
	if limit := 4.0 + 3*shards + 1; hi > limit {
		t.Errorf("sharded Run allocates %v times, want <= %v (ingester 4 + 3 per shard + 1 of slack)", hi, limit)
	}
}
