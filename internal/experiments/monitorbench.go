package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/ring"
	"gobolt/internal/traffic"
)

// This file holds the monitor subsystem's evaluation: the online §5.2
// reproduction (the bridge collision attack is detected from the
// contract's *predictions* before the rehash cliff), and the overhead
// benchmark (monitored replay vs bare distill.Runner).

// attackRehashThreshold arms the §5.2 defence far enough out that the
// experiment can show the monitor paging well before the cliff: the
// colliding chain must grow this long before the table rehashes.
const attackRehashThreshold = 16

// AttackBridge builds the defended bridge the attack experiments run
// against, with its generated contract.
func AttackBridge(sc Scale) (*nf.Bridge, *core.Contract, error) {
	br := nf.NewBridge(nf.BridgeConfig{
		Ports: 4, Capacity: sc.TableCapacity,
		TimeoutNS: hourNS, GranularityNS: 1_000_000,
		RehashThreshold: attackRehashThreshold, Seed: 77,
	})
	ct, err := sc.Generator().Generate(br.Prog, br.Models)
	return br, ct, err
}

// attackBenign is the benign bridge workload all three phases share the
// shape of (population, rate); the seed varies so the control burst is
// not the calibration trace replayed.
func attackBenign(sc Scale, packets int, startNS uint64, seed int64) []traffic.Packet {
	return traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: packets, MACs: classFlows(sc), Ports: 4,
		StartNS: startNS, GapNS: 1_000, Seed: seed,
	})
}

// AttackDetectionResult is the online §5.2 outcome.
type AttackDetectionResult struct {
	// Budget is the calibrated overload threshold (IC per packet).
	Budget uint64
	// AlertPacket is the attack-trace packet index (within the monitored
	// run) of the first overload alert; -1 if none fired.
	AlertPacket int
	// RehashPacket is the attack-trace index of the first packet whose
	// run actually rehashed the table (PCV o > 0) — the throughput
	// cliff; -1 when the trace never got there.
	RehashPacket int
	// Alert is the first overload alert, with its class, observed PCVs
	// and exceeded bound.
	Alert *monitor.Alert
	// BenignOverloads counts overload alerts on the equal-rate benign
	// burst (must be 0).
	BenignOverloads int
	// Violations across all three phases (must be 0: the attack degrades
	// performance *within* the contract, §5.2's point).
	Violations int
	// AttackReport and BenignReport are the rendered monitor states.
	AttackReport, BenignReport string
}

// Detected reports whether the §5.2 claim held online: the attack paged
// before the cliff and the benign control stayed quiet.
func (r *AttackDetectionResult) Detected() bool {
	if r.AlertPacket < 0 || r.BenignOverloads > 0 || r.Violations > 0 {
		return false
	}
	return r.RehashPacket < 0 || r.AlertPacket < r.RehashPacket
}

// AttackDetection reproduces §5.2 as an online result. Three phases,
// each on a fresh defended bridge warmed with the same benign traffic:
//
//  1. Calibrate: replay benign traffic through an unbudgeted monitor;
//     budget = 1.25 × the worst contract-predicted IC.
//  2. Attack: replay colliding-MAC frames (the CASTAN-substitute
//     generator). Every frame grows one bucket's chain, the contract's
//     predicted IC climbs with the traversal PCV, and the monitor must
//     page before the chain reaches the rehash threshold.
//  3. Control: an equal-rate benign burst (fresh seed) must not page.
func AttackDetection(sc Scale) (*AttackDetectionResult, error) {
	warmN := warmupFor(sc, classFlows(sc))
	mcfg := monitor.Config{
		Trigger: 3, Clear: 8,
		Shards: sc.MonitorShards, Batch: sc.MonitorBatch,
		Queue: sc.MonitorQueue, NoRing: sc.MonitorNoRing,
	}
	ctx := context.Background()

	// Phase 1: calibration.
	br, ct, err := AttackBridge(sc)
	if err != nil {
		return nil, err
	}
	budget, err := monitor.Calibrate(ctx, ct, mcfg, br.Instance,
		attackBenign(sc, warmN+sc.Packets, 1_000, 41), 1.25)
	if err != nil {
		return nil, err
	}
	res := &AttackDetectionResult{Budget: budget, AlertPacket: -1, RehashPacket: -1}

	// Phase 2: the attack. Warm a fresh bridge with benign traffic, then
	// replay the colliding trace at the same rate.
	br2, ct2, err := AttackBridge(sc)
	if err != nil {
		return nil, err
	}
	mcfg.Budget = budget
	mon, err := monitor.New(ct2, mcfg)
	if err != nil {
		return nil, err
	}
	warm := attackBenign(sc, warmN, 1_000, 42)
	if err := mon.Warm(ctx, br2.Instance, warm); err != nil {
		return nil, err
	}
	attackStart := 1_000 + uint64(warmN)*1_000
	attack := traffic.CollidingFrames(br2.Table, attackRehashThreshold*2, attackStart, 1_000, 43)
	if attack == nil {
		return nil, fmt.Errorf("attack detection: collision search found no colliding MACs")
	}
	recs, err := mon.Run(ctx, br2.Instance, attack)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		if rec.PCVs["o"] > 0 {
			res.RehashPacket = i
			break
		}
	}
	for _, a := range mon.Alerts() {
		if a.Kind == monitor.AlertOverload {
			al := a
			res.Alert = &al
			// Alert indices count from the monitor's first observed packet;
			// the monitored run saw only the attack trace.
			res.AlertPacket = a.PacketIndex
			break
		}
	}
	res.Violations += mon.Violations()
	res.AttackReport = mon.Report()

	// Phase 3: the equal-rate benign control.
	br3, ct3, err := AttackBridge(sc)
	if err != nil {
		return nil, err
	}
	ctl, err := monitor.New(ct3, mcfg)
	if err != nil {
		return nil, err
	}
	if err := ctl.Warm(ctx, br3.Instance, attackBenign(sc, warmN, 1_000, 42)); err != nil {
		return nil, err
	}
	burst := attackBenign(sc, attackRehashThreshold*2, attackStart, 44)
	if _, err := ctl.Run(ctx, br3.Instance, burst); err != nil {
		return nil, err
	}
	for _, a := range ctl.Alerts() {
		if a.Kind == monitor.AlertOverload {
			res.BenignOverloads++
		}
	}
	res.Violations += ctl.Violations()
	res.BenignReport = ctl.Report()
	return res, nil
}

// RenderAttackDetection prints the online §5.2 outcome.
func RenderAttackDetection(r *AttackDetectionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Online rehash-attack detection (budget %d IC/pkt)\n", r.Budget)
	switch {
	case r.AlertPacket < 0:
		fmt.Fprintf(&b, "  attack: NO ALERT\n")
	case r.RehashPacket < 0:
		fmt.Fprintf(&b, "  attack: paged at packet %d, rehash cliff never reached\n", r.AlertPacket)
	default:
		fmt.Fprintf(&b, "  attack: paged at packet %d, %d packets before the rehash cliff (packet %d)\n",
			r.AlertPacket, r.RehashPacket-r.AlertPacket, r.RehashPacket)
	}
	if r.Alert != nil {
		fmt.Fprintf(&b, "  %s\n", r.Alert)
	}
	fmt.Fprintf(&b, "  benign control: %d overload alerts\n", r.BenignOverloads)
	fmt.Fprintf(&b, "  soundness violations: %d\n", r.Violations)
	fmt.Fprintf(&b, "  detected: %v\n", r.Detected())
	b.WriteString("\nAttack monitor state:\n")
	b.WriteString(indent(r.AttackReport))
	b.WriteString("Benign monitor state:\n")
	b.WriteString(indent(r.BenignReport))
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}

// benchStreamCount is the flow population of the overhead benchmark: 8
// independent L2 conversations, enough for the flow hash to spread them
// across every shard count the ablation sweeps.
const benchStreamCount = 8

// benchWorkload builds the shared benchmark workload: benchStreamCount
// independent bridge conversations, interleaved into a warmup trace
// (every station learned) and a measured trace. The measured trace is
// stream-consistent — each conversation keeps one L3 identity — so every
// monitored mode, serial through 8 shards, produces the identical merged
// report over it.
func benchWorkload(sc Scale) (warm, meas []traffic.Packet) {
	warmN := warmupFor(sc, classFlows(sc))
	warmPer := (warmN + benchStreamCount - 1) / benchStreamCount
	measPer := sc.Packets * 4 / benchStreamCount
	streams := traffic.BridgeStreams(traffic.StreamConfig{
		Streams: benchStreamCount, PacketsPerStream: warmPer + measPer, Seed: 13,
	})
	warmStreams := make([][]traffic.Packet, len(streams))
	measStreams := make([][]traffic.Packet, len(streams))
	for i, s := range streams {
		warmStreams[i], measStreams[i] = s[:warmPer], s[warmPer:]
	}
	warm = traffic.Interleave(42, 1_000, 1_000, warmStreams...)
	meas = traffic.Interleave(43, 1_000+uint64(len(warm))*1_000, 1_000, measStreams...)
	return warm, meas
}

// MonitorBenchRow is one monitored mode's cost in the ablation.
type MonitorBenchRow struct {
	// Mode is "pooled" (the serial monitor) or "sharded" (flow-hashed
	// batched ingest into Shards engines).
	Mode   string `json:"mode"`
	Shards int    `json:"shards,omitempty"`
	Batch  int    `json:"batch,omitempty"`
	// Ingest is the sharded hop's transport: "ring" (the SPSC
	// queue+freelist pair, the default) or "chan" (the Config.NoRing
	// channel + sync.Pool ablation). Empty on serial rows.
	Ingest string `json:"ingest,omitempty"`
	// Queue is the per-shard ingest queue depth in batches (sharded rows
	// only; the ring transport rounds it up to a power of two).
	Queue      int     `json:"queue,omitempty"`
	NsPkt      float64 `json:"ns_per_pkt"`
	PPS        float64 `json:"pkts_per_sec"`
	OverheadPc float64 `json:"overhead_pct"`
}

// HopBenchRow is one transport's raw handoff cost: a single
// producer/consumer pair cycling pointer-sized batches through a
// depth-4 queue with buffer recycling, no monitor work attached.
type HopBenchRow struct {
	Ingest string `json:"ingest"`
	// NsHop is wall time per producer→consumer handoff.
	NsHop float64 `json:"ns_per_handoff"`
	// AllocsHop is heap allocations per handoff; the ring transport must
	// report 0 — its freelist recycles without sync.Pool or GC churn.
	AllocsHop float64 `json:"allocs_per_handoff"`
}

// MonitorBenchResult quantifies the monitor's per-packet overhead across
// the pooling/sharding/batching/ingest ablation, against the bare replay.
type MonitorBenchResult struct {
	Workload  string            `json:"workload"`
	Packets   int               `json:"packets"`
	Runs      int               `json:"runs"`
	BareNsPkt float64           `json:"bare_ns_per_pkt"`
	BarePPS   float64           `json:"bare_pkts_per_sec"`
	Rows      []MonitorBenchRow `json:"rows"`
	// Hop isolates the ingest transports' handoff cost from the monitor
	// work they carry.
	Hop []HopBenchRow `json:"hop,omitempty"`
}

// Overhead returns the named row's overhead percentage (the headline
// number is mode "pooled"; sharded rows are keyed by ingest transport
// and queue depth too — pass "" / 0 for serial modes); ok is false when
// the row was not measured.
func (r MonitorBenchResult) Overhead(mode string, shards, batch int, ingest string, queue int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Shards == shards && row.Batch == batch &&
			row.Ingest == ingest && row.Queue == queue {
			return row.OverheadPc, true
		}
	}
	return 0, false
}

// MonitorBench times the multi-stream bridge replay bare (distill.Runner
// only) and under each monitor configuration of the ablation:
//
//   - pooled: the serial monitor (the default),
//   - sharded {1,2,4} × batch 64, plus shards 2 × batch 1 as the
//     batched-vs-unbatched ablation.
//
// Every mode replays the identical workload over a freshly warmed
// instance and takes the best of runs passes. Note the NF execution
// itself is serial (the instance is shared state); sharding parallelises
// only the monitoring work, so on a single-CPU box the sharded rows
// measure fan-out overhead, not speedup.
func MonitorBench(sc Scale, runs int) (MonitorBenchResult, error) {
	if runs <= 0 {
		runs = 3
	}
	warm, meas := benchWorkload(sc)
	n := len(meas)
	res := MonitorBenchResult{
		Workload: fmt.Sprintf("bridge-streams(%d)", benchStreamCount),
		Packets:  n, Runs: runs,
	}
	ctx := context.Background()

	bare := func() (time.Duration, error) {
		br, _, err := AttackBridge(sc)
		if err != nil {
			return 0, err
		}
		runner := &distill.Runner{}
		if _, err := runner.Run(br.Instance, warm); err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = runner.Run(br.Instance, meas)
		return time.Since(start), err
	}
	monitored := func(mcfg monitor.Config) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			br, ct, err := AttackBridge(sc)
			if err != nil {
				return 0, err
			}
			mon, err := monitor.New(ct, mcfg)
			if err != nil {
				return 0, err
			}
			if err := mon.Warm(ctx, br.Instance, warm); err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = mon.Run(ctx, br.Instance, meas)
			d := time.Since(start)
			if err == nil && mon.Unclassified() > 0 {
				err = fmt.Errorf("monitorbench: %d packets unclassified", mon.Unclassified())
			}
			return d, err
		}
	}

	best := func(f func() (time.Duration, error)) (time.Duration, error) {
		var min time.Duration
		for i := 0; i < runs; i++ {
			d, err := f()
			if err != nil {
				return 0, err
			}
			if i == 0 || d < min {
				min = d
			}
		}
		return min, nil
	}
	bareD, err := best(bare)
	if err != nil {
		return res, err
	}
	res.BareNsPkt = float64(bareD.Nanoseconds()) / float64(n)
	res.BarePPS = float64(n) / bareD.Seconds()

	sharded := func(shards, batch, queue int, noring bool) struct {
		row MonitorBenchRow
		cfg monitor.Config
	} {
		ingest := "ring"
		if noring {
			ingest = "chan"
		}
		return struct {
			row MonitorBenchRow
			cfg monitor.Config
		}{
			MonitorBenchRow{Mode: "sharded", Shards: shards, Batch: batch, Ingest: ingest, Queue: queue},
			monitor.Config{Shards: shards, Batch: batch, Queue: queue, NoRing: noring},
		}
	}
	modes := []struct {
		row MonitorBenchRow
		cfg monitor.Config
	}{
		{MonitorBenchRow{Mode: "pooled"}, monitor.Config{}},
		// The ring-vs-channel ablation at each shard count...
		sharded(1, 64, 4, false),
		sharded(1, 64, 4, true),
		sharded(2, 64, 4, false),
		sharded(2, 64, 4, true),
		sharded(4, 64, 4, false),
		sharded(4, 64, 4, true),
		// ...the batched-vs-unbatched ablation...
		sharded(2, 1, 4, false),
		// ...and the queue-depth sweep around the default of 4.
		sharded(2, 64, 2, false),
		sharded(2, 64, 8, false),
	}
	for _, m := range modes {
		d, err := best(monitored(m.cfg))
		if err != nil {
			return res, fmt.Errorf("mode %s/s%d/b%d/%s/q%d: %w",
				m.row.Mode, m.row.Shards, m.row.Batch, m.row.Ingest, m.row.Queue, err)
		}
		row := m.row
		row.NsPkt = float64(d.Nanoseconds()) / float64(n)
		row.PPS = float64(n) / d.Seconds()
		row.OverheadPc = 100 * (row.NsPkt - res.BareNsPkt) / res.BareNsPkt
		res.Rows = append(res.Rows, row)
	}
	res.Hop = HopBench(runs)
	return res, nil
}

// hopBatch stands in for the monitor's batch buffer in the handoff
// microbenchmark: pointer-sized handoff, a cache line of payload.
type hopBatch struct {
	seq uint64
	pad [7]uint64
}

// hopIters is one HopBench measurement pass; large enough that the
// per-handoff quotient is stable, small enough to keep -bench runs fast.
const hopIters = 200_000

// HopBench isolates the sharded ingest hop: how long one
// producer→consumer handoff takes on each transport, and how many heap
// allocations it costs, with the monitor work stripped away. The ring
// row must report 0 allocs — its paired freelist recycles buffers
// without sync.Pool. Best-of-runs wall time, single measurement pass
// for the alloc count.
func HopBench(runs int) []HopBenchRow {
	if runs <= 0 {
		runs = 3
	}
	measure := func(f func(iters int)) (nsHop, allocsHop float64) {
		f(hopIters / 10) // warmup: steady-state pools/freelists
		var best time.Duration
		for i := 0; i < runs; i++ {
			start := time.Now()
			f(hopIters)
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(hopIters)
		runtime.ReadMemStats(&after)
		// Integer division, the same accounting testing.B prints: setup
		// noise (the ring itself, the consumer goroutine) must not smear a
		// fractional alloc across a 0-alloc steady state.
		return float64(best.Nanoseconds()) / float64(hopIters),
			float64((after.Mallocs - before.Mallocs) / uint64(hopIters))
	}

	ringHop := func(iters int) {
		queue, err := ring.New[*hopBatch](4)
		if err != nil {
			panic(err)
		}
		free, err := ring.New[*hopBatch](8)
		if err != nil {
			panic(err)
		}
		for i := 0; i < free.Cap(); i++ {
			free.TryPush(&hopBatch{})
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				b, ok := queue.Pop()
				if !ok {
					return
				}
				free.TryPush(b)
			}
		}()
		for i := 0; i < iters; i++ {
			b, ok := free.TryPop()
			if !ok {
				b = &hopBatch{}
			}
			b.seq = uint64(i)
			queue.Push(b)
		}
		queue.Close()
		<-done
	}
	chanHop := func(iters int) {
		queue := make(chan *hopBatch, 4)
		var pool sync.Pool
		pool.New = func() any { return &hopBatch{} }
		done := make(chan struct{})
		go func() {
			defer close(done)
			for b := range queue {
				pool.Put(b)
			}
		}()
		for i := 0; i < iters; i++ {
			b := pool.Get().(*hopBatch)
			b.seq = uint64(i)
			queue <- b
		}
		close(queue)
		<-done
	}

	rows := make([]HopBenchRow, 0, 2)
	for _, tr := range []struct {
		name string
		f    func(int)
	}{{"ring", ringHop}, {"chan", chanHop}} {
		ns, allocs := measure(tr.f)
		rows = append(rows, HopBenchRow{Ingest: tr.name, NsHop: ns, AllocsHop: allocs})
	}
	return rows
}

// RenderMonitorBench prints the overhead ablation.
func RenderMonitorBench(r MonitorBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %14s %10s\n", "replay ("+r.Workload+")", "ns/pkt", "pkts/sec", "overhead")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 68))
	fmt.Fprintf(&b, "%-28s %12.0f %14.0f %10s\n", "bare distill.Runner", r.BareNsPkt, r.BarePPS, "-")
	for _, row := range r.Rows {
		name := "monitored " + row.Mode
		if row.Mode == "sharded" {
			name = fmt.Sprintf("monitored s=%d b=%d %s q=%d", row.Shards, row.Batch, row.Ingest, row.Queue)
		}
		fmt.Fprintf(&b, "%-28s %12.0f %14.0f %9.1f%%\n", name, row.NsPkt, row.PPS, row.OverheadPc)
	}
	fmt.Fprintf(&b, "(%d packets, best of %d runs)\n", r.Packets, r.Runs)
	if len(r.Hop) > 0 {
		fmt.Fprintf(&b, "\ningest hop (producer→consumer handoff, no monitor work):\n")
		for _, h := range r.Hop {
			fmt.Fprintf(&b, "  %-6s %8.1f ns/handoff %6.0f allocs/handoff\n", h.Ingest, h.NsHop, h.AllocsHop)
		}
	}
	return b.String()
}

// WriteMonitorBenchJSON records the result for tracking across commits.
func WriteMonitorBenchJSON(path string, r MonitorBenchResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
