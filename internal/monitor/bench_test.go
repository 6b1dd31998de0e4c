package monitor_test

import (
	"context"
	"testing"

	"gobolt/internal/distill"
	"gobolt/internal/experiments"
	"gobolt/internal/monitor"
	"gobolt/internal/traffic"
)

// BenchmarkMonitoredReplay vs BenchmarkBareReplay is the per-packet
// price of online monitoring (classification + bound evaluation +
// streaming state); bench's dp-mon and dp-bare rows measure the same
// comparison end to end. The Sharded variants are the flow-hashed
// batched fan-out.
func BenchmarkMonitoredReplay(b *testing.B) { benchMonitored(b, monitor.Config{}) }
func BenchmarkMonitoredReplaySharded2(b *testing.B) {
	benchMonitored(b, monitor.Config{Shards: 2, Batch: 64})
}
func BenchmarkMonitoredReplaySharded4(b *testing.B) {
	benchMonitored(b, monitor.Config{Shards: 4, Batch: 64})
}

// warmedReplay builds a monitor over the attack bridge, warms it on the
// 2048-frame benchmark trace, and returns the replay of that trace: the
// steady-state Run the benchmarks time and the allocation pins count.
func warmedReplay(tb testing.TB, cfg monitor.Config) (run func(), packets int) {
	return warmedReplayN(tb, cfg, 2048)
}

func warmedReplayN(tb testing.TB, cfg monitor.Config, frames int) (run func(), packets int) {
	sc := experiments.QuickScale()
	br, ct, err := experiments.AttackBridge(sc)
	if err != nil {
		tb.Fatal(err)
	}
	mon, err := monitor.New(ct, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pkts := benchFrames(sc, frames)
	if err := mon.Warm(context.Background(), br.Instance, pkts); err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := mon.Run(context.Background(), br.Instance, pkts); err != nil {
			tb.Fatal(err)
		}
	}, len(pkts)
}

func benchMonitored(b *testing.B, cfg monitor.Config) {
	run, packets := warmedReplay(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets), "ns/pkt")
}

func BenchmarkBareReplay(b *testing.B) {
	sc := experiments.QuickScale()
	br, _, err := experiments.AttackBridge(sc)
	if err != nil {
		b.Fatal(err)
	}
	runner := &distill.Runner{}
	pkts := benchFrames(sc, 2048)
	if _, err := runner.Run(br.Instance, pkts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(br.Instance, pkts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
}

func benchFrames(sc experiments.Scale, n int) []traffic.Packet {
	return traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: n, MACs: 64, Ports: 4,
		StartNS: 1_000, GapNS: 1_000, Seed: 21,
	})
}
