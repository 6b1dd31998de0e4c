package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/packet"
	"gobolt/internal/traffic"
)

// The datapath workloads replay one trace through one bridge instance,
// bare or under a monitor. An op is a packet; a pass is the measured
// trace once.

const (
	hourNS = uint64(3_600_000_000_000)
	gapNS  = 1_000 // arrival gap of every trace

	streams        = 8
	streamWarmPer  = 256
	streamMeasPer  = 625 // × 8 streams = 5,000 measured packets
	churnMACs      = 8192
	churnWarm      = 4096
	churnMeas      = 5000
	churnTimeoutNS = 2_000_000
)

// dpShape selects one of the four datapath workloads.
type dpShape struct {
	monitored bool
	shards    int  // monitor.Config.Shards; 0 is the serial monitor
	churn     bool // short-timeout bridge under random-station frames
}

type dp struct {
	shape      dpShape
	seed       int64
	br         *nf.Bridge
	warm, meas []traffic.Packet
	spanNS     uint64

	runner *distill.Runner  // bare replay
	ct     *core.Contract   // nil until a monitor (or the guard) needs it
	mon    *monitor.Monitor // nil on dp-bare

	shifted       bool
	recs          []distill.Record
	sent          int // packets handed to mon.Run
	unclass, viol int // mon's counters after the previous pass
}

// bridge builds the instance: the shape BENCH_monitor.json and ROADMAP
// item 2's "< 600 ns/pkt" target quote, with a 2-ms expiry under churn
// so inserts and expiry run beside the lookups.
func (s dpShape) bridge() *nf.Bridge {
	cfg := nf.BridgeConfig{
		Ports: 4, Capacity: 8192, TimeoutNS: hourNS, GranularityNS: 1_000_000,
		RehashThreshold: 16, Seed: 77,
	}
	if s.churn {
		cfg.TimeoutNS, cfg.GranularityNS = churnTimeoutNS, 1_000
	}
	return nf.NewBridge(cfg)
}

// trace builds the warm-up and measured traces from the workload seed.
func (s dpShape) trace(seed int64) (warm, meas []traffic.Packet) {
	if s.churn {
		all := traffic.BridgeFrames(traffic.BridgeConfig{
			Packets: churnWarm + churnMeas, MACs: churnMACs, Ports: 4,
			StartNS: gapNS, GapNS: gapNS, Seed: seed,
		})
		return all[:churnWarm], all[churnWarm:]
	}
	ss := traffic.BridgeStreams(traffic.StreamConfig{
		Streams: streams, PacketsPerStream: streamWarmPer + streamMeasPer, Seed: 13,
	})
	ws, ms := make([][]traffic.Packet, len(ss)), make([][]traffic.Packet, len(ss))
	for i, st := range ss {
		if i%2 == 1 {
			spreadFlow(st)
		}
		ws[i], ms[i] = st[:streamWarmPer], st[streamWarmPer:]
	}
	warm = traffic.Interleave(seed, gapNS, gapNS, ws...)
	meas = traffic.Interleave(seed+1, gapNS*uint64(1+len(warm)), gapNS, ms...)
	return warm, meas
}

// spreadFlow moves a stream's destination from 10.3.0.i to 10.3.1.i.
// monitor.FlowKey is FNV-1a, whose low bit is the XOR of the low bits of
// the bytes it hashes; BridgeStreams addresses stream i as 10.2.0.i →
// 10.3.0.i, the two i cancel, and every stream lands on the same one of
// two shards (as they did in BENCH_monitor.json's shards=2 rows). The
// bridge never reads L3, so the bare and serial rows are unaffected.
func spreadFlow(stream []traffic.Packet) {
	const ip, udp = 14, 34 // header offsets in an option-less frame
	for _, p := range stream {
		hdr := p.Data[ip:udp]
		hdr[18] = 1
		hdr[10], hdr[11] = 0, 0
		binary.BigEndian.PutUint16(hdr[10:12], packet.Checksum(hdr))
		p.Data[udp+6], p.Data[udp+7] = 0, 0 // UDP over IPv4: 0 means no checksum
	}
}

func (s dpShape) monitorConfig() monitor.Config {
	if s.shards > 1 {
		return monitor.Config{Shards: s.shards, Batch: 64}
	}
	return monitor.Config{}
}

func (s dpShape) setup(o options) (runner, error) {
	d := &dp{shape: s, seed: o.seed, br: s.bridge(), runner: &distill.Runner{}}
	d.warm, d.meas = s.trace(o.seed)
	d.spanNS = gapNS * uint64(len(d.meas))
	if !s.monitored {
		_, err := d.runner.Run(d.br.Instance, d.warm)
		return d, err
	}
	var err error
	if d.ct, err = core.NewGenerator().Generate(d.br.Prog, d.br.Models); err != nil {
		return nil, err
	}
	if d.mon, err = monitor.New(d.ct, s.monitorConfig()); err != nil {
		return nil, err
	}
	return d, d.mon.Warm(context.Background(), d.br.Instance, d.warm)
}

// Prepare moves the measured trace forward by its own span, so every
// pass continues where the previous one stopped: time stays monotone,
// established flows stay established under the one-hour timeout, and
// under churn (span 5 ms > timeout 2 ms) every pass meets the same
// steady state. The first pass follows the warm-up trace directly.
func (d *dp) Prepare() {
	if !d.shifted {
		d.shifted = true
		return
	}
	for i := range d.meas {
		d.meas[i].Time += d.spanNS
	}
}

func (d *dp) Op() (err error) {
	if d.mon == nil {
		d.recs, err = d.runner.Run(d.br.Instance, d.meas)
	} else {
		d.recs, err = d.mon.Run(context.Background(), d.br.Instance, d.meas)
	}
	return err
}

func (d *dp) Check(opErr error) (ops, failed int) {
	ops = len(d.meas)
	if opErr != nil || len(d.recs) != ops {
		return ops, ops
	}
	if d.mon != nil {
		d.sent += ops
		u, v := d.mon.Unclassified(), d.mon.Violations()
		failed = (u - d.unclass) + (v - d.viol)
		d.unclass, d.viol = u, v
	}
	return ops, failed
}

func (d *dp) Finish() (failed int) {
	if d.mon == nil {
		return 0
	}
	if lost := d.sent - d.mon.Packets(); lost > 0 {
		return lost
	}
	return d.mon.Packets() - d.sent
}

func (d *dp) Close() {}

// observed is one packet as a monitor saw it.
type observed struct {
	pkt  traffic.Packet
	rec  distill.Record
	obs  core.PacketObservation // Calls copied out of the monitor's arena
	path *core.PathContract     // nil when no contract path matched
}

// capture replays one pass under a throw-away serial monitor whose
// OnClassify hook keeps every packet's observation and contract path.
func (d *dp) capture() ([]observed, error) {
	if d.ct == nil {
		ct, err := core.NewGenerator().Generate(d.br.Prog, d.br.Models)
		if err != nil {
			return nil, err
		}
		d.ct = ct
	}
	out := make([]observed, 0, len(d.meas))
	var calls core.CallLog
	m, err := monitor.New(d.ct, monitor.Config{
		OnClassify: func(obs *core.PacketObservation, path *core.PathContract) {
			o := observed{obs: *obs, path: path}
			o.obs.Calls = calls.Append(obs.Calls)
			out = append(out, o)
		},
	})
	if err != nil {
		return nil, err
	}
	d.Prepare()
	recs, err := m.Run(context.Background(), d.br.Instance, d.meas)
	if err != nil {
		return nil, err
	}
	if len(recs) != len(out) || len(out) != len(d.meas) {
		return nil, fmt.Errorf("captured %d observations of %d packets", len(out), len(d.meas))
	}
	for i := range out {
		out[i].pkt, out[i].rec = d.meas[i], recs[i]
	}
	return out, nil
}

// Guard checks the per-packet classes the workload's name promises.
func (d *dp) Guard() error {
	obs, err := d.capture()
	if err != nil {
		return err
	}
	return d.shapeOK(obs)
}

func (d *dp) shapeOK(obs []observed) error {
	var inserts, expired, established int
	var shard [2]int
	for _, o := range obs {
		if o.path == nil {
			return fmt.Errorf("shape: packet at t=%d matches no contract path", o.pkt.Time)
		}
		class := o.path.Class()
		if strings.Contains(class, "mac.put:new") {
			inserts++
		}
		if strings.Contains(class, "mac.put:known") && strings.Contains(class, "mac.peek:hit") {
			established++
		}
		expired += int(o.rec.PCVs["e"])
		shard[monitor.FlowKey(o.pkt.Data, o.pkt.InPort)%2]++
	}
	n := len(obs)
	switch {
	case d.shape.churn && (2*inserts < n || 2*expired < n):
		return fmt.Errorf("shape: churn needs ≥50%% mac.put:new and ≥0.5 expiries/packet, got %d inserts and %d expiries in %d packets", inserts, expired, n)
	case !d.shape.churn && established != n:
		return fmt.Errorf("shape: %d of %d packets are not mac.put:known+mac.peek:hit", n-established, n)
	case d.shape.shards > 1 && (shard[0] == 0 || shard[1] == 0):
		return fmt.Errorf("shape: flow hash sends every packet to one shard (%d/%d)", shard[0], shard[1])
	}
	return nil
}
