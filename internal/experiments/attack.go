package experiments

import (
	"context"
	"fmt"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/monitor"
	"gobolt/internal/nf"
	"gobolt/internal/traffic"
)

// This file holds the monitor subsystem's evaluation: the online §5.2
// reproduction, in which the bridge collision attack is detected from
// the contract's *predictions* before the rehash cliff.

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
