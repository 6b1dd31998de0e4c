package monitor_test

import (
	"math"
	"strings"
	"testing"

	"gobolt/internal/monitor"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// TestShardAwareBudgetAndBounds pins the opt-in shard-aware monitor
// semantics on the roster NAT:
//
//   - a ClockHz/TargetPPS-derived budget splits across the deployment:
//     at S shards each core need only sustain TargetPPS/S, so the
//     per-shard per-packet allowance is S× the single-core one;
//   - the checked cycle bound becomes the contract's shard-aware bound,
//     which only grows with S — a trace that is violation-free under
//     the serial monitor stays violation-free shard-aware;
//   - with ShardAware left false (the default), sharded output stays
//     byte-identical to the serial monitor's, so the derived budget is
//     the single-core one.
func TestShardAwareBudgetAndBounds(t *testing.T) {
	const (
		clockHz   = 3.2e9
		targetPPS = 1.0e6 // 3200 cycles/packet on one core
		shards    = 4
	)
	_, ct := buildRoster(t, "nat")
	stream := traffic.UDPStreams(traffic.StreamConfig{Streams: 4, PacketsPerStream: 80, Seed: 9})
	meas := traffic.Interleave(1, 1_000, 1_000, stream...)
	warm, meas := meas[:120], meas[120:]

	serial, serialReport := runMonitored(t, rebuildRoster(t, "nat"), ct,
		monitor.Config{ClockHz: clockHz, TargetPPS: targetPPS, Shards: shards}, warm, meas)
	aware, awareReport := runMonitored(t, rebuildRoster(t, "nat"), ct,
		monitor.Config{ClockHz: clockHz, TargetPPS: targetPPS, Shards: shards, ShardAware: true}, warm, meas)

	if !strings.Contains(serialReport, "budget 3200") {
		t.Errorf("default monitor should budget ClockHz/TargetPPS = 3200 cycles:\n%s", serialReport)
	}
	if !strings.Contains(awareReport, "budget 12800") {
		t.Errorf("shard-aware monitor should budget S*ClockHz/TargetPPS = 12800 cycles:\n%s", awareReport)
	}
	if serial.Violations() != 0 || aware.Violations() != 0 {
		t.Fatalf("violations on benign traffic: serial %d, shard-aware %d",
			serial.Violations(), aware.Violations())
	}
	// The shard-aware bound dominates the serial one on every alert-free
	// packet too; spot-check via the per-class windows being identical
	// while the predictions differ (the report embeds max predictions).
	if awareReport == serialReport {
		t.Error("shard-aware report identical to serial; the contention term priced in nothing")
	}
	for _, a := range aware.Alerts() {
		if a.Kind == monitor.AlertViolation && a.Metric == perf.Cycles {
			t.Errorf("shard-aware cycle violation: %s", a.String())
		}
	}
}

// New rejects a ClockHz or TargetPPS that is set but is not finite and
// positive. An infinite TargetPPS used to derive a budget of 0, which
// silently turned overload alerting off.
func TestNewRejectsUnusableRates(t *testing.T) {
	_, ct := buildRoster(t, "nat")
	for _, tc := range []struct {
		name string
		cfg  monitor.Config
		ok   bool
	}{
		{"unset", monitor.Config{}, true},
		{"clock only", monitor.Config{ClockHz: 3.2e9}, true},
		{"both", monitor.Config{ClockHz: 3.2e9, TargetPPS: 1e6}, true},
		{"infinite target", monitor.Config{ClockHz: 3.2e9, TargetPPS: math.Inf(1)}, false},
		{"NaN target", monitor.Config{ClockHz: 3.2e9, TargetPPS: math.NaN()}, false},
		{"negative target", monitor.Config{ClockHz: 3.2e9, TargetPPS: -1}, false},
		{"infinite clock", monitor.Config{ClockHz: math.Inf(1), TargetPPS: 1e6}, false},
		{"negative clock", monitor.Config{ClockHz: -1, TargetPPS: 1e6}, false},
		{"bad clock beside a budget", monitor.Config{Budget: 500, ClockHz: math.NaN()}, false},
	} {
		_, err := monitor.New(ct, tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
