// Package distill implements the production-side tooling of the paper:
// the testbed runner that measures an NF on a workload (the DUT of
// §5.1), and the BOLT Distiller (§4), which feeds traffic through the NF
// and reports the PCV values each packet induced, so operators and
// developers can bind the PCVs in a contract to realistic values.
package distill

import (
	"context"
	"fmt"
	"sort"

	"gobolt/internal/dpdk"
	"gobolt/internal/hwmodel"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// Record is the measurement of one processed packet.
type Record struct {
	Action nfir.Action
	IC     uint64
	MA     uint64
	// Cycles is the detailed-model ("real hardware") cycle count; zero
	// when the runner has no cycle model attached.
	Cycles uint64
	// PCVs are the per-packet PCV observations (e, c, t, o, l, n, s, b).
	// The map is read-only: records with equal observations share one.
	PCVs map[string]uint64
}

// Runner drives an NF instance over a workload, one packet at a time.
// It keeps its buffers across calls, so a warmed Run allocates nothing:
// the records it returns are valid until its next Run or RunContext,
// which overwrites them — clone them (slices.Clone) to keep them longer.
type Runner struct {
	// Level selects NF-only or full-stack measurement.
	Level dpdk.AnalysisLevel
	// Detailed, when set, plays the testbed's hardware: caches stay warm
	// across packets and per-packet cycles are recorded.
	Detailed *hwmodel.Detailed
	// Observer, when set, sees each packet's record the moment it is
	// measured, before the next packet runs — the online monitor's tap.
	// The record is the same value appended to the returned slice.
	Observer func(i int, pkt traffic.Packet, rec *Record)

	recs []Record
	// meter is the Env's meter during a Run, forwarding to meterFor.
	meter    *perf.Meter
	meterFor *hwmodel.Detailed
	pcvs     pcvInterner
}

// pcvInterner builds Record.PCVs. Most packets of a workload observe one
// of a few PCV vectors (an established flow: e=0, c=0, t=1), so instead
// of a map per record, records with equal observations share one map,
// found through a table keyed by the hash of the observed (slot, value)
// pairs of the Env's PCV slots. Slots are the Env's own numbering, so
// the table starts over when the Env changes. It is bounded too: at
// maxInterned entries it starts over, which costs the next packets one
// map each and forgets nothing a record still needs.
type pcvInterner struct {
	env   *nfir.Env
	table map[uint64]internedPCVs
}

type internedPCVs struct {
	obs []slotValue
	m   map[string]uint64
}

// slotValue is one observed PCV: its slot in the Env and its value.
type slotValue struct {
	slot  int
	value uint64
}

const maxInterned = 1024

// snapshot returns the current packet's PCV observations as a map the
// caller must not modify.
func (in *pcvInterner) snapshot(env *nfir.Env) map[string]uint64 {
	names, vals, seen := env.PCVSlots()
	if env != in.env {
		in.env = env
		clear(in.table)
	}
	h, n := uint64(14695981039346656037), 0 // FNV-1a over (slot, value) words
	for i, ok := range seen {
		if ok {
			h = (h ^ uint64(i)) * 1099511628211
			h = (h ^ vals[i]) * 1099511628211
			n++
		}
	}
	if hit, ok := in.table[h]; ok && hit.matches(vals, seen) {
		return hit.m
	}
	obs := make([]slotValue, 0, n)
	m := make(map[string]uint64, n)
	for i, ok := range seen {
		if ok {
			obs = append(obs, slotValue{i, vals[i]})
			m[names[i]] = vals[i]
		}
	}
	if in.table == nil {
		in.table = make(map[uint64]internedPCVs)
	} else if len(in.table) >= maxInterned {
		clear(in.table)
	}
	in.table[h] = internedPCVs{obs: obs, m: m}
	return m
}

// matches reports whether the Env's observed slots are exactly obs.
func (p internedPCVs) matches(vals []uint64, seen []bool) bool {
	j := 0
	for i, ok := range seen {
		if !ok {
			continue
		}
		if j == len(p.obs) || p.obs[j] != (slotValue{i, vals[i]}) {
			return false
		}
		j++
	}
	return j == len(p.obs)
}

// Run processes the workload through the instance's production build.
// The instance keeps its state across calls, so warmup and measurement
// phases can be separate Run invocations. The returned records are
// valid until the Runner's next Run or RunContext.
func (r *Runner) Run(inst *nf.Instance, pkts []traffic.Packet) ([]Record, error) {
	return r.RunContext(context.Background(), inst, pkts)
}

// RunContext is Run with cancellation between packets: a long replay
// stops at the next packet boundary when ctx is done, returning the
// records measured so far alongside the context's error. The records
// are valid until the Runner's next Run or RunContext.
func (r *Runner) RunContext(ctx context.Context, inst *nf.Instance, pkts []traffic.Packet) ([]Record, error) {
	if r.meter == nil || r.meterFor != r.Detailed {
		var sink perf.TraceSink
		if r.Detailed != nil {
			sink = r.Detailed
		}
		r.meter, r.meterFor = perf.NewMeter(sink), r.Detailed
	}
	meter := r.meter
	meter.Reset()
	inst.Env.Meter = meter

	if cap(r.recs) < len(pkts) {
		r.recs = make([]Record, 0, len(pkts))
	}
	out := r.recs[:0]
	for i, p := range pkts {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("distill: interrupted before packet %d: %w", i, err)
		}
		inst.Env.ResetPacket(p.Data, p.InPort, p.Time)
		before := meter.Snapshot()
		var cyclesBefore uint64
		if r.Detailed != nil {
			cyclesBefore = r.Detailed.Cycles()
		}

		var mbuf uint64
		if r.Level == dpdk.FullStack {
			var err error
			mbuf, err = inst.Stack.ChargeRx(inst.Env)
			if err != nil {
				return out, fmt.Errorf("distill: packet %d: %w", i, err)
			}
		}
		act, err := inst.Env.Run(inst.Prog)
		if err != nil {
			return out, fmt.Errorf("distill: packet %d: %w", i, err)
		}
		if r.Level == dpdk.FullStack {
			if act.Kind == nfir.ActionForward {
				inst.Stack.ChargeTx(inst.Env, mbuf)
			} else {
				inst.Stack.ChargeDrop(inst.Env, mbuf)
			}
		}

		delta := meter.Since(before)
		rec := Record{
			Action: act,
			IC:     delta.Instructions,
			MA:     delta.MemAccesses,
			PCVs:   r.pcvs.snapshot(inst.Env),
		}
		if r.Detailed != nil {
			rec.Cycles = r.Detailed.Cycles() - cyclesBefore
		}
		out = append(out, rec)
		if r.Observer != nil {
			r.Observer(i, p, &out[len(out)-1])
		}
	}
	return out, nil
}

// Report is the Distiller's digest of a workload run (§4): per-PCV value
// distributions plus per-packet metric series for CCDFs and sensitivity
// analyses.
type Report struct {
	Records []Record
}

// Distill runs the workload and wraps the records in a Report.
func Distill(inst *nf.Instance, pkts []traffic.Packet, level dpdk.AnalysisLevel) (*Report, error) {
	r := &Runner{Level: level}
	recs, err := r.Run(inst, pkts)
	if err != nil {
		return nil, err
	}
	return &Report{Records: recs}, nil
}

// HistogramBin is one row of a PCV distribution (the paper's Tables 7/8:
// "Number of Expired Flows → Probability Density (%)").
type HistogramBin struct {
	Value   uint64
	Percent float64
}

// PCVHistogram computes the probability density of a PCV's per-packet
// values.
func (rp *Report) PCVHistogram(pcv string) []HistogramBin {
	counts := make(map[uint64]int)
	for _, r := range rp.Records {
		counts[r.PCVs[pcv]]++
	}
	values := make([]uint64, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	out := make([]HistogramBin, len(values))
	total := float64(len(rp.Records))
	for i, v := range values {
		out[i] = HistogramBin{Value: v, Percent: 100 * float64(counts[v]) / total}
	}
	return out
}

// MaxPCVs returns the per-PCV maxima over the run — the binding that
// turns a contract into a workload-specific bound.
func (rp *Report) MaxPCVs() map[string]uint64 {
	out := make(map[string]uint64)
	for _, r := range rp.Records {
		for k, v := range r.PCVs {
			if cur, ok := out[k]; !ok || v > cur {
				out[k] = v
			}
		}
	}
	return out
}

// Series extracts a per-packet metric series.
func (rp *Report) Series(metric perf.Metric) []uint64 {
	out := make([]uint64, len(rp.Records))
	for i, r := range rp.Records {
		switch metric {
		case perf.Instructions:
			out[i] = r.IC
		case perf.MemAccesses:
			out[i] = r.MA
		case perf.Cycles:
			out[i] = r.Cycles
		}
	}
	return out
}

// CCDFPoint is one point of a complementary CDF.
type CCDFPoint struct {
	Value uint64
	// Frac is P(X > Value).
	Frac float64
}

// CCDF computes the complementary CDF of a series (Figures 2 and 4).
func CCDF(series []uint64) []CCDFPoint {
	if len(series) == 0 {
		return nil
	}
	sorted := append([]uint64(nil), series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out []CCDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		out = append(out, CCDFPoint{Value: sorted[i], Frac: float64(len(sorted)-j) / n})
		i = j
	}
	return out
}

// CDF computes the CDF of a series (Figures 6 and 7).
func CDF(series []uint64) []CCDFPoint {
	ccdf := CCDF(series)
	for i := range ccdf {
		ccdf[i].Frac = 1 - ccdf[i].Frac
	}
	return ccdf
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of a series.
func Quantile(series []uint64, q float64) uint64 {
	if len(series) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Max returns the maximum of a series.
func Max(series []uint64) uint64 {
	var m uint64
	for _, v := range series {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the mean of a series.
func Mean(series []uint64) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum float64
	for _, v := range series {
		sum += float64(v)
	}
	return sum / float64(len(series))
}

// SensitivityRow relates a PCV value to the performance packets with
// that value experienced (the §4 sensitivity analysis and Figure 2's
// predicted-IC-vs-traversals line).
type SensitivityRow struct {
	PCVValue uint64
	Count    int
	MaxIC    uint64
	MeanIC   float64
}

// Sensitivity groups packets by a PCV's value.
func (rp *Report) Sensitivity(pcv string) []SensitivityRow {
	groups := make(map[uint64][]uint64)
	for _, r := range rp.Records {
		v := r.PCVs[pcv]
		groups[v] = append(groups[v], r.IC)
	}
	values := make([]uint64, 0, len(groups))
	for v := range groups {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	out := make([]SensitivityRow, len(values))
	for i, v := range values {
		out[i] = SensitivityRow{
			PCVValue: v,
			Count:    len(groups[v]),
			MaxIC:    Max(groups[v]),
			MeanIC:   Mean(groups[v]),
		}
	}
	return out
}
