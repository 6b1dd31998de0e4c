package monitor

import (
	"slices"
	"sync"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/traffic"
)

// This file is the sharded half of the monitor: the per-shard engine
// (classifier scratch, per-class streaming state, compiled-bound value
// vector), the RSS-style flow hash, the batched ingest path, and the
// deterministic merge layer behind Report()/Alerts().
//
// The flow-hash contract: a packet's shard is FlowHash(pkt, inPort) mod
// Shards, fixed for the monitor's lifetime. Each shard processes its
// packets in global arrival order (the ingest path is order-preserving
// per shard), so per-class streaming state on a shard evolves exactly as
// the serial monitor's would — provided every packet of that class lands
// on that one shard. Traces with that property are *stream-consistent*,
// and on them the merged report is byte-identical to the serial
// monitor's at any shard count. On other traces the merge is still
// deterministic (and violation/unclassified accounting is still exact —
// those are per-packet signals), but hysteresis and tail sketches see
// per-shard subsequences.

const (
	maxShards    = 1024
	defaultBatch = 64
	// queueDepth bounds each shard's ingest queue, in batches: enough
	// to keep a shard busy while the replay fills the next batch, small
	// enough to bound memory.
	queueDepth = 4
)

// FlowKey is the default RSS-style flow hash (FNV-1a). IPv4 packets
// hash their L3 flow identity — source address, destination address,
// protocol — so one L3 stream stays one flow even as L4 ports churn
// (and so CASTAN-style attack streams varying only L2/L4 fields stay on
// one shard). Non-IPv4 frames hash the Ethernet header plus arrival
// port.
func FlowKey(pkt []byte, inPort uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	if len(pkt) >= 34 && pkt[12] == 0x08 && pkt[13] == 0x00 {
		h = (h ^ uint64(pkt[23])) * prime64 // protocol
		for _, c := range pkt[26:34] {      // src, dst IPv4
			h = (h ^ uint64(c)) * prime64
		}
		return h
	}
	n := 14
	if len(pkt) < n {
		n = len(pkt)
	}
	for _, c := range pkt[:n] {
		h = (h ^ uint64(c)) * prime64
	}
	return (h ^ inPort) * prime64
}

// classState is the streaming state for one input class on one shard.
type classState struct {
	packets     int
	violations  int
	maxObserved uint64
	maxPred     uint64
	minHeadroom int64
	win         window
	sketch      quantileSketch
	hys         hysteresis
}

// engine is one shard's worth of monitor: a classifier (matcher scratch
// is not goroutine-safe, so each shard compiles its own), the reused
// observation and PCV value vector, per-class streaming state, and the
// shard's alert log. An engine is only ever touched by one goroutine at
// a time: the caller's for the serial monitor, its shard worker during a
// sharded Run.
type engine struct {
	m    *Monitor
	cls  *core.Classifier
	vals []uint64 // the packet's PCVs in Monitor.pcvNames order
	obs  core.PacketObservation
	// pred holds the bounds of path lastPath at PCVs lastVals, for the
	// metrics Monitor.needBound marks.
	pred     [perf.NumMetrics]uint64
	lastPath int
	lastVals []uint64

	packets      int
	unclassified int
	firstUnclass int
	violations   int
	maxPred      uint64
	classes      []*classState // by class index; nil until the class's first packet
	alerts       []Alert
}

func newEngine(m *Monitor) (*engine, error) {
	cls, err := core.NewClassifier(m.ct)
	if err != nil {
		return nil, err
	}
	return &engine{
		m: m, cls: cls,
		vals:         make([]uint64, len(m.pcvNames)),
		lastPath:     -1,
		lastVals:     make([]uint64, len(m.pcvNames)),
		firstUnclass: -1,
		classes:      make([]*classState, len(m.classes)),
	}, nil
}

// pcvsFromMap fills the PCV vector from a Distiller PCV map, exactly as
// the offline soundness check binds it: every PCV the contract
// mentions, 0 when unobserved.
func (e *engine) pcvsFromMap(pcvs map[string]uint64) {
	for i, v := range e.m.pcvNames {
		e.vals[i] = pcvs[v]
	}
}

// observe classifies and checks one measured packet. idx is the global
// packet index assigned at ingest; the caller has filled e.vals with the
// packet's PCVs.
func (e *engine) observe(idx int, obs *core.PacketObservation, ic, ma, cycles uint64) {
	m := e.m
	e.packets++

	pi := e.cls.ClassifyIndex(obs)
	if m.cfg.OnClassify != nil {
		var path *core.PathContract
		if pi >= 0 {
			path = m.ct.Paths[pi]
		}
		m.cfg.OnClassify(obs, path)
	}
	if pi < 0 {
		e.unclassified++
		if e.firstUnclass < 0 {
			e.firstUnclass = idx
			e.fire(Alert{Kind: AlertUnclassified, PacketIndex: idx, Time: obs.Time, Metric: m.cfg.Metric})
		}
		return
	}
	if m.shardIdx >= 0 {
		// Shard-aware checks price in the deployment's contenders.
		e.vals[m.shardIdx] = uint64(m.cfg.Shards - 1)
	}
	ci := m.pathClass[pi]
	st := e.classes[ci]
	if st == nil {
		st = e.newClassState(ci)
	}
	st.packets++

	// Violation detection on every measured metric, then the budget
	// below: each bound is evaluated once per packet — and not at all
	// when the packet repeats the previous one's path and PCVs, the
	// steady state of an established flow.
	if pi != e.lastPath || !slices.Equal(e.vals, e.lastVals) {
		for metric := range e.pred {
			if m.needBound[metric] {
				e.pred[metric] = e.boundAt(pi, perf.Metric(metric))
			}
		}
		e.lastPath = pi
		copy(e.lastVals, e.vals)
	}
	for metric := perf.Metric(0); int(metric) < m.measured; metric++ {
		observed, p := metricValue(ic, ma, cycles, metric), e.pred[metric]
		if observed > p {
			st.violations++
			e.violations++
			e.fire(Alert{
				Kind: AlertViolation, PacketIndex: idx, Time: obs.Time,
				Class: m.classes[ci], PathID: m.ct.Paths[pi].ID, Metric: metric,
				Observed: observed, Predicted: p,
				PCVs: e.pcvMap(), Window: st.win.Snapshot(),
			})
		}
	}

	// Streaming per-class state and overload alerting on the budgeted
	// metric: the *predicted* bound at the observed PCVs is the signal —
	// it rises with the PCVs adversarial traffic inflates, ahead of any
	// measurable collapse.
	observed, predicted := metricValue(ic, ma, cycles, m.cfg.Metric), e.pred[m.cfg.Metric]
	st.win.Add(observed)
	st.sketch.Add(float64(observed))
	if observed > st.maxObserved {
		st.maxObserved = observed
	}
	if predicted > st.maxPred {
		st.maxPred = predicted
	}
	if predicted > e.maxPred {
		e.maxPred = predicted
	}
	if m.cfg.Budget > 0 {
		headroom := int64(m.cfg.Budget) - int64(predicted)
		if st.packets == 1 || headroom < st.minHeadroom {
			st.minHeadroom = headroom
		}
		fired, cleared := st.hys.Observe(predicted > m.cfg.Budget)
		if fired {
			e.fire(Alert{
				Kind: AlertOverload, PacketIndex: idx, Time: obs.Time,
				Class: m.classes[ci], PathID: m.ct.Paths[pi].ID, Metric: m.cfg.Metric,
				Observed: observed, Predicted: predicted, Budget: m.cfg.Budget,
				PCVs: e.pcvMap(), Window: st.win.Snapshot(),
			})
		}
		if cleared {
			e.fire(Alert{
				Kind: AlertCleared, PacketIndex: idx, Time: obs.Time,
				Class: m.classes[ci], PathID: m.ct.Paths[pi].ID, Metric: m.cfg.Metric,
				Predicted: predicted, Budget: m.cfg.Budget,
			})
		}
	}
}

func (e *engine) newClassState(ci int) *classState {
	st := &classState{
		win:    *newWindow(windowSize),
		sketch: *newQuantileSketch(tailQuantile),
		hys:    hysteresis{Trigger: e.m.cfg.Trigger, Clear: e.m.cfg.Clear},
	}
	e.classes[ci] = st
	return st
}

func (e *engine) fire(a Alert) {
	e.alerts = append(e.alerts, a)
	if e.m.cfg.OnAlert != nil {
		e.m.cfg.OnAlert(a)
	}
}

// boundAt evaluates path pi's bound at the engine's current PCV vector
// via the pre-compiled polynomial, falling back to BoundAt for the rare
// path whose cost mentions a variable outside the PCV-range set.
func (e *engine) boundAt(pi int, metric perf.Metric) uint64 {
	if cp := e.m.bounds[pi][metric]; cp != nil {
		return cp.Eval(e.vals)
	}
	p := e.m.ct.Paths[pi]
	if e.m.shardIdx >= 0 {
		return p.ShardBoundAt(metric, e.m.cfg.Shards, e.pcvMap())
	}
	return p.BoundAt(metric, e.pcvMap())
}

// pcvMap materialises the engine's current PCV vector as the map form
// alerts carry; BoundAt over it reproduces exactly what boundAt computed.
func (e *engine) pcvMap() map[string]uint64 {
	out := make(map[string]uint64, len(e.m.pcvNames))
	for i, v := range e.m.pcvNames {
		out[v] = e.vals[i]
	}
	return out
}

// pObs is one packet's worth of pooled observation state inside a batch:
// everything engine.observe needs, owned by the batch (call records are
// copied into the batch's arena; packet bytes reference the replayed
// trace, which the interpreter never mutates).
type pObs struct {
	idx          int
	pkt          []byte
	inPort, time uint64
	pktLen       uint64
	action       nfir.ActionKind
	ic, ma, cyc  uint64
	pcvs         map[string]uint64
	calls        []core.CallRecord
}

// batch is a fixed-size packet batch bound for one shard. Batches are
// pooled: reset keeps the observation slice and the call-record arenas.
type batch struct {
	obs  []pObs
	logs core.CallLog
}

func (b *batch) reset() {
	b.obs = b.obs[:0]
	b.logs.Reset()
}

// ingester is the batched fan-out state for one sharded Run: a queue
// and worker goroutine per shard, the under-construction batch per
// shard, and the adaptive-flush bookkeeping. The hop is two buffered
// channels per shard: the queue carries filled batches replay→shard, and
// the monitor's freelist (Monitor.frees) carries emptied ones back, so
// the steady-state hop allocates nothing (DESIGN.md §5j).
type ingester struct {
	m    *Monitor
	pend []*batch
	// start[sh] is the global index of pend[sh]'s first packet, -1 when
	// no batch is pending; probe is the adaptive flush's round-robin
	// cursor over shards.
	start   []int
	probe   int
	partial int // batches handed off by the adaptive flush

	queues []chan *batch

	wg sync.WaitGroup
}

func (m *Monitor) startIngest() {
	n := len(m.engines)
	ing := &ingester{
		m:      m,
		pend:   make([]*batch, n),
		start:  make([]int, n),
		queues: make([]chan *batch, n),
	}
	for i := range ing.start {
		ing.start[i] = -1
	}
	if m.frees == nil {
		m.frees = make([]chan *batch, n)
	}
	for i, e := range m.engines {
		// The freelist is filled once, on the monitor's first sharded Run,
		// with every buffer the shard can have in flight — the queue's
		// worth, the pending one, and the one being drained — and outlives
		// the Run: finishIngest returns only after the worker has sent
		// every buffer back. So neither acquire nor the worker's send
		// back ever waits, memory stays bounded by the freelist's
		// capacity, and what a Run allocates (this ingester, its queues
		// and goroutines) does not depend on how the two threads
		// happened to interleave.
		f := m.frees[i]
		if f == nil {
			f = make(chan *batch, queueDepth+2)
			for range queueDepth + 2 {
				f <- &batch{}
			}
			m.frees[i] = f
		}
		q := make(chan *batch, queueDepth)
		ing.queues[i] = q
		ing.wg.Add(1)
		go func() {
			defer ing.wg.Done()
			for b := range q {
				for j := range b.obs {
					e.observeP(&b.obs[j])
				}
				b.reset()
				f <- b
			}
		}()
	}
	m.ing = ing
}

// observeP replays one pooled observation through the engine's reused
// core.PacketObservation.
func (e *engine) observeP(po *pObs) {
	o := &e.obs
	o.Pkt, o.InPort, o.Time, o.PktLen = po.pkt, po.inPort, po.time, po.pktLen
	o.Action, o.Calls = po.action, po.calls
	e.pcvsFromMap(po.pcvs)
	e.observe(po.idx, o, po.ic, po.ma, po.cyc)
}

// acquire returns an empty batch for a shard off the shard's freelist.
// With none pending, at most queueDepth of its queueDepth+2 buffers are
// queued and one is being drained, so the receive never waits.
func (ing *ingester) acquire(sh int) *batch {
	return <-ing.m.frees[sh]
}

// handoff sends a shard's pending batch to its worker, blocking when
// the shard is queueDepth batches behind.
func (ing *ingester) handoff(sh int) {
	b := ing.pend[sh]
	ing.pend[sh] = nil
	ing.start[sh] = -1
	ing.queues[sh] <- b
}

// enqueue adds one measured packet to its shard's pending batch,
// handing the batch off when full — or, via the adaptive flush, once it
// has stalled partially filled for FlushStall packets, so a trickling
// class's worst-case detection delay is bounded by ingest progress
// rather than by Batch (see Config.FlushStall). Runs on the replay
// goroutine.
func (ing *ingester) enqueue(pkt traffic.Packet, rec *distill.Record, calls []core.CallRecord) {
	m := ing.m
	idx := m.packets
	m.packets++
	sh := m.shardOf(pkt.Data, pkt.InPort)
	b := ing.pend[sh]
	if b == nil {
		b = ing.acquire(sh)
		ing.pend[sh] = b
		ing.start[sh] = idx
	}
	b.obs = append(b.obs, pObs{
		idx: idx, pkt: pkt.Data, inPort: pkt.InPort, time: pkt.Time,
		pktLen: obsPktLen(pkt.Data), action: rec.Action.Kind,
		ic: rec.IC, ma: rec.MA, cyc: rec.Cycles, pcvs: rec.PCVs,
		calls: b.logs.Append(calls),
	})
	if len(b.obs) >= m.cfg.Batch {
		ing.handoff(sh)
	}
	// Adaptive flush: probe one shard per ingested packet, round-robin,
	// and hand off any batch that has waited FlushStall packets without
	// filling. The probe is O(1) per packet and visits every shard
	// within Shards packets, so a stalled partial batch is in flight
	// within FlushStall+Shards packets of its first observation.
	ing.probe++
	if ing.probe >= len(ing.pend) {
		ing.probe = 0
	}
	if p := ing.probe; ing.pend[p] != nil && idx-ing.start[p] >= m.cfg.FlushStall {
		ing.partial++
		ing.handoff(p)
	}
}

// finishIngest flushes partial batches, closes the shard queues, and
// waits for every shard to drain. Idempotent; after it returns the
// merged accessors reflect every ingested packet.
func (m *Monitor) finishIngest() {
	ing := m.ing
	if ing == nil {
		return
	}
	for sh, b := range ing.pend {
		if b != nil {
			ing.handoff(sh)
		}
	}
	for _, q := range ing.queues {
		close(q)
	}
	ing.wg.Wait()
	m.partialFlushes += ing.partial
	m.ing = nil
}

// mergedAlerts merges the shards' alert logs by global packet index
// (each shard's log is already index-sorted: shards process their
// packets in arrival order). The per-shard "first unclassified" pages
// collapse to the globally first one, matching the serial monitor's
// report-once semantics.
func (m *Monitor) mergedAlerts() []Alert {
	if len(m.engines) == 1 {
		return m.engines[0].alerts
	}
	firstUnclass := -1
	for _, e := range m.engines {
		if e.firstUnclass >= 0 && (firstUnclass < 0 || e.firstUnclass < firstUnclass) {
			firstUnclass = e.firstUnclass
		}
	}
	idxs := make([]int, len(m.engines))
	total := 0
	for _, e := range m.engines {
		total += len(e.alerts)
	}
	out := make([]Alert, 0, total)
	for {
		best := -1
		for ei, e := range m.engines {
			for idxs[ei] < len(e.alerts) &&
				e.alerts[idxs[ei]].Kind == AlertUnclassified &&
				e.alerts[idxs[ei]].PacketIndex != firstUnclass {
				idxs[ei]++ // a later shard-local first; the global first covers it
			}
			if idxs[ei] >= len(e.alerts) {
				continue
			}
			if best < 0 || e.alerts[idxs[ei]].PacketIndex < m.engines[best].alerts[idxs[best]].PacketIndex {
				best = ei
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, m.engines[best].alerts[idxs[best]])
		idxs[best]++
	}
}

// classRow is one merged per-class line of Report().
type classRow struct {
	packets     int
	violations  int
	maxObserved uint64
	maxPred     uint64
	minHeadroom int64
	quantile    float64
	paged       bool
}

// mergedClasses combines per-shard class states by class: counts sum,
// maxima max, headroom min, paged ORs. The result is indexed like
// Monitor.classes, nil for classes no packet reached. The tail quantile
// is the shard's own estimate when the class lives on one shard (the
// stream-consistent case — byte-identical to serial); when a class
// straddles shards the merge takes the largest shard estimate, a
// conservative tail.
func (m *Monitor) mergedClasses() []*classRow {
	rows := make([]*classRow, len(m.classes))
	for _, e := range m.engines {
		for ci, st := range e.classes {
			if st == nil {
				continue
			}
			r := rows[ci]
			if r == nil {
				r = &classRow{minHeadroom: st.minHeadroom, quantile: st.sketch.Quantile()}
				rows[ci] = r
			} else {
				if st.minHeadroom < r.minHeadroom {
					r.minHeadroom = st.minHeadroom
				}
				if q := st.sketch.Quantile(); q > r.quantile {
					r.quantile = q
				}
			}
			r.packets += st.packets
			r.violations += st.violations
			if st.maxObserved > r.maxObserved {
				r.maxObserved = st.maxObserved
			}
			if st.maxPred > r.maxPred {
				r.maxPred = st.maxPred
			}
			r.paged = r.paged || st.hys.Paged()
		}
	}
	return rows
}
