package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/expr"
	"gobolt/internal/monitor"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/store"
	"gobolt/internal/symb"
	"gobolt/internal/traffic"
)

// This file is the traced run: after the untraced window, every layer's
// public entry point is called on its own with a span around it, a
// fixed number of passes, kinds interleaved within each pass so drift
// on the box lands on every layer alike.

// timerProbes empty spans per pass measure what one span adds to the
// layer it brackets (one clock read), so per-packet layers can be
// reported net of it.
const timerProbes = 1000

// sink keeps results the layer loops compute alive.
var sink uint64

func (d *dp) Trace(tr *tracer, passes int, m map[string]float64) error {
	obs, err := d.capture()
	if err != nil {
		return err
	}
	if err := d.shapeOK(obs); err != nil {
		return err
	}
	var (
		inst = d.br.Instance
		n    = len(d.meas)
		bare = &distill.Runner{}
		mcfg = d.shape.monitorConfig()

		// Monitor-layer fixtures, built only for the monitored workloads.
		log     core.CallLog
		key     []byte
		cls     *core.Classifier
		bounds  []pathBounds
		watcher *monitor.Monitor
		report  string
	)
	calls := 0
	for i := range obs {
		calls += len(obs[i].obs.Calls)
	}
	if d.mon != nil {
		if cls, err = core.NewClassifier(d.ct); err != nil {
			return err
		}
		if bounds, err = compileBounds(d.ct, obs); err != nil {
			return err
		}
		if watcher, err = monitor.New(d.ct, monitor.Config{}); err != nil {
			return err
		}
	}
	tr.spans = make([]span, 0, passes*(4*n+timerProbes+64))

	flushes := 0
	for p := 0; p < passes; p++ {
		// First the calls that are not packet passes. They walk other
		// memory, so an untimed pass follows to put the bridge's table
		// back in cache: otherwise whichever packet pass came next would
		// pay for it (measured: 125 ns/packet on churn, more than the call
		// log it was being compared against).
		tr.time("traffic.build", p, func() { d.shape.trace(d.seed) })
		tr.time("nf.build", p, func() { d.shape.bridge() })
		if d.mon != nil {
			tr.time("core.Classifier.ClassifyKeyed", p, func() {
				for i := range obs {
					if path, _ := cls.ClassifyKeyed(&obs[i].obs, &key); path != obs[i].path {
						err = fmt.Errorf("classifier disagrees with the monitor on packet %d", i)
					}
				}
			})
			if err != nil {
				return err
			}
			// Per packet the monitor evaluates the IC and MA bounds for the
			// violation check and the budgeted (IC) bound once more.
			tr.time("expr.CompiledPoly.Eval", p, func() {
				for i := range bounds {
					b := &bounds[i]
					sink += b.ic.Eval(b.vals) + b.ma.Eval(b.vals) + b.ic.Eval(b.vals)
				}
			})
			tr.time("monitor.Observe", p, func() {
				for i := range obs {
					watcher.Observe(obs[i].pkt, &obs[i].rec, obs[i].obs.Calls)
				}
			})
			tr.time("monitor.New", p, func() { _, err = monitor.New(d.ct, mcfg) })
			if err != nil {
				return err
			}
			tr.time("monitor.Report", p, func() { report = d.mon.Report() })
		}
		if d.shape.shards > 1 {
			tr.time("monitor.FlowKey", p, func() {
				for _, pk := range d.meas {
					sink += monitor.FlowKey(pk.Data, pk.InPort)
				}
			})
		}
		before := 0
		if d.mon != nil {
			before = d.mon.PartialFlushes()
		}
		d.Prepare()
		if _, failed := d.Check(d.Op()); failed > 0 {
			return fmt.Errorf("traced pass %d: %d operations failed", p, failed)
		}
		if d.mon != nil {
			flushes = d.mon.PartialFlushes() - before
		}

		// Then the packet passes, each following another.
		if err := tr.op(d, p); err != nil {
			return err
		}
		if d.mon != nil {
			d.Prepare()
			tr.time("distill.Runner.Run", p, func() { _, err = bare.Run(inst, d.meas) })
			if err != nil {
				return err
			}
			d.Prepare()
			restore := core.AttachCallLog(inst.Env, &log)
			bare.Observer = func(int, traffic.Packet, *distill.Record) { log.Reset() }
			tr.time("distill.Runner.Run+calllog", p, func() { _, err = bare.Run(inst, d.meas) })
			bare.Observer = nil
			restore()
			if err != nil {
				return err
			}
		}
		d.Prepare()
		if err := d.replay(tr, p); err != nil {
			return err
		}
	}
	if watcher != nil && (watcher.Unclassified() != 0 || watcher.Violations() != 0) {
		return fmt.Errorf("monitor.Observe over the captured packets: %d unclassified, %d violations",
			watcher.Unclassified(), watcher.Violations())
	}
	if d.shape.shards > 1 {
		if err := d.shardedReportMatchesSerial(); err != nil {
			return err
		}
	}

	perPkt := func(name string) float64 { return tr.layer(name, passes, n) }
	timer := tr.layer("harness.timer", passes, timerProbes)
	reset, run, meter := perPkt("nfir.reset")-timer, perPkt("nfir.run")-timer, perPkt("perf.meter")-2*timer
	op, runnerRun := perPkt("op"), perPkt("op")
	if d.mon != nil {
		runnerRun = perPkt("distill.Runner.Run")
	}
	m["nfir.reset_ns"], m["nfir.run_ns"], m["perf.meter_ns"] = reset, run, meter
	m["dslib.calls_per_pkt"] = float64(calls) / float64(n)
	m["distill.self_ns"] = runnerRun - (reset + run + meter)
	m["traffic.build_us"] = tr.layer("traffic.build", passes, 1) / 1e3
	m["nf.build_us"] = tr.layer("nf.build", passes, 1) / 1e3
	// reconcile_frac sums only layers timed on their own. The layers
	// defined as a remainder (distill.self, core.calllog, monitor.ingest)
	// would make the sum equal the op by construction.
	timed := reset + run + meter
	if d.mon != nil {
		logged := perPkt("distill.Runner.Run+calllog")
		classify, eval, observe := perPkt("core.Classifier.ClassifyKeyed"), perPkt("expr.CompiledPoly.Eval"), perPkt("monitor.Observe")
		m["core.calllog_ns"] = logged - runnerRun
		m["core.classify_ns"], m["expr.bound_eval_ns"], m["monitor.observe_ns"] = classify, eval, observe
		m["monitor.state_ns"] = observe - classify - eval
		m["monitor.new_us"] = tr.layer("monitor.New", passes, 1) / 1e3
		m["monitor.report_us"] = tr.layer("monitor.Report", passes, 1) / 1e3
		m["monitor.classes_seen"] = float64(strings.Count(report, "\n  class "))
		m["monitor.partial_flushes"] = float64(flushes)
		if d.shape.shards > 1 {
			// The producer pays the hash and the hop; the shards observe on
			// the other core.
			flowkey := perPkt("monitor.FlowKey")
			m["monitor.flowkey_ns"] = flowkey
			m["monitor.ingest_ns"] = op - logged
			timed += flowkey
		} else {
			timed += observe
		}
	}
	m["harness.reconcile_frac"] = timed / op
	return nil
}

// replay is the harness's own copy of distill.Runner's per-packet loop
// without the record building, a span at each layer boundary.
func (d *dp) replay(tr *tracer, pass int) error {
	env, prog := d.br.Env, d.br.Prog
	meter := perf.NewMeter(nil)
	env.Meter = meter
	idReset, idRun, idMeter, idTimer := tr.name("nfir.reset"), tr.name("nfir.run"), tr.name("perf.meter"), tr.name("harness.timer")
	root := tr.begin(tr.name("replay"), -1, pass)
	defer tr.end(root)
	for _, p := range d.meas {
		s := tr.begin(idReset, root, pass)
		env.ResetPacket(p.Data, p.InPort, p.Time)
		tr.end(s)
		s = tr.begin(idMeter, root, pass)
		before := meter.Snapshot()
		tr.end(s)
		s = tr.begin(idRun, root, pass)
		_, err := env.Run(prog)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin(idMeter, root, pass)
		sink += meter.Since(before).Instructions
		tr.end(s)
	}
	for i := 0; i < timerProbes; i++ {
		tr.end(tr.begin(idTimer, root, pass))
	}
	return nil
}

// pathBounds is what the monitor evaluates for one packet: its path's
// compiled IC and MA bounds at the packet's observed PCV vector.
type pathBounds struct {
	ic, ma *expr.CompiledPoly
	vals   []uint64
}

func compileBounds(ct *core.Contract, obs []observed) ([]pathBounds, error) {
	set := make(map[string]bool)
	for _, p := range ct.Paths {
		for v := range p.PCVRanges {
			set[v] = true
		}
	}
	var names []string
	for v := range set {
		names = append(names, v)
	}
	sort.Strings(names)
	compiled := make(map[*core.PathContract]pathBounds)
	out := make([]pathBounds, len(obs))
	for i, o := range obs {
		b, ok := compiled[o.path]
		if !ok {
			var err error
			if b.ic, err = o.path.Cost[perf.Instructions].Compile(names); err != nil {
				return nil, err
			}
			if b.ma, err = o.path.Cost[perf.MemAccesses].Compile(names); err != nil {
				return nil, err
			}
			compiled[o.path] = b
		}
		b.vals = make([]uint64, len(names))
		for j, v := range names {
			b.vals[j] = o.rec.PCVs[v]
		}
		out[i] = b
	}
	return out, nil
}

// shardedReportMatchesSerial sets the workload up twice more from
// nothing, sharded and serial, sends both the same pass and requires
// byte-identical reports — the merge layer's promise.
func (d *dp) shardedReportMatchesSerial() error {
	var reports [2]string
	for i, shape := range []dpShape{d.shape, {monitored: true}} {
		r, err := shape.setup(options{seed: d.seed})
		if err != nil {
			return err
		}
		x := r.(*dp)
		x.Prepare()
		if _, failed := x.Check(x.Op()); failed > 0 {
			return fmt.Errorf("report identity: %d operations failed", failed)
		}
		reports[i] = x.mon.Report()
	}
	if reports[0] != reports[1] {
		return fmt.Errorf("sharded Report() differs from the serial monitor's:\n%s\n--- serial ---\n%s", reports[0], reports[1])
	}
	return nil
}

// feasibilityQuery is the four-constraint path query of the root
// BenchmarkSolverPathFeasibility: the shape exploration asks per branch.
func feasibilityQuery() ([]symb.Expr, map[string]symb.Domain) {
	return []symb.Expr{
			symb.B(symb.Eq, symb.S("pkt_12_2"), symb.C(0x0800)),
			symb.B(symb.Ne, symb.S("pkt_23_1"), symb.C(6)),
			symb.B(symb.Eq, symb.S("pkt_23_1"), symb.C(17)),
			symb.B(symb.Ult, symb.S("in_port"), symb.C(2)),
		}, map[string]symb.Domain{
			"pkt_12_2": symb.Word, "pkt_23_1": symb.Byte, "in_port": symb.Byte,
		}
}

const feasibilityReps = 256

func (a *an) Trace(tr *tracer, passes int, m map[string]float64) error {
	if a.warm {
		return a.traceWarm(tr, passes, m)
	}
	ctx := context.Background()
	cons, doms := feasibilityQuery()
	solver := &symb.Solver{MaxNodes: 4000, Samples: 8}
	var (
		err   error
		stats []core.JoinStats
		paths int
	)
	for p := 0; p < passes; p++ {
		if err := tr.op(a, p); err != nil {
			return err
		}

		paths = 0
		for _, st := range a.stages {
			en := &nfir.Engine{Models: st.Models}
			tr.time("nfir.Engine.ExploreContext", p, func() {
				var ps []*nfir.Path
				ps, err = en.ExploreContext(ctx, st.Prog)
				paths += len(ps)
			})
			if err != nil {
				return err
			}
		}

		// The four stage generations on an empty cache, then the compose
		// that finds them resident: what is left is the three joins.
		g := core.NewGenerator()
		g.Parallelism = 1
		g.Cache = core.NewContractCache()
		for _, st := range a.stages {
			tr.time("core.Generator.Generate", p, func() { _, err = g.Generate(st.Prog, st.Models) })
			if err != nil {
				return err
			}
		}
		var ct *core.Contract
		tr.time("core.ComposeManyStats(resident)", p, func() { ct, stats, err = core.ComposeManyStats(ctx, g, a.stages) })
		if err != nil {
			return err
		}
		if err := a.verify(ct); err != nil {
			return err
		}

		tr.time("symb.Solver.Feasible", p, func() {
			for i := 0; i < feasibilityReps; i++ {
				if !solver.Feasible(cons, doms) {
					err = fmt.Errorf("feasibility query refuted")
				}
			}
		})
		if err != nil {
			return err
		}
	}

	perOp := func(name string) float64 { return tr.layer(name, passes, 1) / 1e3 }
	op, explore, generate, join := perOp("op"), perOp("nfir.Engine.ExploreContext"), perOp("core.Generator.Generate"), perOp("core.ComposeManyStats(resident)")
	m["nfir.explore_us"], m["nfir.paths"] = explore, float64(paths)
	m["core.generate_us"], m["core.solve_replay_us"] = generate, generate-explore
	m["core.join_us"] = join
	m["symb.feasible_us"] = tr.layer("symb.Solver.Feasible", passes, feasibilityReps) / 1e3
	var sum core.JoinStats
	for _, f := range stats {
		sum.Pairs += f.Pairs
		sum.IndexSkipped += f.IndexSkipped
		sum.PreFiltered += f.PreFiltered
		sum.SolverRefuted += f.SolverRefuted
		sum.Kept += f.Kept
		sum.PathsOut = f.PathsOut
	}
	m["core.join_pairs"], m["core.join_index_skipped"] = float64(sum.Pairs), float64(sum.IndexSkipped)
	m["core.join_prefiltered"], m["core.join_solver_refuted"] = float64(sum.PreFiltered), float64(sum.SolverRefuted)
	m["core.join_kept"], m["core.paths_out"] = float64(sum.Kept), float64(sum.PathsOut)
	m["core.join_solver_useful_ratio"] = float64(sum.Kept) / float64(sum.Kept+sum.SolverRefuted)
	m["harness.reconcile_frac"] = (generate + join) / op
	return nil
}

func (a *an) traceWarm(tr *tracer, passes int, m map[string]float64) error {
	entries, err := a.store.List()
	if err != nil {
		return err
	}
	// The op's one lookup resolves to the whole chain's fold key, so of
	// the stored objects it reads and decodes only the composite; Get,
	// Decode and Encode are timed on that object. Set-up wrote every
	// object, so Put is timed over all of them.
	payloads := make([][]byte, len(entries))
	composite, bytes := -1, 0
	for i, e := range entries {
		if payloads[i], err = a.store.Get(e.Key); err != nil {
			return err
		}
		bytes += len(payloads[i])
		if e.Meta.Paths == chainPaths {
			composite = i
		}
	}
	if composite < 0 {
		return fmt.Errorf("no stored object holds the %d-path composite", chainPaths)
	}
	scratchDir, err := os.MkdirTemp(a.dir, "scratch-")
	if err != nil {
		return err
	}
	scratch, err := store.Open(scratchDir)
	if err != nil {
		return err
	}
	var (
		ts      core.TierStats
		art     *core.Artifact
		encoded []byte
	)
	for p := 0; p < passes; p++ {
		if err := tr.op(a, p); err != nil {
			return err
		}
		ts = a.cache.TierStats()
		tr.time("core.ComposeManyStats(memory)", p, func() { _, _, err = a.compose(a.cache) })
		if err != nil {
			return err
		}

		tr.time("store.Get", p, func() { _, err = a.store.Get(entries[composite].Key) })
		if err != nil {
			return err
		}
		tr.time("core.DecodeArtifact", p, func() { art, err = core.DecodeArtifact(payloads[composite]) })
		if err != nil {
			return err
		}
		tr.time("core.EncodeArtifact", p, func() { encoded, err = core.EncodeArtifact(art) })
		if err != nil {
			return err
		}
		for i, e := range entries {
			tr.time("store.Put", p, func() { err = scratch.Put(e.Key, payloads[i], e.Meta) })
			if err != nil {
				return err
			}
		}
	}

	perOp := func(name string) float64 { return tr.layer(name, passes, 1) / 1e3 }
	op, get, decode := perOp("op"), perOp("store.Get"), perOp("core.DecodeArtifact")
	m["store.get_us"], m["store.put_us"] = get, perOp("store.Put")
	m["store.objects"], m["store.bytes"] = float64(len(entries)), float64(bytes)
	m["core.decode_us"], m["core.encode_us"] = decode, perOp("core.EncodeArtifact")
	m["core.artifact_bytes"] = float64(len(encoded))
	m["core.cache_disk_hits"], m["core.cache_mem_hits"], m["core.cache_misses"] = float64(ts.DiskHits), float64(ts.MemHits), float64(ts.Misses)
	m["core.warm_mem_us"] = perOp("core.ComposeManyStats(memory)")
	m["harness.reconcile_frac"] = (get + decode) / op
	return nil
}
