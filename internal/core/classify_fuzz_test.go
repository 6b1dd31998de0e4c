package core_test

import (
	"sync"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/distill"
	"gobolt/internal/nf"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
	"gobolt/internal/traffic"
)

// fuzzRig is the shared stateful bridge the fuzzer drives. State
// persists across iterations on purpose: a learning bridge visits its
// interesting paths (expiry, collisions, table-full, rehash) only after
// history accumulates.
type fuzzRig struct {
	br     *nf.Bridge
	ct     *core.Contract
	cls    *core.Classifier
	oracle *core.OracleClassifier
	run    *distill.Runner
	log    core.CallLog
	now    uint64
}

var (
	fuzzOnce sync.Once
	fuzzR    *fuzzRig
	fuzzErr  error
)

func getFuzzRig() (*fuzzRig, error) {
	fuzzOnce.Do(func() {
		br := nf.NewBridge(nf.BridgeConfig{
			Ports: 4, Capacity: 64,
			TimeoutNS: 1_000_000, GranularityNS: 1_000,
			RehashThreshold: 4, Seed: 7,
		})
		ct, err := core.NewGenerator().Generate(br.Prog, br.Models)
		if err != nil {
			fuzzErr = err
			return
		}
		cls, err := core.NewClassifier(ct)
		if err != nil {
			fuzzErr = err
			return
		}
		oracle, err := core.NewOracleClassifier(ct)
		if err != nil {
			fuzzErr = err
			return
		}
		fuzzR = &fuzzRig{br: br, ct: ct, cls: cls, oracle: oracle, run: &distill.Runner{}, now: 1_000}
		core.AttachCallLog(br.Env, &fuzzR.log)
	})
	return fuzzR, fuzzErr
}

// FuzzClassifier checks the compiled classifier against two oracles.
// The string-keyed classifier it replaced (classify_oracle_test.go) must
// return the same path and the same Matches list for the recorded
// calls, for hand-built copies of them that carry no IDs, and for
// copies with a result or an outcome label changed. A naive tree-walking
// evaluation of each path's outcome results, domains and constraints
// must find the same matches. All matching paths must share one class
// label, so "first match in ID order" is a sound tie-break.
func FuzzClassifier(f *testing.F) {
	for i, p := range traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 8, MACs: 6, Ports: 4, BroadcastFraction: 0.25,
		StartNS: 1_000, GapNS: 1_000, Seed: 5,
	}) {
		f.Add(p.Data, uint8(p.InPort), uint32(1_000*uint32(i+1)))
	}
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 9, 8, 0}, uint8(2), uint32(2_000_000))

	f.Fuzz(func(t *testing.T, data []byte, inPort uint8, gap uint32) {
		r, err := getFuzzRig()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > nfir.MaxPacket {
			data = data[:nfir.MaxPacket]
		}
		r.now += uint64(gap%2_000_000) + 1
		pkt := traffic.Packet{Data: data, Time: r.now, InPort: uint64(inPort % 4)}

		r.log.Reset()
		recs, err := r.run.Run(r.br.Instance, []traffic.Packet{pkt})
		if err != nil {
			t.Fatal(err)
		}
		calls := r.log.Records()
		obs := &core.PacketObservation{
			Pkt: data, InPort: pkt.InPort, Time: pkt.Time,
			PktLen: uint64(len(data)), Action: recs[0].Action.Kind, Calls: calls,
		}
		for _, variant := range observationVariants(obs) {
			agreeWithOracle(t, r, variant)
		}

		got := r.cls.Matches(obs)
		var want []*core.PathContract
		for _, p := range r.ct.Paths {
			if naiveMatch(p, obs) {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("compiled matcher found %d paths, naive oracle %d (obs calls %s, action %s)",
				len(got), len(want), core.CallSig(obs.Calls), obs.Action)
		}
		classes := make(map[string]bool)
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("match %d: compiled path %d, naive path %d", i, got[i].ID, want[i].ID)
			}
			classes[got[i].Class()] = true
		}
		if len(classes) > 1 {
			t.Fatalf("observation matches %d distinct classes: %v", len(classes), classes)
		}
		best, ok := r.cls.Classify(obs)
		if ok != (len(got) > 0) {
			t.Fatalf("Classify ok=%v but Matches found %d paths", ok, len(got))
		}
		if ok && best.ID != got[0].ID {
			t.Fatalf("Classify chose path %d, not the lowest-ID match %d", best.ID, got[0].ID)
		}
	})
}

// observationVariants returns obs and copies of it that the classifier
// must resolve without recorder help: the calls hand-built with no IDs,
// and (still without IDs) an unknown outcome label on the first call,
// the first call's label dropped, and the last call's first result
// flipped (with its IDs kept — results are not interned).
func observationVariants(obs *core.PacketObservation) []*core.PacketObservation {
	variant := func(edit func(calls []core.CallRecord), keepIDs bool) *core.PacketObservation {
		v := *obs
		v.Calls = make([]core.CallRecord, len(obs.Calls))
		for i, c := range obs.Calls {
			c.Results = append([]uint64(nil), c.Results...)
			if !keepIDs {
				c.OpID, c.OutcomeID = 0, 0
			}
			v.Calls[i] = c
		}
		if len(v.Calls) > 0 {
			edit(v.Calls)
		}
		return &v
	}
	return []*core.PacketObservation{
		obs,
		variant(func([]core.CallRecord) {}, false),
		variant(func(c []core.CallRecord) { c[0].Outcome = "no-such-label" }, false),
		variant(func(c []core.CallRecord) { c[0].Outcome = "" }, false),
		variant(func(c []core.CallRecord) {
			if last := c[len(c)-1]; len(last.Results) > 0 {
				last.Results[0] ^= 1
			}
		}, true),
	}
}

// agreeWithOracle requires the compiled classifier to assign obs
// exactly as the string-keyed oracle does.
func agreeWithOracle(t *testing.T, r *fuzzRig, obs *core.PacketObservation) {
	t.Helper()
	got, want := r.cls.Matches(obs), r.oracle.Matches(obs)
	if len(got) != len(want) {
		t.Fatalf("compiled classifier matches %d paths, string oracle %d (calls %+v, action %s)",
			len(got), len(want), obs.Calls, obs.Action)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: compiled path %d, oracle path %d", i, got[i].ID, want[i].ID)
		}
	}
	p, ok := r.cls.Classify(obs)
	q, okq := r.oracle.Classify(obs)
	if p != q || ok != okq {
		t.Fatalf("compiled classifier chose %v (%v), oracle %v (%v)", p, ok, q, okq)
	}
}

// naiveMatch re-implements the classifier's semantics by walking
// expression trees: same evidence, no compilation, no evaluator reuse.
func naiveMatch(p *core.PathContract, obs *core.PacketObservation) bool {
	if p.Action != obs.Action || naiveSig(p.Trace) != core.CallSig(obs.Calls) {
		return false
	}
	binding := make(map[string]uint64)
	type exprRes struct {
		e      symb.Expr
		ci, ri int
	}
	var exprResults []exprRes
	for ci, ev := range p.Trace {
		rec := obs.Calls[ci]
		if len(rec.Results) < len(ev.Outcome.Results) {
			return false
		}
		if rec.Outcome != "" && rec.Outcome != ev.Outcome.Label {
			return false
		}
		for ri, res := range ev.Outcome.Results {
			switch x := res.(type) {
			case symb.Const:
				if rec.Results[ri] != x.V {
					return false
				}
			case symb.Sym:
				binding[x.Name] = rec.Results[ri]
			default:
				exprResults = append(exprResults, exprRes{res, ci, ri})
			}
		}
	}
	value := func(name string) (uint64, bool) {
		if v, ok := binding[name]; ok {
			return v, true
		}
		if off, size, ok := nfir.ParseFieldSym(name); ok {
			return core.FieldValue(obs.Pkt, off, size), true
		}
		switch name {
		case nfir.SymInPort:
			return obs.InPort, true
		case nfir.SymNow:
			return obs.Time, true
		case nfir.SymPktLen:
			return obs.PktLen, true
		}
		return 0, false
	}
	// Every observable symbol a program mentions is domain-checked, and
	// so is every bound result symbol (the domain is part of the class).
	progExprs := append([]symb.Expr(nil), p.Constraints...)
	for _, er := range exprResults {
		progExprs = append(progExprs, er.e)
	}
	checked := make(map[string]bool)
	for _, name := range symb.Symbols(progExprs...) {
		checked[name] = true
		if v, ok := value(name); ok {
			if d, okd := p.Domains[name]; okd && (v < d.Lo || v > d.Hi) {
				return false
			}
		}
	}
	for name, v := range binding {
		if checked[name] {
			continue
		}
		if d, ok := p.Domains[name]; ok && (v < d.Lo || v > d.Hi) {
			return false
		}
	}
	bindFor := func(e symb.Expr) (map[string]uint64, bool) {
		m := make(map[string]uint64)
		for _, name := range symb.Symbols(e) {
			v, ok := value(name)
			if !ok {
				return nil, false
			}
			m[name] = v
		}
		return m, true
	}
	// Decidable expression results must reproduce the observed value;
	// decidable constraints must hold. Undecidable ones (fresh heap
	// reads) are existentially witnessed by the concrete run itself.
	for _, er := range exprResults {
		if m, ok := bindFor(er.e); ok && er.e.Eval(m) != obs.Calls[er.ci].Results[er.ri] {
			return false
		}
	}
	for _, c := range p.Constraints {
		if m, ok := bindFor(c); ok && c.Eval(m) == 0 {
			return false
		}
	}
	return true
}

func naiveSig(trace []nfir.CallEvent) string {
	calls := make([]core.CallRecord, len(trace))
	for i, ev := range trace {
		calls[i] = core.CallRecord{DS: ev.DS, Method: ev.Method}
	}
	return core.CallSig(calls)
}
