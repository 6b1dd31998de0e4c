package dslib

import (
	"math/rand"
	"testing"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

func newTestEnv() *nfir.Env {
	env := nfir.NewEnv()
	env.Meter = perf.NewMeter(nil)
	env.ResetPacket(nil, 0, 0)
	return env
}

func testFresh() nfir.FreshFn {
	n := 0
	return func(hint string) symb.Sym {
		n++
		return symb.Sym{Name: hint + "_t"}
	}
}

// invoke runs one DS op in a fresh PCV scope and returns results, the
// metered delta, and the per-op PCV observations.
func invoke(t *testing.T, env *nfir.Env, ds nfir.ConcreteDS, method string, args ...uint64) ([]uint64, perf.Snapshot, map[string]uint64) {
	t.Helper()
	env.ResetPacket(nil, env.InPort, env.Time)
	before := env.Meter.Snapshot()
	res, err := ds.Invoke(method, args, env)
	if err != nil {
		t.Fatalf("%s(%v): %v", method, args, err)
	}
	return res, env.Meter.Since(before), env.PCVs()
}

// checkOutcome asserts contract soundness: the metered IC/MA of the call
// are ≤ the outcome's contract evaluated at the observed PCVs.
func checkOutcome(t *testing.T, model nfir.Model, method, label string, delta perf.Snapshot, pcvs map[string]uint64) {
	t.Helper()
	outs := model.Outcomes(method, nil, testFresh())
	for _, out := range outs {
		if out.Label != label {
			continue
		}
		binding := map[string]uint64{}
		for _, pcv := range out.PCVs {
			binding[pcv.Name] = pcvs[pcv.Name]
		}
		ic := out.Cost[perf.Instructions].Eval(binding)
		ma := out.Cost[perf.MemAccesses].Eval(binding)
		if delta.Instructions > ic {
			t.Errorf("%s:%s IC %d exceeds contract %d (pcvs %v)", method, label, delta.Instructions, ic, binding)
		}
		if delta.MemAccesses > ma {
			t.Errorf("%s:%s MA %d exceeds contract %d (pcvs %v)", method, label, delta.MemAccesses, ma, binding)
		}
		if cyc := out.Cost[perf.Cycles].Eval(binding); cyc < ic {
			t.Errorf("%s:%s cycle bound %d below IC %d", method, label, cyc, ic)
		}
		return
	}
	t.Fatalf("no outcome %q for method %q", label, method)
}

func newBridgeTable(env *nfir.Env, capacity int, threshold uint64) *FlowTable {
	return NewFlowTable(env, FlowTableConfig{
		Name:            "mac",
		Capacity:        capacity,
		KeyWords:        1,
		TimeoutNS:       1_000_000_000, // 1s
		GranularityNS:   1_000_000,     // 1ms
		RehashThreshold: threshold,
		Costs:           BridgeCosts(),
	})
}

func TestFlowTablePutGetSemantics(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 64, 0)
	env.Time = 1_000_000

	res, _, _ := invoke(t, env, ft, "put", 0xAABB, 3, env.Time)
	if res[0] != PutStatusNew {
		t.Fatalf("first put status = %d", res[0])
	}
	res, _, _ = invoke(t, env, ft, "get", 0xAABB, env.Time)
	if res[1] != 1 || res[0] != 3 {
		t.Fatalf("get = %v, want [3 1]", res)
	}
	res, _, _ = invoke(t, env, ft, "peek", 0xAABB)
	if res[1] != 1 || res[0] != 3 {
		t.Fatalf("peek = %v", res)
	}
	res, _, _ = invoke(t, env, ft, "get", 0xCCDD, env.Time)
	if res[1] != 0 {
		t.Fatalf("get missing = %v", res)
	}
	res, _, _ = invoke(t, env, ft, "put", 0xAABB, 5, env.Time)
	if res[0] != PutStatusKnown {
		t.Fatalf("re-put status = %d", res[0])
	}
	res, _, _ = invoke(t, env, ft, "peek", 0xAABB)
	if res[0] != 5 {
		t.Fatalf("value not updated: %v", res)
	}
	if ft.Count() != 1 {
		t.Fatalf("count = %d", ft.Count())
	}
}

func TestFlowTableCapacityFull(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 4, 0)
	env.Time = 1
	for i := uint64(0); i < 4; i++ {
		res, _, _ := invoke(t, env, ft, "put", 0x100+i, i, env.Time)
		if res[0] != PutStatusNew {
			t.Fatalf("put %d status = %d", i, res[0])
		}
	}
	res, _, _ := invoke(t, env, ft, "put", 0x999, 9, env.Time)
	if res[0] != PutStatusFull {
		t.Fatalf("full put status = %d", res[0])
	}
}

func TestFlowTableExpiry(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 64, 0)
	env.Time = 1_000_000 // 1ms
	for i := uint64(0); i < 5; i++ {
		invoke(t, env, ft, "put", 0x100+i, i, env.Time)
	}
	// Before timeout: nothing expires.
	res, _, _ := invoke(t, env, ft, "expire", env.Time+500_000_000)
	if res[0] != 0 {
		t.Fatalf("early expire = %d", res[0])
	}
	// After timeout: all five.
	res, _, pcvs := invoke(t, env, ft, "expire", env.Time+2_000_000_000)
	if res[0] != 5 {
		t.Fatalf("expire = %d, want 5", res[0])
	}
	if pcvs[PCVExpired] != 5 {
		t.Errorf("PCV e = %d", pcvs[PCVExpired])
	}
	if ft.Count() != 0 {
		t.Errorf("count after expiry = %d", ft.Count())
	}
}

func TestFlowTableRefreshPreventsExpiry(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 64, 0)
	env.Time = 1_000_000
	invoke(t, env, ft, "put", 0xA, 1, env.Time)
	invoke(t, env, ft, "put", 0xB, 2, env.Time)
	// Refresh A halfway through the timeout.
	half := env.Time + 600_000_000
	invoke(t, env, ft, "get", 0xA, half)
	// At 1.2s, only B (stamped at 1ms) is past its 1s timeout.
	res, _, _ := invoke(t, env, ft, "expire", env.Time+1_200_000_000)
	if res[0] != 1 {
		t.Fatalf("expire = %d, want 1", res[0])
	}
	res, _, _ = invoke(t, env, ft, "peek", 0xA)
	if res[1] != 1 {
		t.Error("refreshed entry A was expired")
	}
}

func TestFlowTableGranularityBatching(t *testing.T) {
	// With second granularity, flows stamped within the same second
	// expire together (the VigNAT bug, §5.3); with millisecond
	// granularity they expire one at a time.
	const sec = 1_000_000_000
	run := func(gran uint64) (maxBatch uint64) {
		env := newTestEnv()
		ft := NewFlowTable(env, FlowTableConfig{
			Name: "nat", Capacity: 1024, KeyWords: 1,
			TimeoutNS: 10 * sec, GranularityNS: gran,
			Costs: VigNATCosts(),
		})
		// 100 flows spread uniformly over one second.
		for i := uint64(0); i < 100; i++ {
			now := sec + i*10_000_000 // every 10ms
			invoke(t, env, ft, "put", 0x1000+i, i, now)
		}
		// Then probe expiry every 10ms after the timeout window opens.
		for i := uint64(0); i < 300; i++ {
			now := 11*sec + i*10_000_000
			res, _, _ := invoke(t, env, ft, "expire", now)
			if res[0] > maxBatch {
				maxBatch = res[0]
			}
		}
		return maxBatch
	}
	batchSec := run(sec)
	batchMS := run(1_000_000)
	if batchSec < 50 {
		t.Errorf("second granularity max batch = %d, want ≥ 50 (batching)", batchSec)
	}
	if batchMS > 3 {
		t.Errorf("millisecond granularity max batch = %d, want ≤ 3", batchMS)
	}
}

func TestFlowTableContractSoundnessRandomOps(t *testing.T) {
	env := newTestEnv()
	ft := NewFlowTable(env, FlowTableConfig{
		Name: "rand", Capacity: 128, KeyWords: 2,
		TimeoutNS: 1_000_000, GranularityNS: 1000,
		Costs: VigNATCosts(),
	})
	model := ft.Model()
	rng := rand.New(rand.NewSource(7))
	now := uint64(1)
	for i := 0; i < 3000; i++ {
		now += uint64(rng.Intn(5000))
		env.Time = now
		k1, k2 := uint64(rng.Intn(64)), uint64(rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			res, delta, pcvs := invoke(t, env, ft, "put", k1, k2, 42, now)
			label := map[uint64]string{PutStatusNew: "new", PutStatusKnown: "known", PutStatusFull: "full"}[res[0]]
			checkOutcome(t, model, "put", label, delta, pcvs)
		case 1:
			res, delta, pcvs := invoke(t, env, ft, "get", k1, k2, now)
			label := "miss"
			if res[1] == 1 {
				label = "hit"
			}
			checkOutcome(t, model, "get", label, delta, pcvs)
		case 2:
			res, delta, pcvs := invoke(t, env, ft, "peek", k1, k2)
			label := "miss"
			if res[1] == 1 {
				label = "hit"
			}
			checkOutcome(t, model, "peek", label, delta, pcvs)
		default:
			_, delta, pcvs := invoke(t, env, ft, "expire", now)
			checkOutcome(t, model, "expire", "ok", delta, pcvs)
		}
	}
}

func TestFlowTableRehashDefence(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 256, 3)
	env.Time = 1
	// Build adversarial keys that collide into one bucket under the
	// current secret (the CASTAN-substitute's job).
	var keys []uint64
	wantBucket := -1
	for k := uint64(1); len(keys) < 6; k++ {
		b, _ := ft.BucketOf([]uint64{k})
		if wantBucket < 0 {
			wantBucket = b
		}
		if b == wantBucket {
			keys = append(keys, k)
		}
	}
	secretBefore := ft.HashSecret()
	var sawRehash bool
	for i, k := range keys {
		res, delta, pcvs := invoke(t, env, ft, "put", k, uint64(i), env.Time)
		switch res[0] {
		case PutStatusNew:
		case PutStatusRehash:
			sawRehash = true
			checkOutcome(t, ft.Model(), "put", "rehash", delta, pcvs)
			if pcvs[PCVOccupancy] == 0 {
				t.Error("rehash must observe occupancy PCV")
			}
		default:
			t.Fatalf("unexpected status %d", res[0])
		}
	}
	if !sawRehash {
		t.Fatal("expected the 4th colliding insert to trigger a rehash")
	}
	if ft.HashSecret() == secretBefore {
		t.Error("rehash must renew the hash secret")
	}
	// All entries still reachable after rehash.
	for i, k := range keys {
		res, _, _ := invoke(t, env, ft, "peek", k)
		if res[1] != 1 || res[0] != uint64(i) {
			t.Errorf("key %#x lost after rehash: %v", k, res)
		}
	}
}

func TestFlowTablePathologicalState(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 512, 0)
	now := uint64(10_000_000_000)
	ft.SynthesizePathological(env, 256)
	if ft.Count() != 256 {
		t.Fatalf("count = %d", ft.Count())
	}
	env.Time = now
	res, delta, pcvs := invoke(t, env, ft, "expire", now)
	if res[0] != 256 {
		t.Fatalf("mass expiry = %d, want 256", res[0])
	}
	// All entries in one bucket → quadratic work: Σ t_i = 256·257/2, so
	// the distilled per-entry mean is ⌈257/2⌉ = 129.
	if pcvs[PCVTraversals] != 129 {
		t.Errorf("mean traversals = %d, want 129", pcvs[PCVTraversals])
	}
	checkOutcome(t, ft.Model(), "expire", "ok", delta, pcvs)
	// The quadratic blow-up: ≥ e·t/2 chain steps of ≥ 13 IC each.
	if delta.Instructions < 256*257/2*13 {
		t.Errorf("pathological expiry IC = %d, suspiciously small", delta.Instructions)
	}
}

func TestFlowTableModelOutcomeLabels(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 16, 2)
	model := ft.Model()
	wantLabels := map[string][]string{
		"expire": {"ok"},
		"get":    {"hit", "miss"},
		"peek":   {"hit", "miss"},
		"put":    {"known", "new", "full", "rehash"},
	}
	for method, want := range wantLabels {
		outs := model.Outcomes(method, nil, testFresh())
		if len(outs) != len(want) {
			t.Errorf("%s: %d outcomes, want %d", method, len(outs), len(want))
			continue
		}
		for i, w := range want {
			if outs[i].Label != w {
				t.Errorf("%s outcome %d = %q, want %q", method, i, outs[i].Label, w)
			}
		}
	}
	if outs := model.Outcomes("bogus", nil, testFresh()); outs != nil {
		t.Error("unknown method must return nil outcomes")
	}
	// Without a rehash threshold, put has only three outcomes.
	ft2 := newBridgeTable(env, 16, 0)
	if outs := ft2.Model().Outcomes("put", nil, testFresh()); len(outs) != 3 {
		t.Errorf("put outcomes without defence = %d, want 3", len(outs))
	}
}

func TestFlowTableVigNATCoefficients(t *testing.T) {
	// The expert contract must reproduce the paper's Table 6
	// coefficients for the VigNAT cost set.
	env := newTestEnv()
	ft := NewFlowTable(env, FlowTableConfig{
		Name: "vignat", Capacity: 64, KeyWords: 3, TimeoutNS: 1, Costs: VigNATCosts(),
	})
	outs := ft.Model().Outcomes("expire", nil, testFresh())
	ic := outs[0].Cost[perf.Instructions]
	// 301 here; the NAT map's allocator free (58·e) completes the
	// paper's 359·e — checked in the core-level Table 6 test.
	if got := ic.Coef("e"); got != 301 {
		t.Errorf("e coefficient = %d, want 301", got)
	}
	if got := ic.Coef("c*e"); got != 80 {
		t.Errorf("e·c coefficient = %d, want 80", got)
	}
	if got := ic.Coef("e*t"); got != 38 {
		t.Errorf("e·t coefficient = %d, want 38", got)
	}
	gets := ft.Model().Outcomes("get", nil, testFresh())
	icGet := gets[0].Cost[perf.Instructions]
	if got := icGet.Coef("c"); got != 30 {
		t.Errorf("get c coefficient = %d, want 30", got)
	}
	if got := icGet.Coef("t"); got != 18 {
		t.Errorf("get t coefficient = %d, want 18", got)
	}
	puts := ft.Model().Outcomes("put", nil, testFresh())
	icPut := puts[1].Cost[perf.Instructions] // "new": walk 18 + insert extra 8
	if got := icPut.Coef("t"); got != 26 {
		t.Errorf("put t coefficient = %d, want 26", got)
	}
}

func TestFlowTableBridgeCoefficients(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 64, 3)
	outs := ft.Model().Outcomes("expire", nil, testFresh())
	ic := outs[0].Cost[perf.Instructions]
	if got := ic.Coef("e"); got != 245 {
		t.Errorf("e coefficient = %d, want 245", got)
	}
	if got := ic.Coef("c*e"); got != 82 {
		t.Errorf("e·c coefficient = %d, want 82", got)
	}
	if got := ic.Coef("e*t"); got != 19 {
		t.Errorf("e·t coefficient = %d, want 19", got)
	}
	puts := ft.Model().Outcomes("put", nil, testFresh())
	var rehash *nfir.Outcome
	for i := range puts {
		if puts[i].Label == "rehash" {
			rehash = &puts[i]
		}
	}
	if rehash == nil {
		t.Fatal("no rehash outcome")
	}
	icR := rehash.Cost[perf.Instructions]
	if got := icR.Coef("o"); got != 124 {
		t.Errorf("o coefficient = %d, want 124", got)
	}
	if got := icR.Coef("o*t"); got != 14 {
		t.Errorf("t·o coefficient = %d, want 14", got)
	}
	// The rehash fixed term includes the per-bucket reallocation
	// (15 × 64 buckets) — the paper's 984069-style cliff constant.
	if got := icR.ConstTerm(); got < 15*64 {
		t.Errorf("rehash constant = %d, want ≥ %d", got, 15*64)
	}
}

func TestFlowTableErrors(t *testing.T) {
	env := newTestEnv()
	ft := newBridgeTable(env, 8, 0)
	for _, c := range []struct {
		method string
		args   []uint64
	}{
		{"expire", nil},
		{"get", []uint64{1}},
		{"peek", []uint64{1, 2}},
		{"put", []uint64{1}},
		{"nosuch", []uint64{1}},
	} {
		if _, err := ft.Invoke(c.method, c.args, env); err == nil {
			t.Errorf("%s(%v) should fail", c.method, c.args)
		}
	}
}
