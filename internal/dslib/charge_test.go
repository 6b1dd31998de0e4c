package dslib

import (
	"fmt"
	"slices"
	"testing"

	"gobolt/internal/nfir"
	"gobolt/internal/perf"
)

type accessLog struct{ evs []perf.Access }

func (l *accessLog) Op(ev perf.Access) { l.evs = append(l.evs, ev) }

// digest folds an access stream into its length and an FNV-1a hash over
// every field of every event.
func digest(evs []perf.Access) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, ev := range evs {
		mix(uint64(ev.Class))
		mix(ev.Count)
		mix(ev.Addr)
		mix(uint64(ev.Size))
		if ev.LoadDependent {
			mix(1)
		} else {
			mix(0)
		}
	}
	return fmt.Sprintf("%d:%016x", len(evs), h)
}

// chargeRig is one set of structures under a meter, traced or not.
type chargeRig struct {
	env *nfir.Env
	log *accessLog
	ds  map[string]nfir.ConcreteDS
}

func newChargeRig(t *testing.T, traced bool) *chargeRig {
	r := &chargeRig{env: nfir.NewEnv(), ds: map[string]nfir.ConcreteDS{}}
	if traced {
		r.log = &accessLog{}
		r.env.Meter = perf.NewMeter(r.log)
	} else {
		r.env.Meter = perf.NewMeter(nil)
	}
	// One bucket, so every key collides and walks, collisions and the
	// rehash defence all run.
	r.ds["flowtable"] = NewFlowTable(r.env, FlowTableConfig{
		Name: "ft", Capacity: 4, Buckets: 1, KeyWords: 1, TimeoutNS: 1000,
		RehashThreshold: 2, Seed: 5, Costs: BridgeCosts(),
	})
	r.ds["natmap"] = NewNATMap(r.env, NATMapConfig{
		Name: "nat", Capacity: 2, Buckets: 1, TimeoutNS: 1000, Seed: 9,
		Costs: VigNATCosts(), FirstPort: 1000, PortCount: 4,
	}, NewAllocatorA(r.env, 1000, 4))
	dir := NewDir248(r.env, 0, 4)
	if err := dir.AddRoute(0x0a000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddRoute(0x0a010200, 28, 2); err != nil {
		t.Fatal(err)
	}
	r.ds["dir248"] = dir
	ring, err := NewMaglevRing(r.env, 3, 7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r.ds["maglev"] = ring
	return r
}

// The access stream every FlowTable, NATMap, DIR-24-8 and Maglev method
// emits to a trace sink is pinned event for event (the digests were
// recorded before charge learnt to bulk-charge an untraced meter), and
// the untraced meter reaches the same IC and MA and the same results by
// its two additions.
func TestChargeStreamPinned(t *testing.T) {
	steps := []struct {
		ds, method string
		args       []uint64
		res        []uint64 // the call's results
		stream     string   // digest of the events the call emits
	}{
		{"flowtable", "expire", []uint64{10}, []uint64{0}, "4:ed7d668bc37c9c40"},                  // nothing to expire
		{"flowtable", "put", []uint64{1, 7, 10}, []uint64{0}, "47:2c2002cfbba841ef"},              // new
		{"flowtable", "put", []uint64{1, 8, 20}, []uint64{1}, "29:3492caadd54c7e62"},              // known
		{"flowtable", "put", []uint64{2, 9, 30}, []uint64{0}, "57:81b4d3f0e2952413"},              // new, behind one entry
		{"flowtable", "get", []uint64{2, 40}, []uint64{9, 1}, "26:771716cf47e7c09a"},              // hit
		{"flowtable", "get", []uint64{77, 40}, []uint64{0, 0}, "20:23ae87ceef291b45"},             // miss
		{"flowtable", "peek", []uint64{1}, []uint64{8, 1}, "21:3bd7b66e7cc103ea"},                 // hit
		{"flowtable", "peek", []uint64{78}, []uint64{0, 0}, "20:23ae87ceef291b45"},                // miss
		{"flowtable", "put", []uint64{3, 9, 50}, []uint64{0}, "67:62fb99d6513edd47"},              // new
		{"flowtable", "put", []uint64{4, 9, 60}, []uint64{3}, "219:7d860e0c550d20c3"},             // new, and the walk trips the rehash defence
		{"flowtable", "put", []uint64{5, 9, 70}, []uint64{2}, "33:3fc89e5b66c3d0e1"},              // full
		{"flowtable", "expire", []uint64{5000}, []uint64{4}, "160:ae7ba0dd89d6ae24"},              // expires all four
		{"natmap", "add", []uint64{1, 2, 3, 0xabc, 10}, []uint64{1000, 0}, "79:3ab7e2cd5a8655ce"}, // new
		{"natmap", "add", []uint64{1, 2, 3, 0xabc, 20}, []uint64{1000, 0}, "33:7e9c467a5b048dd0"}, // known
		{"natmap", "add", []uint64{4, 5, 6, 0xdef, 30}, []uint64{1001, 0}, "88:154164b5419d6170"}, // new, behind one entry
		{"natmap", "add", []uint64{7, 8, 9, 0x123, 40}, []uint64{0, 1}, "25:9e1f12b2ee8db531"},    // full
		{"natmap", "lookup_int", []uint64{4, 5, 6, 50}, []uint64{1001, 1}, "40:e6f0bf8bff05db8f"}, // hit
		{"natmap", "lookup_int", []uint64{9, 9, 9, 50}, []uint64{0, 0}, "21:93d8da0573ec8927"},    // miss
		{"natmap", "lookup_ext", []uint64{1000, 60}, []uint64{2748, 1}, "14:07d044a2f9bbf6ec"},    // hit
		{"natmap", "lookup_ext", []uint64{1003, 60}, []uint64{0, 0}, "5:0e0ca9066ae5fd9b"},        // miss
		{"natmap", "lookup_ext", []uint64{5, 60}, []uint64{0, 0}, "5:43c13adb40c02a63"},           // port out of range
		{"natmap", "expire", []uint64{5000}, []uint64{2}, "151:bfb0a8e722eaf181"},                 // expires both

		// Inserts after expiry, recorded before the chains recycled entries:
		// an entry an expiry freed and a put reuses emits what a fresh one did.
		{"flowtable", "put", []uint64{6, 1, 6000}, []uint64{0}, "47:62346b803dc0956f"},                 // new, into the emptied table
		{"flowtable", "get", []uint64{6, 6100}, []uint64{1, 1}, "21:686f39202e1cd1ea"},                 // hit
		{"flowtable", "expire", []uint64{7100}, []uint64{1}, "43:41d6997ae1aba5b7"},                    // expires it
		{"flowtable", "put", []uint64{7, 2, 7200}, []uint64{0}, "47:e75ca082cfa31caf"},                 // new, a different key
		{"flowtable", "put", []uint64{8, 2, 7300}, []uint64{0}, "57:a78a453b75dbd453"},                 // new
		{"flowtable", "put", []uint64{9, 2, 7400}, []uint64{0}, "67:4401e43762618407"},                 // new
		{"flowtable", "put", []uint64{10, 2, 7500}, []uint64{3}, "219:6bf7b6448c7ebd83"},               // new, and the rehash defence again
		{"flowtable", "put", []uint64{7, 3, 7600}, []uint64{1}, "29:bcfa7c2f4c607ce2"},                 // known, after the rehash
		{"flowtable", "put", []uint64{11, 2, 7700}, []uint64{2}, "33:46d6bf13c87a16e1"},                // full
		{"flowtable", "expire", []uint64{9000}, []uint64{4}, "175:e50cc9c293ed8f85"},                   // expires all four
		{"flowtable", "put", []uint64{12, 3, 9100}, []uint64{0}, "47:648e561e175b79af"},                // new, after the rehash and its expiry
		{"flowtable", "peek", []uint64{12}, []uint64{3, 1}, "21:f18bd8803cf0ccea"},                     // hit
		{"natmap", "add", []uint64{11, 12, 13, 0x456, 6000}, []uint64{1000, 0}, "79:75d5ea523084fdce"}, // new, into the emptied map
		{"natmap", "lookup_ext", []uint64{1000, 6100}, []uint64{1110, 1}, "14:eafce05e6abf6aec"},       // hit
		{"natmap", "expire", []uint64{7100}, []uint64{1}, "73:7ff788a64b173d86"},                       // expires it
		{"natmap", "add", []uint64{14, 15, 16, 0x789, 7200}, []uint64{1000, 0}, "79:425790f7b115194e"}, // new, a different flow
		{"natmap", "lookup_ext", []uint64{1000, 7300}, []uint64{1929, 1}, "14:4d923f885f534eec"},       // hit: the new flow's port
		{"natmap", "lookup_int", []uint64{14, 15, 16, 7400}, []uint64{1000, 1}, "35:e35ea8236891ef62"}, // hit
		{"natmap", "lookup_int", []uint64{11, 12, 13, 7400}, []uint64{0, 0}, "16:4c6cdbc8fe41826c"},    // miss: the expired flow

		{"dir248", "get", []uint64{0x0a090909}, []uint64{1}, "3:2c033885ed6365f8"}, // short
		{"dir248", "get", []uint64{0x0a010203}, []uint64{2}, "6:8d6961e6be90c0b1"}, // long
		{"maglev", "pick", []uint64{12345}, []uint64{0}, "4:2a5055237f025fb8"},
		{"maglev", "alive", []uint64{1, 200}, []uint64{1}, "3:7b0171fe1565029b"}, // alive
		{"maglev", "heartbeat", []uint64{1, 5000}, nil, "4:a581c3b1ce01048e"},
		{"maglev", "alive", []uint64{0, 5500}, []uint64{0}, "3:35ebf9fdee533fd3"},          // timed out
		{"maglev", "pick_alive", []uint64{3, 5500}, []uint64{1, 1}, "15:71b89ad7d3f76993"}, // only backend 1 is alive: direct or fallback
		{"maglev", "pick_alive", []uint64{4, 5500}, []uint64{1, 1}, "11:ebcf1e0bf56cdebf"},
		{"maglev", "pick_alive", []uint64{5, 5500}, []uint64{1, 1}, "7:e58fe2082fa8206b"},
		{"maglev", "pick_alive", []uint64{5, 9000}, []uint64{0, 0}, "31:c8294c4f1f451083"}, // none alive
	}
	traced, bulk := newChargeRig(t, true), newChargeRig(t, false)
	for i, st := range steps {
		name := fmt.Sprintf("step %d %s.%s%v", i, st.ds, st.method, st.args)
		traced.log.evs = traced.log.evs[:0]
		beforeT, beforeB := traced.env.Meter.Snapshot(), bulk.env.Meter.Snapshot()
		resT, errT := traced.ds[st.ds].Invoke(st.method, st.args, traced.env)
		resT = slices.Clone(resT)
		resB, errB := bulk.ds[st.ds].Invoke(st.method, st.args, bulk.env)
		if errT != nil || errB != nil {
			t.Fatalf("%s: %v / %v", name, errT, errB)
		}
		if !slices.Equal(resT, resB) {
			t.Errorf("%s: traced results %v, untraced %v", name, resT, resB)
		}
		if dT, dB := traced.env.Meter.Since(beforeT), bulk.env.Meter.Since(beforeB); dT != dB {
			t.Errorf("%s: traced %+v, untraced %+v", name, dT, dB)
		}
		if !slices.Equal(resT, st.res) {
			t.Errorf("%s: results %v, want %v", name, resT, st.res)
		}
		if got := digest(traced.log.evs); got != st.stream {
			t.Errorf("%s: access stream %s, pinned %s", name, got, st.stream)
		}
	}
}
