package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

// sameAsOracle checks what DecodeArtifact builds from data, a's
// version-3 encoding, against the reflection codec kept as value oracle:
// what it decodes from a's version-2 spelling.
func sameAsOracle(t *testing.T, what string, a *core.Artifact, data []byte) {
	t.Helper()
	got, err := core.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !core.SameValue(got, core.OracleValue(t, a)) {
		t.Fatalf("%s: decoder and oracle disagree on the value", what)
	}
}

// TestCodecRoundTripFigure1 round-trips every Figure-1 scenario contract
// through the artifact codec: all fourteen classes across NAT, bridge,
// load balancer, and LPM router, at full-stack level with real traces,
// witnesses, and polynomial costs.
func TestCodecRoundTripFigure1(t *testing.T) {
	scens, err := experiments.Scenarios(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 14 {
		t.Fatalf("expected the 14 Figure-1 scenarios, got %d", len(scens))
	}
	for _, s := range scens {
		data, err := core.EncodeArtifact(&core.Artifact{Contract: s.Contract})
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		sameAsOracle(t, s.Name, &core.Artifact{Contract: s.Contract}, data)
		got, err := core.DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		re, err := core.EncodeArtifact(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("%s: decode∘encode is not the identity", s.Name)
		}
		// The decoded contract must be indistinguishable from the
		// original through the legacy summary export too (this is the
		// byte-identity check the chain tests apply to composed
		// contracts).
		want, err := json.Marshal(s.Contract)
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(got.Contract)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Fatalf("%s: decoded contract diverges in summary export", s.Name)
		}
	}
}

// TestCodecRoundTripRawPaths regenerates one NF with its raw symbolic
// paths and round-trips contract AND paths — the cache-entry form the
// disk store persists so chain composition can extend stored prefixes.
func TestCodecRoundTripRawPaths(t *testing.T) {
	sc := experiments.QuickScale()
	stages, _, err := experiments.ChainStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Generator()
	for _, stage := range stages[:3] {
		ct, paths, err := g.GenerateWithPathsContext(context.Background(), stage.Prog, stage.Models)
		if err != nil {
			t.Fatalf("%s: generate: %v", stage.Prog.Name, err)
		}
		data, err := core.EncodeArtifact(&core.Artifact{Key: "", Contract: ct, Paths: paths})
		if err != nil {
			t.Fatalf("%s: encode: %v", stage.Prog.Name, err)
		}
		sameAsOracle(t, stage.Prog.Name, &core.Artifact{Contract: ct, Paths: paths}, data)
		got, err := core.DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", stage.Prog.Name, err)
		}
		if len(got.Paths) != len(paths) {
			t.Fatalf("%s: %d raw paths decoded, want %d", stage.Prog.Name, len(got.Paths), len(paths))
		}
		for i, rp := range got.Paths {
			orig := paths[i]
			if rp.Session != nil {
				t.Fatalf("%s: decoded path %d carries a solver session", stage.Prog.Name, i)
			}
			// Sessions are runtime-only and never serialized, and the
			// codec collapses empty maps to nil on fields only their
			// length is ever observed for — normalize a copy of the
			// original the same way before the deep compare.
			cp := *orig
			cp.Session = nil
			if len(cp.Domains) == 0 {
				cp.Domains = nil
			}
			if len(cp.Ops) == 0 {
				cp.Ops = nil
			}
			if len(cp.PCVRanges) == 0 {
				cp.PCVRanges = nil
			}
			if len(cp.PktWrites) == 0 {
				cp.PktWrites = nil
			}
			if len(cp.Constraints) == 0 {
				cp.Constraints = nil
			}
			if len(cp.Events) == 0 {
				cp.Events = nil
			}
			if len(cp.Accesses) == 0 {
				cp.Accesses = nil
			}
			if !reflect.DeepEqual(&cp, rp) {
				t.Fatalf("%s: raw path %d diverged across round trip:\n  orig: %+v\n  dec:  %+v", stage.Prog.Name, i, &cp, rp)
			}
		}
		re, err := core.EncodeArtifact(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", stage.Prog.Name, err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("%s: decode∘encode is not the identity", stage.Prog.Name)
		}
	}
}

// TestCodecRoundTripComposedChain round-trips a composed 4-stage chain
// contract — the deepest artifact shape, with namespaced symbols, merged
// traces, and coalesced guards.
func TestCodecRoundTripComposedChain(t *testing.T) {
	sc := experiments.QuickScale()
	stages, _, err := experiments.ChainStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Generator()
	ct, _, err := core.ComposeManyStats(context.Background(), g, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.EncodeArtifact(&core.Artifact{Contract: ct})
	if err != nil {
		t.Fatalf("encode composed chain: %v", err)
	}
	sameAsOracle(t, "composed chain", &core.Artifact{Contract: ct}, data)
	got, err := core.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode composed chain: %v", err)
	}
	want, _ := json.Marshal(ct)
	have, _ := json.Marshal(got.Contract)
	if !bytes.Equal(want, have) {
		t.Fatalf("composed chain diverges in summary export after round trip")
	}
	re, err := core.EncodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("decode∘encode is not the identity on the composed chain")
	}
}

// composeChain composes the 4-stage chain on a fresh serial generator
// over cache, as a restarted process would.
func composeChain(t testing.TB, stages []core.ChainStage, cache *core.ContractCache) *core.Contract {
	t.Helper()
	g := experiments.QuickScale().Generator()
	g.Parallelism = 1
	g.Cache = cache
	ct, _, err := core.ComposeManyStats(context.Background(), g, stages)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// chainStore composes the 4-stage chain cold over an empty store and
// returns the stages and the populated store: four stage artifacts and
// three fold prefixes, the last of them the 582-path composite with its
// raw paths — the object a warm restart reads.
func chainStore(t testing.TB) ([]core.ChainStage, *store.Store) {
	stages, s, _ := chainStoreCache(t)
	return stages, s
}

// chainStoreCache is chainStore that also returns the cache that wrote
// the store, whose memory tier holds every object's in-memory value.
func chainStoreCache(t testing.TB) ([]core.ChainStage, *store.Store, *core.ContractCache) {
	t.Helper()
	stages, _, err := experiments.ChainStages(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewContractCache()
	cache.AttachDisk(s)
	composeChain(t, stages[:4], cache)
	if ts := cache.TierStats(); ts.DiskErrs != 0 {
		t.Fatalf("populating the store: %d disk errors", ts.DiskErrs)
	}
	return stages[:4], s, cache
}

// TestCodecStoredChainObjects checks every object a composed chain
// leaves in the store, as stored: it decodes to what the oracle decodes
// from the version-2 spelling of the value the cache wrote, and the
// encoder gives the stored bytes back.
func TestCodecStoredChainObjects(t *testing.T) {
	_, s, cache := chainStoreCache(t)
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("store holds %d objects, want 4 stages + 3 fold prefixes", len(entries))
	}
	written := core.MemoryArtifacts(cache)
	composite := false
	for _, e := range entries {
		payload, err := s.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.DecodeArtifact(payload)
		if err != nil {
			t.Fatalf("%.12s: %v", e.Key, err)
		}
		re, err := core.EncodeArtifact(a)
		if err != nil || !bytes.Equal(re, payload) {
			t.Fatalf("%.12s: stored bytes are not their own encoding (%v)", e.Key, err)
		}
		w, ok := written[e.Key]
		if !ok {
			t.Fatalf("%.12s: not in the memory tier that wrote it", e.Key)
		}
		sameAsOracle(t, e.Key[:12], w, payload)
		if len(a.Contract.Paths) != 582 {
			continue
		}
		composite = true
		if len(a.Paths) != 582 {
			t.Fatalf("composite carries %d raw paths", len(a.Paths))
		}
	}
	if !composite {
		t.Fatal("no 582-path composite in the store")
	}
}

// TestWarmRestartCheaperThanCold is the point of the store in one
// comparison: composing the chain on a fresh memory tier over a
// populated store must take fewer allocations and fewer bytes than
// composing it from nothing. (Time says the same but does not repeat on
// a shared machine; go run ./bench measures it.)
func TestWarmRestartCheaperThanCold(t *testing.T) {
	stages, s := chainStore(t)
	measure := func(disk *store.Store) (mallocs, bytes uint64, ct *core.Contract) {
		cache := core.NewContractCache()
		cache.AttachDisk(disk)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ct = composeChain(t, stages, cache)
		runtime.ReadMemStats(&after)
		if ts := cache.TierStats(); disk != nil && (ts.Misses != 0 || ts.DiskHits == 0 || ts.DiskErrs != 0) {
			t.Fatalf("warm compose was not served from the store: %+v", ts)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, ct
	}
	coldN, coldB, cold := measure(nil)
	warmN, warmB, warm := measure(s)
	t.Logf("cold: %d allocations, %d bytes; warm: %d allocations, %d bytes", coldN, coldB, warmN, warmB)
	if warmN >= coldN || warmB >= coldB {
		t.Errorf("a warm restart (%d allocations, %d bytes) is not cheaper than a cold compose (%d, %d)", warmN, warmB, coldN, coldB)
	}
	want, _ := json.Marshal(cold)
	have, _ := json.Marshal(warm)
	if !bytes.Equal(want, have) {
		t.Fatal("warm and cold composites differ")
	}
}

// TestStaleObjectRewritten replaces the composite a warm restart reads
// with an object of a retired codec version — the committed version-2
// golden, stored under the composite's key with a valid checksum, as a
// store written by an older build holds it. The store's framing accepts
// it and the decoder does not. The first compose over it must count one
// disk error, recompute the composite and write it over the stale
// object; the second must be served from disk without an error.
func TestStaleObjectRewritten(t *testing.T) {
	stages, s := chainStore(t)
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for _, e := range entries {
		if e.Meta.Paths == 582 {
			key = e.Key
		}
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "artifact_v2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, v2, store.Meta{Kind: "contract"}); err != nil {
		t.Fatal(err)
	}
	compose := func() core.TierStats {
		cache := core.NewContractCache()
		cache.AttachDisk(s)
		composeChain(t, stages, cache)
		return cache.TierStats()
	}
	if ts := compose(); ts.DiskErrs != 1 || ts.DiskSkips != 0 {
		t.Fatalf("first compose over the stale object: %+v, want 1 disk error and no skipped write", ts)
	}
	payload, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := core.DecodeArtifact(payload); err != nil || a.Key != key || len(a.Contract.Paths) != 582 {
		t.Fatalf("the stale object was not rewritten: %v", err)
	}
	if ts := compose(); ts.DiskErrs != 0 || ts.Misses != 0 || ts.DiskHits != 1 {
		t.Fatalf("second compose: %+v, want one disk hit and no error or miss", ts)
	}
}

// compositePayload returns the stored bytes of the 4-chain's 582-path
// composite, the one object a warm restart decodes (and the largest in
// the store).
func compositePayload(t testing.TB) []byte {
	t.Helper()
	_, s := chainStore(t)
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	largest := entries[0]
	for _, e := range entries {
		if e.Size > largest.Size {
			largest = e
		}
	}
	payload, err := s.Get(largest.Key)
	if err != nil {
		t.Fatal(err)
	}
	if largest.Meta.Paths != 582 {
		t.Fatalf("largest stored object has %d paths, want the 582-path composite", largest.Meta.Paths)
	}
	return payload
}

func BenchmarkDecodeComposite(b *testing.B) {
	payload := compositePayload(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.DecodeArtifact(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmDecodeAllocations pins what decoding the composite a warm
// restart reads costs, in a count that repeats where a time does not.
// Interning and hash-consing took it from 1.39 M allocations to 29 k;
// building each repeated constraint list, domain map, PCV-range map,
// shared-MA polynomial and packet-write map once — a span memo in
// version 2, a table entry in version 3 — takes it to about 11 k, and
// giving each polynomial a slice of one shared term array instead of a
// map of its own to about 3.9 k. The ceiling is that count plus 10 %.
func TestWarmDecodeAllocations(t *testing.T) {
	payload := compositePayload(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.DecodeArtifact(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("composite: %d bytes, %.0f allocations to decode", len(payload), allocs)
	if allocs > 4_300 {
		t.Errorf("decoding the composite takes %.0f allocations, want <= 4300", allocs)
	}
}
