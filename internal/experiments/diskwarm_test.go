package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/store"
)

// diskScale returns a QuickScale wired to a fresh disk-backed cache over
// dir — the in-test stand-in for one process run with -store dir.
func diskScale(t *testing.T, dir string) (Scale, *core.ContractCache) {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewContractCache()
	c.AttachDisk(s)
	sc := QuickScale()
	sc.Cache = c
	return sc, c
}

// TestFigure1WarmFromDisk pins cross-process warmth for the paper's full
// evaluation set: after one run populates a store, a second run with a
// fresh memory cache (as a new process would have) builds all fourteen
// Figure-1 scenario contracts from disk alone — zero pipeline runs.
func TestFigure1WarmFromDisk(t *testing.T) {
	dir := t.TempDir()

	cold, coldCache := diskScale(t, dir)
	if _, err := Scenarios(cold); err != nil {
		t.Fatal(err)
	}
	cts := coldCache.TierStats()
	if cts.Misses == 0 {
		t.Fatalf("cold run reported no misses: %+v", cts)
	}
	if cts.DiskHits != 0 {
		t.Fatalf("cold run over an empty store hit disk: %+v", cts)
	}

	warm, warmCache := diskScale(t, dir)
	scens, err := Scenarios(warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 14 {
		t.Fatalf("expected 14 scenarios, got %d", len(scens))
	}
	wts := warmCache.TierStats()
	if wts.Misses != 0 {
		t.Fatalf("warm-from-disk run still ran the pipeline %d times: %+v", wts.Misses, wts)
	}
	if wts.DiskHits == 0 {
		t.Fatalf("warm run never touched the disk tier: %+v", wts)
	}
	if wts.DiskErrs != 0 {
		t.Fatalf("warm run hit disk errors: %+v", wts)
	}
}

// TestChainFoldPrefixesWarmFromDisk pins that composed fold prefixes
// survive a restart too: a fresh cache over a store populated by a
// 4-stage chain composition re-composes the same chain with every fold
// served from disk, byte-identical to the cold composite, and extends to
// a 5th stage paying only the new fold; the coalesced composite restarts
// byte-identical too.
func TestChainFoldPrefixesWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	cold, _ := diskScale(t, dir)
	stages, _, err := ChainStages(cold)
	if err != nil {
		t.Fatal(err)
	}
	coldCt, coldStats, err := core.ComposeManyStats(ctx, cold.Generator(), stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range coldStats {
		if fs.Cached {
			t.Fatalf("cold compose reported fold %d cached", fs.Fold)
		}
	}

	// Restart: fresh memory, same store. Every fold of the re-composed
	// chain must come back cached, with zero pipeline misses.
	warm, warmCache := diskScale(t, dir)
	warmStages, _, err := ChainStages(warm)
	if err != nil {
		t.Fatal(err)
	}
	warmCt, warmStats, err := core.ComposeManyStats(ctx, warm.Generator(), warmStages[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range warmStats {
		if !fs.Cached {
			t.Fatalf("warm compose re-joined fold %d instead of loading it", fs.Fold)
		}
	}
	ts := warmCache.TierStats()
	if ts.Misses != 0 {
		t.Fatalf("warm compose ran the pipeline: %+v", ts)
	}
	if ts.DiskHits == 0 {
		t.Fatalf("warm compose never read the store: %+v", ts)
	}
	if len(warmCt.Paths) != len(coldCt.Paths) {
		t.Fatalf("warm chain has %d paths, cold had %d", len(warmCt.Paths), len(coldCt.Paths))
	}
	coldJS, _ := json.Marshal(coldCt)
	if warmJS, _ := json.Marshal(warmCt); string(warmJS) != string(coldJS) {
		t.Fatal("warm chain decoded from the store differs from the cold composite")
	}

	// Extending the chain pays only the new fold: folds 1–3 cached,
	// fold 4 joined fresh.
	ext, _ := diskScale(t, dir)
	extStages, _, err := ChainStages(ext)
	if err != nil {
		t.Fatal(err)
	}
	_, extStats, err := core.ComposeManyStats(ctx, ext.Generator(), extStages[:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range extStats[:3] {
		if !fs.Cached {
			t.Fatalf("extension re-joined prefix fold %d", fs.Fold)
		}
	}
	if extStats[3].Cached {
		t.Fatalf("extension fold 4 claimed cached on first composition")
	}

	// The deep-chain configuration (coalescing on) keys its composites
	// apart; they too must restart from the store byte-identical.
	coalDir := t.TempDir()
	coalesced := func() (*core.Contract, core.TierStats) {
		sc, cache := diskScale(t, coalDir)
		g := sc.Generator()
		g.Coalesce = true
		ct, err := core.ComposeMany(g, stages[:4])
		if err != nil {
			t.Fatal(err)
		}
		return ct, cache.TierStats()
	}
	coldCoal, _ := coalesced()
	warmCoal, ts := coalesced()
	if ts.Misses != 0 || ts.DiskHits == 0 {
		t.Fatalf("coalesced warm compose was not served from the store: %+v", ts)
	}
	coldCoalJS, _ := json.Marshal(coldCoal)
	if warmCoalJS, _ := json.Marshal(warmCoal); string(warmCoalJS) != string(coldCoalJS) {
		t.Fatal("coalesced chain decoded from the store differs from the cold composite")
	}
}
