package core

import (
	"encoding/json"
	"testing"

	"gobolt/internal/nf"
	"gobolt/internal/nfir"
)

func TestCacheHitReturnsIdenticalContract(t *testing.T) {
	cache := NewContractCache()
	gen := func() *Contract {
		ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
		g := NewGenerator()
		g.Cache = cache
		ct, err := g.Generate(ex.Prog, ex.Models)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	first := gen()
	second := gen()
	if first != second {
		t.Error("second generation should return the cached *Contract")
	}
	if ts := cache.TierStats(); ts != (TierStats{MemHits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats = %+v; want 1 mem hit, 1 miss, 1 entry", ts)
	}
}

func TestCacheKeySensitiveToConfig(t *testing.T) {
	cache := NewContractCache()
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	padded := NewGenerator()
	padded.Cache = cache
	bare := &Generator{Cache: cache}
	a, err := padded.Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bare.Generate(ex.Prog, ex.Models)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different padding config must not share a cache entry")
	}
	aJS, _ := json.Marshal(a)
	bJS, _ := json.Marshal(b)
	if string(aJS) == string(bJS) {
		t.Error("padded and unpadded contracts should differ")
	}
	if entries := cache.TierStats().Entries; entries != 2 {
		t.Errorf("entries = %d, want 2", entries)
	}
}

// noFP hides the underlying model's ModelFingerprint: only the Model
// interface's methods are promoted through the embedded interface value.
type noFP struct{ nfir.Model }

func TestCacheSkipsNonFingerprintingModels(t *testing.T) {
	cache := NewContractCache()
	gen := func() *Contract {
		ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
		models := make(map[string]nfir.Model, len(ex.Models))
		for n, m := range ex.Models {
			models[n] = noFP{m}
		}
		g := NewGenerator()
		g.Cache = cache
		ct, err := g.Generate(ex.Prog, models)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	if gen() == gen() {
		t.Error("uncacheable generation should run the pipeline each time")
	}
	if ts := cache.TierStats(); ts != (TierStats{}) {
		t.Errorf("uncacheable runs should not touch the cache, got %+v", ts)
	}
}

func TestCacheReset(t *testing.T) {
	cache := NewContractCache()
	ex := nf.NewExampleLPM(nf.ExampleLPMConfig{Ports: 4})
	g := NewGenerator()
	g.Cache = cache
	if _, err := g.Generate(ex.Prog, ex.Models); err != nil {
		t.Fatal(err)
	}
	cache.Reset()
	if ts := cache.TierStats(); ts != (TierStats{}) {
		t.Errorf("after Reset stats = %+v, want zeros", ts)
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *ContractCache
	if ts := c.TierStats(); ts != (TierStats{}) {
		t.Error("nil cache stats should be zero")
	}
	c.Reset() // must not panic
}

// The cache keys of a default generator are pinned as literals: a store
// written by an earlier build is addressed by them, so a key that moves
// without a deliberate schema bump turns every stored contract into a
// silent miss. One roster NF's generation key, and the key its 2-stage
// chain's composite is stored under (checked to be the one the fold
// really stores).
func TestCacheKeyGolden(t *testing.T) {
	const (
		wantNAT  = "0820ed9068a162116127df6f689d0bed0f58fa4df0e06317d61fc7562d1c765b"
		wantFold = "858f4597b229f051dbf70f757294c753bd711cc5479cc505e854aae404b5882b"
	)
	g := NewGenerator()
	g.Parallelism = 1
	g.Cache = NewContractCache()
	nat := nf.NewNAT(nf.NATConfig{ExternalIP: 0xC0A80001, Capacity: 512, TimeoutNS: 3_600_000_000_000, GranularityNS: 1_000_000})
	if key, ok := g.CacheKey(nat.Prog, nat.Models); !ok || key != wantNAT {
		t.Errorf("NAT cache key = %q (ok=%v), want %q", key, ok, wantNAT)
	}

	chain := buildChain4()[:2]
	fwKey, _ := g.cacheKey(chain[0].Prog, chain[0].Models)
	natKey, _ := g.cacheKey(chain[1].Prog, chain[1].Models)
	fold := g.composedKey(fwKey, natKey)
	if fold != wantFold {
		t.Errorf("firewall→NAT composed key = %q, want %q", fold, wantFold)
	}
	ct, err := ComposeMany(g, chain)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := g.Cache.lookup(fold); !ok || got != ct {
		t.Error("the composite is not cached under the composed key")
	}
}
