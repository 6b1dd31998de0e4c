package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gobolt/internal/nfir"
	"gobolt/internal/store"
)

// ContractCache is a content-addressed cache of generated contracts,
// keyed by a hash of (program text, model fingerprints, Generator
// configuration). The evaluation harness regenerates the same NF
// contracts many times across experiments — figure1 alone builds the
// same NAT four times — and a warm cache turns every repeat into a map
// lookup.
//
// The cache is tiered. The memory tier is always present; AttachDisk
// adds an on-disk tier (internal/store) behind it, making warmth survive
// the process: a lookup that misses memory tries the disk, decodes the
// stored artifact, and promotes it; a store writes through to disk. The
// same lookup/store seam serves the Generator and chain composition's
// fold-prefix reuse, so both fall back to disk transparently. Disk
// failures (absent, corrupt, undecodable) are never fatal — they count
// in TierStats and the pipeline simply reruns.
//
// Soundness rests on two conditions:
//
//   - Programs render deterministically (nfir.Program.String) and every
//     model in the set implements nfir.Fingerprinter, covering exactly
//     the configuration its Outcomes depends on. If any model does not,
//     the generation is simply uncacheable and runs the full pipeline.
//   - Cached contracts and paths are returned shared, so callers must
//     treat them as immutable. Everything in this repository already
//     does: composition copies path contracts before rewriting them, and
//     the experiment harnesses only read. Disk-loaded entries need it as
//     much: within one decoded artifact, paths that name the same table
//     entry share one Constraints slice or Domains, PCVRanges or
//     PktWrites map, and a contract path shares its constraints and
//     domains with its raw path (see DecodeArtifact), so writing into one
//     path's map would change its siblings.
//
// A ContractCache is safe for concurrent use.
type ContractCache struct {
	mu     sync.Mutex
	byKey  map[string]cacheEntry
	hits   uint64
	misses uint64

	// disk is the optional second tier; nil means memory-only. Disk I/O
	// happens outside mu so slow filesystems never serialize generation.
	disk      *store.Store
	diskHits  uint64 // lookups served by decoding a stored artifact
	diskErrs  uint64 // disk reads/writes/decodes that failed (non-fatal)
	diskSkips uint64 // write-throughs skipped because the object existed
	// stale holds the keys whose stored object passed the store's
	// checksum but did not decode to an artifact under that key — an
	// older codec version, or a copy under the wrong key. Their next
	// write-through overwrites the object instead of skipping it.
	stale map[string]bool
}

type cacheEntry struct {
	ct    *Contract
	paths []*nfir.Path
}

// NewContractCache returns an empty cache.
func NewContractCache() *ContractCache {
	return &ContractCache{byKey: make(map[string]cacheEntry)}
}

// sharedCache is the process-wide cache behind SharedCache.
var sharedCache = NewContractCache()

// SharedCache returns the process-wide contract cache. Distinct
// Generators configured identically share hits through it, which is what
// lets cmd/boltbench's experiments reuse each other's contracts.
func SharedCache() *ContractCache { return sharedCache }

// AttachDisk adds (or, with nil, removes) an on-disk tier behind the
// memory tier. Existing entries stay; subsequent lookups fall back to s
// and subsequent stores write through to it.
func (c *ContractCache) AttachDisk(s *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = s
}

// Disk returns the attached on-disk tier, or nil.
func (c *ContractCache) Disk() *store.Store {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// TierStats breaks cache traffic down by tier.
type TierStats struct {
	// MemHits are lookups served from the memory map.
	MemHits uint64
	// DiskHits are lookups that missed memory but decoded a stored
	// artifact (and were promoted to memory).
	DiskHits uint64
	// Misses are lookups both tiers missed: the pipeline ran.
	Misses uint64
	// DiskErrs counts non-fatal disk-tier failures (corrupt objects,
	// undecodable artifacts, failed write-throughs).
	DiskErrs uint64
	// DiskSkips counts write-throughs skipped because the object was
	// already stored.
	DiskSkips uint64
	// Entries is the resident memory-tier entry count.
	Entries int
}

// TierStats reports per-tier cache traffic.
func (c *ContractCache) TierStats() TierStats {
	if c == nil {
		return TierStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return TierStats{
		MemHits:   c.hits,
		DiskHits:  c.diskHits,
		Misses:    c.misses,
		DiskErrs:  c.diskErrs,
		DiskSkips: c.diskSkips,
		Entries:   len(c.byKey),
	}
}

// Reset drops every memory entry and zeroes the counters. An attached
// disk tier stays attached and keeps its objects.
func (c *ContractCache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byKey = make(map[string]cacheEntry)
	c.hits, c.misses = 0, 0
	c.diskHits, c.diskErrs, c.diskSkips = 0, 0, 0
}

func (c *ContractCache) lookup(key string) (*Contract, []*nfir.Path, bool) {
	c.mu.Lock()
	e, ok := c.byKey[key]
	if ok {
		c.hits++
		c.mu.Unlock()
		return e.ct, e.paths, true
	}
	disk := c.disk
	if c.stale[key] {
		disk = nil // already failed to decode: read it again only once rewritten
	}
	c.mu.Unlock()

	if disk != nil {
		if ct, paths, ok := c.diskLookup(disk, key); ok {
			return ct, paths, true
		}
	}

	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, nil, false
}

// diskLookup tries the disk tier and promotes a decoded artifact into
// the memory tier. Every failure mode is a plain miss.
func (c *ContractCache) diskLookup(disk *store.Store, key string) (*Contract, []*nfir.Path, bool) {
	payload, err := disk.Get(key)
	if err != nil {
		if err != store.ErrNotFound {
			c.mu.Lock()
			c.diskErrs++
			c.mu.Unlock()
		}
		return nil, nil, false
	}
	a, err := DecodeArtifact(payload)
	if err != nil || a.Key != key {
		// Undecodable or mislabeled artifact: a stale schema or a copy
		// under the wrong key. Either way the pipeline reruns, and its
		// write-through replaces the object.
		c.mu.Lock()
		c.diskErrs++
		if c.stale == nil {
			c.stale = make(map[string]bool)
		}
		c.stale[key] = true
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Lock()
	c.diskHits++
	c.byKey[key] = cacheEntry{ct: a.Contract, paths: a.Paths}
	c.mu.Unlock()
	return a.Contract, a.Paths, true
}

func (c *ContractCache) store(key string, ct *Contract, paths []*nfir.Path) {
	c.mu.Lock()
	c.byKey[key] = cacheEntry{ct: ct, paths: paths}
	disk, stale := c.disk, c.stale[key]
	c.mu.Unlock()

	if disk == nil {
		return
	}
	if !stale && disk.Has(key) {
		// Content-addressed: an existing object is byte-equivalent, so
		// rewriting it would only churn the disk. An object this cache
		// failed to decode is not, and Has cannot tell: it checks the
		// framing only.
		c.mu.Lock()
		c.diskSkips++
		c.mu.Unlock()
		return
	}
	payload, err := EncodeArtifact(&Artifact{Key: key, Contract: ct, Paths: paths})
	if err == nil {
		err = disk.Put(key, payload, store.Meta{
			Kind:  "contract",
			NF:    ct.NF,
			Level: ct.Level,
			Paths: len(ct.Paths),
		})
	}
	c.mu.Lock()
	if err != nil {
		c.diskErrs++
	} else {
		delete(c.stale, key)
	}
	c.mu.Unlock()
}

// CacheKey reports the content address this generator caches (and a
// disk store persists) a generation under, or ok=false when the triple
// is uncacheable. Tools use it to label exported artifacts and to
// address stored contracts.
func (g *Generator) CacheKey(prog *nfir.Program, models map[string]nfir.Model) (string, bool) {
	return g.cacheKey(prog, models)
}

// cacheKey derives the content address for one generation, or reports
// the triple uncacheable: no cache attached, or some model does not
// fingerprint itself.
func (g *Generator) cacheKey(prog *nfir.Program, models map[string]nfir.Model) (string, bool) {
	if g.Cache == nil {
		return "", false
	}
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	// schema=2: PR 9 added the sharability annotations (CallEvent.Args/
	// Sharing, PathContract.SharedMA); bumping the tag fences off cached
	// paths generated before the analysis existed, so every cache hit
	// carries shard verdicts. Everything after padMA is literal text: it
	// names generator options that no longer exist (the path cap, the
	// solver budgets, replay skipping, the reference solver) at the
	// values every generation used, and keeping them in the line keeps
	// every key — and with it every store written by an earlier build —
	// unchanged (TestCacheKeyGolden).
	fmt.Fprintf(&b, "config schema=2 level=%d padIC=%d padMA=%d maxPaths=0 skipReplay=false solverNodes=0 solverSamples=0 feasNodes=0 feasSamples=0 noInc=false\n",
		g.Level, g.CallPadIC, g.CallPadMA)
	for _, n := range names {
		fp, ok := models[n].(nfir.Fingerprinter)
		if !ok {
			return "", false
		}
		fmt.Fprintf(&b, "model %s %s\n", n, fp.ModelFingerprint())
	}
	b.WriteString("program\n")
	b.WriteString(prog.String())

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), true
}

// composedKey content-addresses the composition a→b from the two sides'
// keys. A composite contract is a pure function of the two stages'
// contracts (the join solver's budget is fixed): the stage keys already
// encode program, models, analysis level and padding, so hashing the
// pair addresses the whole fold prefix — which is what makes
// re-composing a warm chain one map lookup per step. Parallelism is
// deliberately absent, as in cacheKey: it cannot change the output.
// Coalesce CAN — it merges composite paths — so the recipe tag is
// versioned by it and coalesced and uncoalesced composites never alias.
// An uncacheable side ("") or a missing cache makes the composite
// uncacheable too, reported as "".
func (g *Generator) composedKey(aKey, bKey string) string {
	if g.Cache == nil || aKey == "" || bKey == "" {
		return ""
	}
	tag := "compose"
	if g.Coalesce {
		tag = "compose+coalesce"
	}
	sum := sha256.Sum256([]byte(tag + "\n" + aKey + "\n" + bKey))
	return hex.EncodeToString(sum[:])
}
