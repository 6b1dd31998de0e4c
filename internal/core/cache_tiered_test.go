package core

import (
	"os"
	"path/filepath"
	"testing"

	"gobolt/internal/store"
)

func tieredKey(t *testing.T) string {
	t.Helper()
	a := richArtifact()
	return a.Key
}

// TestTieredCacheCrossProcess simulates a restart: one cache populates a
// store, a second cache over the same directory (fresh memory, as a new
// process would have) serves the entry from disk without a miss.
func TestTieredCacheCrossProcess(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := richArtifact()

	warm := NewContractCache()
	warm.AttachDisk(s1)
	warm.store(a.Key, a.Contract, a.Paths)

	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewContractCache()
	cold.AttachDisk(s2)
	ct, paths, ok := cold.lookup(a.Key)
	if !ok {
		t.Fatalf("fresh cache over a warm store missed")
	}
	if ct.NF != a.Contract.NF || len(paths) != len(a.Paths) {
		t.Fatalf("disk hit returned wrong entry: %s / %d paths", ct.NF, len(paths))
	}
	ts := cold.TierStats()
	if ts.DiskHits != 1 || ts.Misses != 0 || ts.MemHits != 0 {
		t.Fatalf("tier stats after disk hit: %+v", ts)
	}
	// The hit was promoted: a second lookup is a memory hit.
	if _, _, ok := cold.lookup(a.Key); !ok {
		t.Fatalf("promoted entry missed")
	}
	ts = cold.TierStats()
	if ts.MemHits != 1 || ts.DiskHits != 1 || ts.Misses != 0 || ts.Entries != 1 {
		t.Fatalf("tier stats after promotion: %+v", ts)
	}
}

// TestTieredCacheWriteThroughOnce pins the dedup: storing a key whose
// object already exists skips the disk write.
func TestTieredCacheWriteThroughOnce(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := richArtifact()
	c := NewContractCache()
	c.AttachDisk(s)
	c.store(a.Key, a.Contract, a.Paths)
	c.store(a.Key, a.Contract, a.Paths)
	ts := c.TierStats()
	if ts.DiskSkips != 1 || ts.DiskErrs != 0 {
		t.Fatalf("tier stats after double store: %+v", ts)
	}
	entries, err := s.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("store listing: %v, %v", entries, err)
	}
	if entries[0].Meta.NF != a.Contract.NF || entries[0].Meta.Kind != "contract" {
		t.Fatalf("write-through metadata: %+v", entries[0].Meta)
	}
}

// TestTieredCacheCorruptObjectIsAMiss pins that a torn or rotted object
// is never served: the lookup falls through to a miss and the error is
// counted, not surfaced.
func TestTieredCacheCorruptObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := richArtifact()
	warm := NewContractCache()
	warm.AttachDisk(s)
	warm.store(a.Key, a.Contract, a.Paths)

	// Rot the object behind the cache's back.
	path := filepath.Join(dir, "objects", a.Key[:2], a.Key)
	if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewContractCache()
	cold.AttachDisk(s)
	if _, _, ok := cold.lookup(a.Key); ok {
		t.Fatalf("corrupt object served from disk")
	}
	ts := cold.TierStats()
	if ts.Misses != 1 || ts.DiskErrs != 1 || ts.DiskHits != 0 {
		t.Fatalf("tier stats after corrupt lookup: %+v", ts)
	}
}

// TestTieredCacheMislabeledArtifact pins the self-check: an artifact
// stored under a key other than the one inside it is refused (it would
// otherwise alias a different generation).
func TestTieredCacheMislabeledArtifact(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := richArtifact()
	payload, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	wrong := tieredKey(t)[:63] + "0"
	if wrong == a.Key {
		wrong = a.Key[:63] + "1"
	}
	if err := s.Put(wrong, payload, store.Meta{}); err != nil {
		t.Fatal(err)
	}
	c := NewContractCache()
	c.AttachDisk(s)
	if _, _, ok := c.lookup(wrong); ok {
		t.Fatalf("mislabeled artifact served")
	}
	if ts := c.TierStats(); ts.DiskErrs != 1 {
		t.Fatalf("tier stats after mislabeled lookup: %+v", ts)
	}
}

// TestMemoryOnlyCacheUnchanged pins that without AttachDisk the cache
// behaves exactly as before the tiering refactor.
func TestMemoryOnlyCacheUnchanged(t *testing.T) {
	a := richArtifact()
	c := NewContractCache()
	if _, _, ok := c.lookup(a.Key); ok {
		t.Fatalf("empty cache hit")
	}
	c.store(a.Key, a.Contract, a.Paths)
	ct, _, ok := c.lookup(a.Key)
	if !ok || ct != a.Contract {
		t.Fatalf("memory tier did not return the shared pointer")
	}
	if ts := c.TierStats(); ts != (TierStats{MemHits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("memory-only cache stats = %+v, want 1 mem hit, 1 miss, 1 entry and no disk traffic", ts)
	}
}
