package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("a")
	payload := []byte(`{"format":"gobolt-contract","version":1}`)
	if err := s.Put(key, payload, Meta{Kind: "contract", NF: "nat", Level: "full", Paths: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q != %q", got, payload)
	}
	if !s.Has(key) {
		t.Fatalf("Has(%s) = false after Put", key)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != key || entries[0].Meta.NF != "nat" || entries[0].Size != int64(len(payload)) {
		t.Fatalf("unexpected listing: %+v", entries)
	}
}

func TestGetMissing(t *testing.T) {
	s, _ := Open(t.TempDir())
	if _, err := s.Get(testKey("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, key := range []string{
		"",
		"short",
		strings.Repeat("g", 64), // non-hex
		strings.Repeat("A", 64), // uppercase
		"../../../../etc/passwd" + testKey("x")[23:], // traversal attempt
	} {
		if err := s.Put(key, []byte("x"), Meta{}); err == nil {
			t.Errorf("Put accepted invalid key %q", key)
		}
		if _, err := s.Get(key); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Get of invalid key %q did not report invalidity: %v", key, err)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := testKey("corrupt-me")
	if err := s.Put(key, []byte("important contract bytes"), Meta{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", key[:2], key)

	// Flip a payload byte.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: want ErrCorrupt, got %v", err)
	}

	// Truncate mid-payload.
	s.Put(key, []byte("important contract bytes"), Meta{})
	data, _ = os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-5], 0o644)
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: want ErrCorrupt, got %v", err)
	}

	// Garbage header.
	os.WriteFile(path, []byte("not an object at all"), 0o644)
	if _, err := s.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad header: want ErrCorrupt, got %v", err)
	}
	if s.Has(key) {
		t.Fatalf("Has reports a corrupt object as present")
	}
}

// TestTornWriteNeverServed simulates a crash mid-write (before the
// rename): the temp file must be invisible to Get and collected by GC.
func TestTornWriteNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	good := testKey("good")
	if err := s.Put(good, []byte("whole"), Meta{}); err != nil {
		t.Fatal(err)
	}
	// A torn write: half an object under the key's shard, still .tmp.
	torn := testKey("torn")
	shard := filepath.Join(dir, "objects", torn[:2])
	os.MkdirAll(shard, 0o755)
	tornPath := filepath.Join(shard, torn+".tmp1234")
	os.WriteFile(tornPath, []byte(header+" deadbeef 999\n{\"trunca"), 0o644)

	if _, err := s.Get(torn); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn write visible to Get: %v", err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != good {
		t.Fatalf("torn write visible in Keys: %v", keys)
	}

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.TempRemoved != 1 || st.Kept != 1 {
		t.Fatalf("GC stats %+v, want 1 temp removed / 1 kept", st)
	}
	if _, err := os.Stat(tornPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left the torn temp file behind")
	}
	if !s.Has(good) {
		t.Fatalf("GC removed a valid object")
	}
}

func TestGCRemovesCorruptAndRepairsIndex(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	keep, rot, lost := testKey("keep"), testKey("rot"), testKey("lost")
	for _, k := range []string{keep, rot, lost} {
		if err := s.Put(k, []byte("payload-"+k[:8]), Meta{Kind: "contract"}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one object behind the store's back.
	rotPath := filepath.Join(dir, "objects", rot[:2], rot)
	os.WriteFile(rotPath, []byte("rotten"), 0o644)
	// Delete another's object file, leaving a stale index row.
	os.Remove(filepath.Join(dir, "objects", lost[:2], lost))
	// And drop a third from the index to test adoption.
	s.mu.Lock()
	delete(s.idx, keep)
	s.mu.Unlock()

	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.CorruptRemoved != 1 || st.Kept != 1 || st.IndexDropped < 1 || st.IndexAdopted != 1 {
		t.Fatalf("GC stats %+v", st)
	}
	if _, err := os.Stat(rotPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt object survived GC")
	}
	entries, _ := s.List()
	if len(entries) != 1 || entries[0].Key != keep {
		t.Fatalf("listing after GC: %+v", entries)
	}
}

// TestIndexIsOnlyACache deletes index.json entirely; every read path
// must keep working from the filesystem alone.
func TestIndexIsOnlyACache(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := testKey("indexless")
	s.Put(key, []byte("data"), Meta{NF: "bridge"})
	os.Remove(filepath.Join(dir, "index.json"))

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.Get(key); err != nil || string(got) != "data" {
		t.Fatalf("Get without index: %q, %v", got, err)
	}
	entries, err := reopened.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("List without index: %+v, %v", entries, err)
	}
	// Metadata is gone (it lived only in the index) but the object row
	// must still appear.
	if entries[0].Key != key || entries[0].Size != 4 {
		t.Fatalf("indexless listing row: %+v", entries[0])
	}
}

func TestDeleteAndOverwrite(t *testing.T) {
	s, _ := Open(t.TempDir())
	key := testKey("rewrite")
	s.Put(key, []byte("v1"), Meta{Paths: 1})
	if err := s.Put(key, []byte("v2-longer"), Meta{Paths: 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(key)
	if string(got) != "v2-longer" {
		t.Fatalf("overwrite not visible: %q", got)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatalf("Delete of absent key should be a no-op: %v", err)
	}
}

func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	key := testKey("shared")
	if err := a.Put(key, []byte("published"), Meta{NF: "lb"}); err != nil {
		t.Fatal(err)
	}
	// A second Store over the same directory (a later process) sees it.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(key)
	if err != nil || string(got) != "published" {
		t.Fatalf("second open: %q, %v", got, err)
	}
	entries, _ := b.List()
	if len(entries) != 1 || entries[0].Meta.NF != "lb" {
		t.Fatalf("second open listing lost metadata: %+v", entries)
	}
}
