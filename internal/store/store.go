// Package store is gobolt's on-disk content-addressed object store: the
// durable tier behind the in-memory contract cache, and the substrate
// boltctl operates on.
//
// Objects are opaque byte payloads addressed by the same 64-hex-char
// SHA-256 keys core.ContractCache derives (configuration + model
// fingerprints + program text for generated contracts, side keys + a
// compose tag for composed ones), so a store populated by one process is
// a warm cache for every later process with the same inputs.
//
// Layout under the store directory:
//
//	objects/<key[:2]>/<key>   one object per file
//	index.json                rebuildable metadata cache for fast listing
//
// Each object file is a one-line header followed by the payload:
//
//	boltstore1 <sha256(payload) hex> <len(payload)>\n<payload>
//
// The checksum is over the payload alone and is independent of the key,
// so bit rot, truncation, and torn writes are all detected on read
// (ErrCorrupt) without re-deriving what the key hashes.
//
// Durability rules:
//
//   - Writes are atomic: the object is written to a "*.tmp" sibling,
//     synced, then renamed into place. Readers therefore never observe a
//     half-written object — a torn write leaves only a temp file, which
//     Get ignores and GC collects.
//   - The index is a cache, never a source of truth: List consults it
//     only for metadata and always enumerates objects from the
//     filesystem. A missing or stale index costs speed, not correctness.
//   - GC removes temp files, corrupt objects, and index entries whose
//     object is gone; it re-adopts objects the index lost.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// header is the object-file magic; bump it if the framing ever changes.
const header = "boltstore1"

var (
	// ErrNotFound reports a key with no stored object.
	ErrNotFound = errors.New("store: object not found")
	// ErrCorrupt reports an object that exists but fails validation
	// (bad header, checksum mismatch, truncation). Callers treat it as
	// a miss; GC deletes the file.
	ErrCorrupt = errors.New("store: object corrupt")
)

// Meta is caller-supplied metadata indexed alongside an object so
// listings don't have to decode every payload.
type Meta struct {
	// Kind distinguishes payload flavors, e.g. "contract".
	Kind string `json:"kind,omitempty"`
	// NF and Level describe a contract payload.
	NF    string `json:"nf,omitempty"`
	Level string `json:"level,omitempty"`
	// Paths is the contract's path count.
	Paths int `json:"paths,omitempty"`
}

// Entry is one row of a store listing.
type Entry struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
	Meta Meta   `json:"meta"`
}

// GCStats reports what a garbage-collection pass did.
type GCStats struct {
	// Kept is the number of valid objects remaining.
	Kept int
	// TempRemoved counts deleted "*.tmp" leftovers from torn writes.
	TempRemoved int
	// CorruptRemoved counts deleted objects that failed validation.
	CorruptRemoved int
	// IndexDropped counts index entries whose object was gone.
	IndexDropped int
	// IndexAdopted counts objects the index had lost and re-learned.
	IndexAdopted int
}

// Store is an on-disk content-addressed object store. It is safe for
// concurrent use within a process; cross-process writers are safe with
// respect to object files (atomic rename) while the index converges on
// the next GC or Put.
type Store struct {
	dir string

	mu  sync.Mutex
	idx map[string]Entry
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, idx: make(map[string]Entry)}
	s.loadIndex()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a well-formed object key: exactly the
// lowercase 64-hex-char SHA-256 spelling the contract cache derives.
// Everything else is rejected up front — which doubles as the path
// traversal guard, since a valid key cannot name a path component.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key)
}

// Put atomically stores payload under key, replacing any existing
// object, and records meta in the index.
func (s *Store) Put(key string, payload []byte, meta Meta) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(header)+80+len(payload))
	buf = append(buf, header...)
	buf = append(buf, ' ')
	buf = append(buf, hex.EncodeToString(sum[:])...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(payload)), 10)
	buf = append(buf, '\n')
	buf = append(buf, payload...)

	// Temp-then-rename: a crash at any point leaves either the old
	// object or a *.tmp sibling, never a half-written object.
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	s.idx[key] = Entry{Key: key, Size: int64(len(payload)), Meta: meta}
	err = s.saveIndexLocked()
	s.mu.Unlock()
	return err
}

// Get returns the payload stored under key. It returns ErrNotFound for
// absent keys and ErrCorrupt for objects that fail validation.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	data, err := os.ReadFile(s.objectPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return parseObject(data)
}

// parseObject validates an object file's framing and checksum and
// returns the payload.
func parseObject(data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
		if i > len(header)+96 {
			break // header line implausibly long: corrupt
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != header {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	wantLen, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("%w: bad length", ErrCorrupt)
	}
	payload := data[nl+1:]
	if int64(len(payload)) != wantLen {
		return nil, fmt.Errorf("%w: truncated (%d of %d payload bytes)", ErrCorrupt, len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Has reports whether key resolves to a valid object.
func (s *Store) Has(key string) bool {
	_, err := s.Get(key)
	return err == nil
}

// Delete removes the object stored under key (no error if absent).
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := os.Remove(s.objectPath(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[key]; ok {
		delete(s.idx, key)
		return s.saveIndexLocked()
	}
	return nil
}

// List enumerates valid objects, sorted by key. The filesystem is the
// source of truth; the index only decorates entries with metadata.
func (s *Store) List() ([]Entry, error) {
	keys, _, err := s.scanObjects()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(keys))
	for _, key := range keys {
		if e, ok := s.idx[key]; ok {
			out = append(out, e)
			continue
		}
		payload, err := s.Get(key)
		if err != nil {
			continue // corrupt: skipped here, removed by GC
		}
		out = append(out, Entry{Key: key, Size: int64(len(payload))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Keys returns the sorted keys of all (possibly invalid) stored objects.
func (s *Store) Keys() ([]string, error) {
	keys, _, err := s.scanObjects()
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Temps returns the sorted paths, relative to the store directory, of
// the files under objects/ that are not objects: what a torn write
// leaves behind. No read path serves them and GC removes them.
func (s *Store) Temps() ([]string, error) {
	_, temps, err := s.scanObjects()
	if err != nil {
		return nil, err
	}
	for i, tmp := range temps {
		if rel, err := filepath.Rel(s.dir, tmp); err == nil {
			temps[i] = rel
		}
	}
	sort.Strings(temps)
	return temps, nil
}

// Resolve expands a key prefix to the full stored key. A 64-hex-char
// prefix is returned as-is (it is already a full key); anything shorter
// must match exactly one stored object's key or Resolve errors
// (including on an empty store — ambiguity and absence are both
// reported, never guessed).
func (s *Store) Resolve(prefix string) (string, error) {
	if len(prefix) == 64 {
		return prefix, nil
	}
	keys, err := s.Keys()
	if err != nil {
		return "", err
	}
	var matches []string
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) {
			matches = append(matches, k)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("no stored contract matches %q", prefix)
	case 1:
		return matches[0], nil
	default:
		return "", fmt.Errorf("%q is ambiguous: matches %d stored contracts", prefix, len(matches))
	}
}

// scanObjects walks objects/, returning object keys and temp-file paths.
func (s *Store) scanObjects() (keys []string, temps []string, err error) {
	root := filepath.Join(s.dir, "objects")
	shards, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, shard.Name()))
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			name := f.Name()
			if validKey(name) && name[:2] == shard.Name() {
				keys = append(keys, name)
			} else {
				temps = append(temps, filepath.Join(root, shard.Name(), name))
			}
		}
	}
	return keys, temps, nil
}

// GC removes temp files and corrupt objects, reconciles the index with
// the filesystem, and reports what it did.
func (s *Store) GC() (GCStats, error) {
	var st GCStats
	keys, temps, err := s.scanObjects()
	if err != nil {
		return st, err
	}
	for _, tmp := range temps {
		if err := os.Remove(tmp); err == nil {
			st.TempRemoved++
		}
	}
	// Torn index writes leave index.json.tmp* in the root; collect them too.
	if rootFiles, err := os.ReadDir(s.dir); err == nil {
		for _, f := range rootFiles {
			if !f.IsDir() && strings.HasPrefix(f.Name(), "index.json.tmp") {
				if os.Remove(filepath.Join(s.dir, f.Name())) == nil {
					st.TempRemoved++
				}
			}
		}
	}
	valid := make(map[string]int64, len(keys))
	for _, key := range keys {
		payload, err := s.Get(key)
		if errors.Is(err, ErrCorrupt) {
			if rmErr := os.Remove(s.objectPath(key)); rmErr == nil {
				st.CorruptRemoved++
			}
			continue
		}
		if err != nil {
			return st, err
		}
		valid[key] = int64(len(payload))
	}
	st.Kept = len(valid)

	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.idx {
		if _, ok := valid[key]; !ok {
			delete(s.idx, key)
			st.IndexDropped++
		}
	}
	for key, size := range valid {
		if _, ok := s.idx[key]; !ok {
			s.idx[key] = Entry{Key: key, Size: size}
			st.IndexAdopted++
		}
	}
	return st, s.saveIndexLocked()
}

// --- index ----------------------------------------------------------

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// loadIndex reads index.json; any failure just leaves the index empty
// (it is a cache — List and GC rebuild it from the filesystem).
func (s *Store) loadIndex() {
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		return
	}
	var entries []Entry
	if json.Unmarshal(data, &entries) != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if validKey(e.Key) {
			s.idx[e.Key] = e
		}
	}
}

// saveIndexLocked writes index.json atomically; s.mu must be held.
func (s *Store) saveIndexLocked() error {
	entries := make([]Entry, 0, len(s.idx))
	for _, e := range s.idx {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "index.json.tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, s.indexPath()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
