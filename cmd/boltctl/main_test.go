package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

// asCommand, as the test binary's first argument, makes the binary run
// boltctl's main on the arguments after it instead of the tests, so a
// test can check a real exit status and stderr.
const asCommand = "boltctl-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// boltctl runs the command with args and returns its stdout, its stderr
// and its exit status.
func boltctl(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{asCommand}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// populate generates one Figure-1-sized scenario set into a store and
// returns the store dir with the stored keys.
func populate(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewContractCache()
	c.AttachDisk(s)
	sc := experiments.QuickScale()
	sc.Cache = c
	if _, err := experiments.Scenarios(sc); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("scenario generation stored nothing")
	}
	return dir, keys
}

func runCtl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestListInspect(t *testing.T) {
	dir, keys := populate(t)
	out, err := runCtl(t, "-store", dir, "list")
	if err != nil {
		t.Fatalf("list: %v\n%s", err, out)
	}
	if !strings.Contains(out, keys[0][:12]) {
		t.Fatalf("list omits stored key %s:\n%s", keys[0][:12], out)
	}
	if !strings.Contains(out, "nat") || !strings.Contains(out, "bridge") {
		t.Fatalf("list lacks NF metadata:\n%s", out)
	}

	out, err = runCtl(t, "-store", dir, "inspect", keys[0][:10])
	if err != nil {
		t.Fatalf("inspect by prefix: %v\n%s", err, out)
	}
	if !strings.Contains(out, "key:       "+keys[0]) {
		t.Fatalf("inspect lacks full key:\n%s", out)
	}
	if !strings.Contains(out, "Performance contract") {
		t.Fatalf("inspect lacks contract rendering:\n%s", out)
	}
}

func TestKeyPrefixResolution(t *testing.T) {
	dir, keys := populate(t)
	if _, err := runCtl(t, "-store", dir, "inspect", "zzzz"); err == nil {
		t.Fatal("inspect of unmatched prefix succeeded")
	}
	// The empty prefix matches everything stored: ambiguous.
	if len(keys) > 1 {
		if _, err := runCtl(t, "-store", dir, "inspect", ""); err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Fatalf("ambiguous prefix not reported: %v", err)
		}
	}
}

func TestDiffByteIdenticalAcrossStores(t *testing.T) {
	dir1, keys1 := populate(t)
	dir2, _ := populate(t) // same scenarios, separate store: same keys
	out, err := runCtl(t, "-store", dir1, "-store2", dir2, "diff", keys1[0], keys1[0])
	if err != nil {
		t.Fatalf("cross-store diff: %v\n%s", err, out)
	}
	if !strings.Contains(out, "byte-identical") {
		t.Fatalf("identical contracts not reported byte-identical:\n%s", out)
	}

	// Two different contracts in the same store must differ with the
	// dedicated exit error.
	var other string
	for _, k := range keys1 {
		if k != keys1[0] {
			other = k
			break
		}
	}
	if other == "" {
		t.Skip("store holds a single contract")
	}
	out, err = runCtl(t, "-store", dir1, "diff", keys1[0], other)
	if err != errContractsDiffer {
		t.Fatalf("differing contracts: err=%v\n%s", err, out)
	}
	if !strings.Contains(out, "contracts differ") {
		t.Fatalf("diff output lacks verdict:\n%s", out)
	}
}

func TestExportImport(t *testing.T) {
	dir, keys := populate(t)
	target := t.TempDir()
	file := filepath.Join(target, "artifact.json")
	if out, err := runCtl(t, "-store", dir, "-o", file, "export", keys[0]); err != nil {
		t.Fatalf("export: %v\n%s", err, out)
	}

	dir2 := t.TempDir()
	out, err := runCtl(t, "-store", dir2, "import", file)
	if err != nil {
		t.Fatalf("import: %v\n%s", err, out)
	}
	if !strings.Contains(out, "imported "+keys[0][:12]) {
		t.Fatalf("import output: %s", out)
	}
	// Round trip: the imported object diffs byte-identical to the source.
	out, err = runCtl(t, "-store", dir, "-store2", dir2, "diff", keys[0], keys[0])
	if err != nil || !strings.Contains(out, "byte-identical") {
		t.Fatalf("export/import round trip not byte-identical: %v\n%s", err, out)
	}

	// A corrupted export must be refused on import.
	data, _ := os.ReadFile(file)
	data[len(data)/2] ^= 0x20
	bad := filepath.Join(target, "bad.json")
	os.WriteFile(bad, data, 0o644)
	if _, err := runCtl(t, "-store", dir2, "import", bad); err == nil {
		t.Fatal("import accepted a corrupted artifact")
	}
}

// TestTornWriteCollected pins the ISSUE acceptance scenario end to end:
// a write torn mid-rename is never served by any read path and boltctl
// gc collects it.
func TestTornWriteCollected(t *testing.T) {
	dir, keys := populate(t)
	// Inject the torn write: a half-written temp file exactly where the
	// store's atomic rename would have sourced it.
	torn := strings.Repeat("0123456789abcdef", 4)
	shard := filepath.Join(dir, "objects", torn[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(shard, torn+".tmp99")
	if err := os.WriteFile(tornPath, []byte(`boltstore1 feed 512{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Never served: not listed, not inspectable.
	out, err := runCtl(t, "-store", dir, "list")
	if err != nil || strings.Contains(out, torn[:12]) {
		t.Fatalf("torn write visible in list: %v\n%s", err, out)
	}
	if _, err := runCtl(t, "-store", dir, "inspect", torn); err == nil {
		t.Fatal("torn write inspectable")
	}

	out, err = runCtl(t, "-store", dir, "gc")
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if !strings.Contains(out, "removed 1 temp") {
		t.Fatalf("gc did not collect the torn write: %s", out)
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Fatal("torn temp file still on disk after gc")
	}
	// Valid objects survive.
	if out, err := runCtl(t, "-store", dir, "inspect", keys[0]); err != nil {
		t.Fatalf("valid object lost after gc: %v\n%s", err, out)
	}
}

// TestVerify drives `boltctl verify` over one damaged store per row:
// every check the decoder's old re-encode gate and the cache's read path
// made between them has to fail here, by name, with a non-zero exit.
func TestVerify(t *testing.T) {
	objectPath := func(dir, key string) string { return filepath.Join(dir, "objects", key[:2], key) }
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, keys []string) (victim string)
		want   string // in the victim's line; "" means the store is clean
	}{
		{"clean store", func(*testing.T, string, []string) string { return "" }, ""},
		{"flipped payload byte", func(t *testing.T, dir string, keys []string) string {
			path := objectPath(dir, keys[0])
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-10] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return keys[0][:12]
		}, "checksum mismatch"},
		{"mislabeled key", func(t *testing.T, dir string, keys []string) string {
			// A valid object copied under another key: framing and schema
			// hold, the self-label does not.
			other := strings.Repeat("5", 64)
			data, err := os.ReadFile(objectPath(dir, keys[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(objectPath(dir, other)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(objectPath(dir, other), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return other[:12]
		}, "labelled with key " + "%.12s"},
		{"non-canonical but valid JSON", func(t *testing.T, dir string, keys []string) string {
			// The same contract with one space in it, put through the
			// store's own writer so the framing checksum is right.
			s, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := s.Get(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			spaced := strings.Replace(string(payload), `"version":3`, `"version": 3`, 1)
			if err := s.Delete(keys[0]); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(keys[0], []byte(spaced), store.Meta{Kind: "contract"}); err != nil {
				t.Fatal(err)
			}
			return keys[0][:12]
		}, "decoding artifact"},
		{"torn write", func(t *testing.T, dir string, keys []string) string {
			torn := objectPath(dir, keys[0]) + ".tmp7"
			if err := os.WriteFile(torn, []byte("boltstore1 torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Base(torn)
		}, "torn write"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, keys := populate(t)
			victim := tc.damage(t, dir, keys)
			want := strings.Replace(tc.want, "%.12s", keys[0][:12], 1)
			out, err := runCtl(t, "-store", dir, "verify")
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if tc.want == "" {
				if err != nil || !strings.Contains(out, "all ok") || len(lines) != len(keys)+1 {
					t.Fatalf("clean store: err=%v\n%s", err, out)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "1 of ") {
				t.Fatalf("verify did not fail on exactly one object: err=%v\n%s", err, out)
			}
			for _, line := range lines {
				failed := strings.Contains(line, "FAIL")
				if strings.Contains(line, victim) != failed {
					t.Errorf("wrong verdict: %s", line)
				}
				if failed && !strings.Contains(line, want) {
					t.Errorf("verdict lacks %q: %s", want, line)
				}
			}
			// Naming an undamaged object verifies it alone.
			if good := keys[len(keys)-1]; !strings.HasPrefix(good, victim) {
				if out, err := runCtl(t, "-store", dir, "verify", good[:16]); err != nil || !strings.Contains(out, "verify: 1 checked, all ok") {
					t.Errorf("verify %s: err=%v\n%s", good[:16], err, out)
				}
			}
		})
	}
}

// TestCommandOverStore runs the boltctl binary over a store this build
// wrote — verify, inspect, and export → import → diff, which must find
// the round trip byte-identical — and then over the same store holding
// an object of the retired version 2: the committed golden's bytes,
// framed with a valid checksum, as a store an older build wrote holds
// them. verify must exit non-zero and name the version, not a checksum.
func TestCommandOverStore(t *testing.T) {
	dir, keys := populate(t)
	key := keys[0]
	mustRun := func(want string, args ...string) string {
		t.Helper()
		stdout, stderr, code := boltctl(t, args...)
		if code != 0 || !strings.Contains(stdout, want) {
			t.Fatalf("boltctl %v: exit %d, want 0 and %q\nstdout:\n%s\nstderr:\n%s", args, code, want, stdout, stderr)
		}
		return stdout
	}
	mustRun("all ok", "-store", dir, "verify")
	mustRun("version:   3", "-store", dir, "inspect", key[:12])
	file := filepath.Join(t.TempDir(), "artifact.json")
	mustRun("", "-store", dir, "export", key[:12], "-o", file)
	dir2 := t.TempDir()
	mustRun("imported "+key[:12], "-store", dir2, "import", file)
	mustRun("byte-identical", "-store", dir, "-store2", dir2, "diff", key, key)

	v2, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", "artifact_v2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, v2, store.Meta{Kind: "contract"}); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := boltctl(t, "-store", dir, "verify")
	if code == 0 || !strings.Contains(stderr, "boltctl: verify: 1 of ") {
		t.Fatalf("verify over a version-2 object: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, key[:12]+"  FAIL  core: decoding artifact: offset ") || !strings.Contains(stdout, "unsupported artifact version 2") {
		t.Fatalf("verify does not name the version of the stale object:\n%s", stdout)
	}
	for _, bad := range []string{"checksum", "panic", "goroutine"} {
		if strings.Contains(stdout+stderr, bad) {
			t.Fatalf("verify over a version-2 object mentions %q:\n%s%s", bad, stdout, stderr)
		}
	}
	if _, stderr, code := boltctl(t, "-store", dir, "inspect", key[:12]); code == 0 || !strings.Contains(stderr, "unsupported artifact version 2") {
		t.Fatalf("inspect of a version-2 object: exit %d\n%s", code, stderr)
	}
}
