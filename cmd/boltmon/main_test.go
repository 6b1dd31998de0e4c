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
	"gobolt/internal/nf"
	"gobolt/internal/pcap"
	"gobolt/internal/store"
	"gobolt/internal/traffic"
)

// asCommand, as the test binary's first argument, makes the binary run
// boltmon's main on the arguments after it instead of the tests, so a
// test can check a real exit status and stderr.
const asCommand = "boltmon-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// boltmon runs the command with args and returns its stdout, its stderr
// and its exit status.
func boltmon(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// storedNAT generates the nat contract at quick scale into a fresh store,
// the way `bolt -nf nat -store DIR` does, and returns the store's
// directory and the object's key.
func storedNAT(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := experiments.QuickScale()
	sc.Cache = core.NewContractCache()
	sc.Cache.AttachDisk(s)
	inst, err := nf.Build("nat", nf.BuildParams{Capacity: sc.TableCapacity})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Generator().Generate(inst.Prog, inst.Models); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store holds %d objects (%v), want the one nat artifact", len(keys), err)
	}
	return dir, keys[0]
}

// TestStoredKey drives the -store/-key path: a stored contract is loaded
// and watched, and every way of naming one wrongly, or of reading a
// damaged one, exits non-zero with its own message and never falls back
// to generating the contract.
func TestStoredKey(t *testing.T) {
	cases := []struct {
		name   string
		args   func(dir, key string) []string
		damage func(t *testing.T, dir, key string)
		want   string // in stdout on success, in stderr on failure
		fails  bool
	}{
		{
			name: "stored contract loads",
			args: func(dir, key string) []string { return []string{"-nf", "nat", "-store", dir, "-key", key[:12]} },
			want: "(nat, 8 paths)",
		},
		{
			name:  "key without store",
			args:  func(dir, key string) []string { return []string{"-nf", "nat", "-key", key[:12]} },
			want:  "-key requires -store",
			fails: true,
		},
		{
			name:  "key without nf",
			args:  func(dir, key string) []string { return []string{"-store", dir, "-key", key[:12]} },
			want:  "-key requires -nf",
			fails: true,
		},
		{
			name:  "unknown key prefix",
			args:  func(dir, key string) []string { return []string{"-nf", "nat", "-store", dir, "-key", "ffffffffffff"} },
			want:  `no stored contract matches "ffffffffffff"`,
			fails: true,
		},
		{
			name: "flipped payload byte",
			args: func(dir, key string) []string { return []string{"-nf", "nat", "-store", dir, "-key", key[:12]} },
			damage: func(t *testing.T, dir, key string) {
				path := filepath.Join(dir, "objects", key[:2], key)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-10] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want:  "checksum mismatch",
			fails: true,
		},
		{
			// Framed correctly, so only the decoder can refuse it.
			name: "non-canonical payload",
			args: func(dir, key string) []string { return []string{"-nf", "nat", "-store", dir, "-key", key[:12]} },
			damage: func(t *testing.T, dir, key string) {
				s, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				payload, err := s.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				spaced := strings.Replace(string(payload), `"version":3`, `"version": 3`, 1)
				if err := s.Delete(key); err != nil {
					t.Fatal(err)
				}
				if err := s.Put(key, []byte(spaced), store.Meta{Kind: "contract"}); err != nil {
					t.Fatal(err)
				}
			},
			want:  "decoding artifact",
			fails: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, key := storedNAT(t)
			if tc.damage != nil {
				tc.damage(t, dir, key)
			}
			args := append([]string{"-scale", "quick", "-budget", "2000"}, tc.args(dir, key)...)
			stdout, stderr, code := boltmon(t, args...)
			if !tc.fails {
				if code != 0 || !strings.Contains(stdout, "monitoring stored contract "+key[:12]+" "+tc.want) {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
				}
				if !strings.Contains(stdout, "unclassified 0") {
					t.Fatalf("stored contract did not classify every packet:\n%s", stdout)
				}
				return
			}
			if code == 0 || !strings.Contains(stderr, "boltmon: ") || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, want non-zero with %q\nstderr:\n%s", code, tc.want, stderr)
			}
			if strings.Contains(stdout, "Monitor report") {
				t.Fatalf("failed load still monitored:\n%s", stdout)
			}
		})
	}
}

// TestPcapReplay drives -pcap: a small capture of benign bridge frames,
// written with internal/pcap, replays through the monitored bridge
// without an alert, and a file that is not a whole pcap exits non-zero
// naming the file instead of panicking or monitoring what it could read.
func TestPcapReplay(t *testing.T) {
	dir := t.TempDir()
	pkts := traffic.BridgeFrames(traffic.BridgeConfig{
		Packets: 64, MACs: experiments.QuickScale().TableCapacity / 4, Ports: 4,
		StartNS: 1_000, GapNS: 1_000, Seed: 7,
	})
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, traffic.ToPCAP(pkts)); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"benign.pcap":    buf.Bytes(),
		"truncated.pcap": buf.Bytes()[:buf.Len()-5],
		"garbage.pcap":   []byte("this is not a capture file, just text"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		file, want string // want: in stdout on success, in stderr on failure
		fails      bool
	}{
		{file: "benign.pcap", want: "expectation met: quiet"},
		{file: "truncated.pcap", want: "unexpected EOF", fails: true},
		{file: "garbage.pcap", want: pcap.ErrBadMagic.Error(), fails: true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			watchFile(t, "-pcap", filepath.Join(dir, tc.file), tc.want, tc.fails)
		})
	}
}

// watchFile runs boltmon quietly on the file given to flag. On success
// stdout must hold want and report no unclassified packet; on failure
// the exit is non-zero, stderr names the file and holds want, and
// nothing was monitored. Either way boltmon must not panic.
func watchFile(t *testing.T, flag, path, want string, fails bool) {
	t.Helper()
	stdout, stderr, code := boltmon(t, "-scale", "quick", flag, path, "-expect", "quiet")
	if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine ") {
		t.Fatalf("boltmon panicked:\n%s", stderr)
	}
	if !fails {
		if code != 0 || !strings.Contains(stdout, want) || !strings.Contains(stdout, "unclassified 0") {
			t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
		}
		return
	}
	if code == 0 || !strings.Contains(stderr, "boltmon: "+path+": ") || !strings.Contains(stderr, want) {
		t.Fatalf("exit %d, want non-zero naming %s with %q\nstderr:\n%s", code, path, want, stderr)
	}
	if strings.Contains(stdout, "Monitor report") {
		t.Fatalf("unreadable input still monitored:\n%s", stdout)
	}
}

// TestBVMWatch drives -bvm end to end: a roster bytecode NF is verified,
// compiled to nfir, analysed and watched through the interpreter without
// an alert, and a file the verifier rejects exits non-zero naming the
// file instead of panicking.
func TestBVMWatch(t *testing.T) {
	for _, tc := range []struct {
		file, want string // want: in stdout on success, in stderr on failure
		fails      bool
	}{
		{file: "internal/nf/bvmdata/ratelimit.bvm", want: "expectation met: quiet"},
		{file: "internal/bvm/testdata/malformed/fall_off_end.bvm", want: "falls off the end", fails: true},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			watchFile(t, "-bvm", filepath.Join("..", "..", tc.file), tc.want, tc.fails)
		})
	}
}
