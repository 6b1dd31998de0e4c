package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/nf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// asCommand, as the test binary's first argument, makes the binary run
// bolt's main on the arguments after it instead of the tests, so a test
// can check a real exit status and stderr.
const asCommand = "bolt-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bolt runs the command with args and returns its stdout, its stderr
// and its exit status.
func bolt(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

func TestCommand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring stdout must contain
		stderr string // substring stderr must contain
	}{
		{
			name:   "provision",
			args:   []string{"-nf", "nat", "-capacity", "64", "-provision", "10Mpps"},
			stdout: "Provisioning nat for 10.00 Mpps at 3.20 GHz",
		},
		{
			// Used to print "at -0.00 GHz ... no paths match" and exit 0.
			name:   "zero clock",
			args:   []string{"-nf", "nat", "-capacity", "64", "-provision", "10Mpps", "-clockhz", "0"},
			code:   1,
			stderr: "bad -clockhz 0",
		},
		{
			// Used to provision "for +Inf Gpps" and exit 0.
			name:   "infinite rate",
			args:   []string{"-nf", "nat", "-capacity", "64", "-provision", "inf"},
			code:   1,
			stderr: `bad rate "inf"`,
		},
		{
			name:   "retired solver budget flag",
			args:   []string{"-nf", "nat", "-feas-nodes", "1"},
			code:   2,
			stderr: "flag provided but not defined: -feas-nodes",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := bolt(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}

func TestParseRate(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64 // 0: must be rejected
	}{
		{"10Mpps", 10e6},
		{"500Kpps", 500e3},
		{"2.5M", 2.5e6},
		{"inf", 0},
		{"NaN", 0},
		{"0", 0},
		{"-5", 0},
		{"1e308G", 0}, // overflows to +Inf once scaled
	} {
		got, err := parseRate(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseRate(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseRate(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestBuildNFAllVariants(t *testing.T) {
	for _, entry := range nf.Roster() {
		inst, err := nf.Build(entry.Name, nf.BuildParams{Capacity: 128})
		if err != nil {
			t.Errorf("%s: %v", entry.Name, err)
			continue
		}
		if inst.Prog == nil {
			t.Errorf("%s: no program", entry.Name)
		}
		if len(inst.Models) == 0 {
			t.Errorf("%s: no models", entry.Name)
		}
	}
	if _, err := nf.Build("bogus", nf.BuildParams{}); err == nil {
		t.Error("unknown NF must fail")
	}
}

func TestParseMetric(t *testing.T) {
	for _, s := range []string{"instructions", "ic", "memaccesses", "ma", "cycles"} {
		if _, err := parseMetric(s); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	if _, err := parseMetric("watts"); err == nil {
		t.Error("unknown metric must fail")
	}
}

func TestJSONModeFlag(t *testing.T) {
	var j jsonMode
	if err := j.Set("true"); err != nil || j.mode != "artifact" {
		t.Fatalf("bare -json: %q, %v", j.mode, err)
	}
	if err := j.Set("summary"); err != nil || j.mode != "summary" {
		t.Fatalf("-json=summary: %q, %v", j.mode, err)
	}
	if err := j.Set("artifact"); err != nil || j.mode != "artifact" {
		t.Fatalf("-json=artifact: %q, %v", j.mode, err)
	}
	if err := j.Set("yaml"); err == nil {
		t.Fatal("-json=yaml accepted")
	}
}

// TestArtifactJSONGolden pins the bytes `bolt -json` emits for the §2.1
// running example: the versioned artifact schema downstream tooling
// parses. A drift here means the codec changed — bump ArtifactVersion
// and regenerate with -update if it was intentional.
func TestArtifactJSONGolden(t *testing.T) {
	inst, err := nf.Build("example-lpm", nf.BuildParams{})
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGenerator()
	g.Parallelism = 1
	g.Cache = core.NewContractCache()
	ct, rawPaths, err := g.GenerateWithPathsContext(context.Background(), inst.Prog, inst.Models)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := g.CacheKey(inst.Prog, inst.Models)
	if !ok {
		t.Fatal("example-lpm generation not cacheable")
	}
	data, err := core.EncodeArtifact(&core.Artifact{Key: key, Contract: ct, Paths: rawPaths})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "example_lpm_artifact.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with `go test ./cmd/bolt -run TestArtifactJSONGolden -update`): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("bolt -json output drifted from the pinned schema")
	}
	if _, err := core.DecodeArtifact(want); err != nil {
		t.Fatalf("pinned artifact no longer decodes: %v", err)
	}
}
