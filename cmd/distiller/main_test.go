package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asCommand, as the test binary's first argument, makes the binary run
// distiller's main on the arguments after it instead of the tests, so a
// test can check a real exit status and stderr.
const asCommand = "distiller-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distiller runs the command with args and returns its stdout, its
// stderr and its exit status.
func distiller(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		stdout []string // substrings stdout must contain
		stderr []string // substrings stderr must contain
	}{
		{
			// A capacity under 4 used to ask for zero flows (nat) or
			// zero stations (bridge), and the generator panicked
			// drawing from an empty set.
			name:   "nat, capacity 3",
			args:   []string{"-nf", "nat", "-capacity", "3"},
			stdout: []string{"Distiller report: nat over 5000 packets", "Per-packet IC:"},
		},
		{
			name:   "bridge, capacity 3",
			args:   []string{"-nf", "bridge", "-capacity", "3", "-packets", "500"},
			stdout: []string{"Distiller report: bridge over 500 packets", "Per-packet IC:"},
		},
		{
			name:   "nat against its stored contract",
			args:   []string{"-nf", "nat", "-capacity", "64", "-packets", "500", "-store", t.TempDir()},
			stdout: []string{"Distiller report: nat over 500 packets", "contract holds for this trace"},
		},
		{
			name:   "zero packets",
			args:   []string{"-nf", "nat", "-packets", "0"},
			code:   2,
			stderr: []string{"-packets must be at least 1, got 0"},
		},
		{
			name:   "unknown NF",
			args:   []string{"-nf", "router", "-packets", "10"},
			code:   1,
			stderr: []string{`unknown NF "router"`, "nat, bridge, lb"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := distiller(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			for _, s := range tc.stdout {
				if !strings.Contains(stdout, s) {
					t.Errorf("stdout lacks %q:\n%s", s, stdout)
				}
			}
			for _, s := range tc.stderr {
				if !strings.Contains(stderr, s) {
					t.Errorf("stderr lacks %q:\n%s", s, stderr)
				}
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("a failed run printed to stdout:\n%s", stdout)
			}
		})
	}
}
