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
// boltbench's main on the arguments after it instead of the tests, so a
// test can check a real exit status and stderr.
const asCommand = "boltbench-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// boltbench runs the command with args and returns its stdout, its
// stderr and its exit status.
func boltbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
			name:   "unknown experiment",
			args:   []string{"-exp", "typo", "-scale", "quick"},
			code:   2,
			stderr: []string{`unknown experiment "typo"`, "census", "shardbench"},
		},
		{
			name:   "retired experiment",
			args:   []string{"-exp", "chainbench", "-scale", "quick"},
			code:   2,
			stderr: []string{`unknown experiment "chainbench"`},
		},
		{
			name:   "unknown scale",
			args:   []string{"-exp", "census", "-scale", "huge"},
			code:   2,
			stderr: []string{`unknown scale "huge"`, "default, quick"},
		},
		{
			name:   "store with nocache",
			args:   []string{"-exp", "census", "-scale", "quick", "-nocache", "-store", t.TempDir()},
			code:   1,
			stderr: []string{"-store and -nocache are mutually exclusive"},
		},
		{
			name:   "census at quick scale",
			args:   []string{"-exp", "census", "-scale", "quick"},
			stdout: []string{"path census", "(contract cache:", "(total "},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := boltbench(t, tc.args...)
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
