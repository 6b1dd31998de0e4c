package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"gobolt/internal/pcap"
)

// asCommand, as the test binary's first argument, makes the binary run
// trafficgen's main on the arguments after it instead of the tests, so
// a test can check a real exit status and stderr.
const asCommand = "trafficgen-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// trafficgen runs the command with args and returns its stdout, its
// stderr and its exit status.
func trafficgen(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		name    string
		args    []string
		code    int
		stderr  []string // substrings stderr must contain
		packets int      // packets the written pcap must hold (0: no file)
	}{
		{
			// Fewer than 8 packets used to ask for zero flows, and the
			// flow generator panicked drawing from an empty flow set.
			name:    "uniform, fewer packets than one flow per 8",
			args:    []string{"-class", "uniform", "-packets", "5"},
			packets: 5,
		},
		{
			name:    "bridge",
			args:    []string{"-class", "bridge", "-packets", "64"},
			packets: 64,
		},
		{
			name:   "zero packets",
			args:   []string{"-packets", "0"},
			code:   2,
			stderr: []string{"-packets must be at least 1, got 0"},
		},
		{
			// Used to write an empty pcap and exit 0.
			name:   "negative packets",
			args:   []string{"-packets", "-3"},
			code:   2,
			stderr: []string{"-packets must be at least 1, got -3"},
		},
		{
			name:   "unknown class",
			args:   []string{"-class", "tcp", "-packets", "5"},
			code:   1,
			stderr: []string{`unknown class "tcp"`, "uniform, bridge, broadcast, lpm, options, invalid"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "w.pcap")
			stdout, stderr, code := trafficgen(t, append(tc.args, "-out", out)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			for _, s := range tc.stderr {
				if !strings.Contains(stderr, s) {
					t.Errorf("stderr lacks %q:\n%s", s, stderr)
				}
			}
			f, err := os.Open(out)
			if tc.packets == 0 {
				if err == nil {
					f.Close()
					t.Error("a failed run wrote a pcap")
				}
				if stdout != "" {
					t.Errorf("a failed run printed to stdout:\n%s", stdout)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			recs, err := pcap.ReadAll(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.packets {
				t.Errorf("pcap holds %d packets, want %d", len(recs), tc.packets)
			}
			if !strings.Contains(stdout, "wrote ") {
				t.Errorf("stdout lacks the summary line:\n%s", stdout)
			}
		})
	}
}
