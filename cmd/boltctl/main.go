// Command boltctl administers an on-disk contract store — the durable
// artifacts that cmd/bolt, boltbench, boltmon, and distiller share via
// their -store flag. It lists and inspects stored contracts, diffs two
// of them (across stores, for before/after comparisons of a code
// change), moves artifacts in and out as files, verifies stored objects
// end to end, and garbage-collects torn writes and corrupted objects.
//
// Usage:
//
//	boltctl -store DIR list
//	boltctl -store DIR inspect KEY [-metric M]
//	boltctl -store DIR diff KEY1 KEY2 [-store2 DIR2] [-metric M]
//	boltctl -store DIR export KEY [-o FILE]
//	boltctl -store DIR import FILE...
//	boltctl -store DIR verify [KEY...]
//	boltctl -store DIR gc
//
// KEY arguments may be unambiguous key prefixes (as printed by list).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gobolt/internal/core"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "boltctl:", err)
		if err == errContractsDiffer {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errContractsDiffer = fmt.Errorf("contracts differ")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("boltctl", flag.ContinueOnError)
	var (
		storeDir  = fs.String("store", "", "contract store directory (required)")
		store2Dir = fs.String("store2", "", "second store for cross-store diff (defaults to -store)")
		metric    = fs.String("metric", "instructions", "metric for inspect/diff: instructions, memaccesses, cycles")
		outFile   = fs.String("o", "", "output file for export (default stdout)")
	)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: boltctl -store DIR {list|inspect|diff|export|import|verify|gc} [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		fs.Usage()
		return fmt.Errorf("-store is required")
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	s, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	m, err := perf.ParseMetric(*metric)
	if err != nil {
		return err
	}
	// flag.Parse stops at the first positional (the subcommand word), so
	// flags given after it (boltctl -store DIR export KEY -o FILE) would
	// otherwise be taken for positional args; collect positionals one at
	// a time and re-parse the remainder so flags and args interleave.
	cmd := fs.Arg(0)
	var rest []string
	for tail := fs.Args()[1:]; len(tail) > 0; {
		if err := fs.Parse(tail); err != nil {
			return err
		}
		tail = fs.Args()
		if len(tail) == 0 {
			break
		}
		rest, tail = append(rest, tail[0]), tail[1:]
	}
	switch cmd {
	case "list":
		return cmdList(s, out)
	case "inspect":
		if len(rest) != 1 {
			return fmt.Errorf("usage: boltctl -store DIR inspect KEY")
		}
		return cmdInspect(s, rest[0], m, out)
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("usage: boltctl -store DIR diff KEY1 KEY2 [-store2 DIR2]")
		}
		s2 := s
		if *store2Dir != "" {
			if s2, err = store.Open(*store2Dir); err != nil {
				return err
			}
		}
		return cmdDiff(s, s2, rest[0], rest[1], m, out)
	case "export":
		if len(rest) != 1 {
			return fmt.Errorf("usage: boltctl -store DIR export KEY [-o FILE]")
		}
		return cmdExport(s, rest[0], *outFile, out)
	case "import":
		if len(rest) == 0 {
			return fmt.Errorf("usage: boltctl -store DIR import FILE...")
		}
		return cmdImport(s, rest, out)
	case "verify":
		return cmdVerify(s, rest, out)
	case "gc":
		return cmdGC(s, out)
	default:
		fs.Usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// load resolves a key prefix (store.Resolve) and returns the artifact
// with its canonical payload bytes.
func load(s *store.Store, prefix string) (*core.Artifact, []byte, error) {
	key, err := s.Resolve(prefix)
	if err != nil {
		return nil, nil, err
	}
	payload, err := s.Get(key)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", key[:12], err)
	}
	a, err := core.DecodeArtifact(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", key[:12], err)
	}
	return a, payload, nil
}

func cmdList(s *store.Store, out io.Writer) error {
	entries, err := s.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(out, "store is empty")
		return nil
	}
	fmt.Fprintf(out, "%-14s %-20s %-6s %6s %10s\n", "KEY", "NF", "LEVEL", "PATHS", "BYTES")
	for _, e := range entries {
		nfName, level := e.Meta.NF, e.Meta.Level
		paths := fmt.Sprintf("%d", e.Meta.Paths)
		if e.Meta.Kind == "" {
			// Indexless object (e.g. imported before a GC): decode for
			// the listing rather than printing blanks.
			if a, _, err := load(s, e.Key); err == nil {
				nfName, level = a.Contract.NF, a.Contract.Level
				paths = fmt.Sprintf("%d", len(a.Contract.Paths))
			} else {
				nfName, level, paths = "?", "?", "?"
			}
		}
		fmt.Fprintf(out, "%-14s %-20s %-6s %6s %10d\n", e.Key[:12], nfName, level, paths, e.Size)
	}
	return nil
}

func cmdInspect(s *store.Store, prefix string, m perf.Metric, out io.Writer) error {
	a, payload, err := load(s, prefix)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "key:       %s\n", a.Key)
	fmt.Fprintf(out, "nf:        %s\n", a.Contract.NF)
	fmt.Fprintf(out, "level:     %s\n", a.Contract.Level)
	frontend := a.Contract.Provenance
	if frontend == "" {
		frontend = "builtin"
	}
	fmt.Fprintf(out, "frontend:  %s\n", frontend)
	fmt.Fprintf(out, "version:   %d\n", a.Version)
	fmt.Fprintf(out, "paths:     %d\n", len(a.Contract.Paths))
	fmt.Fprintf(out, "raw paths: %d (composable: %t)\n", len(a.Paths), a.Paths != nil)
	fmt.Fprintf(out, "bytes:     %d\n", len(payload))
	printSharing(a.Contract, out)
	fmt.Fprintln(out)
	fmt.Fprint(out, a.Contract.Render(m))
	return nil
}

// printSharing summarises the sharability verdicts an artifact carries:
// each state call's class and the analysis's reason. A contract without
// call traces (a composite) has none and prints nothing.
func printSharing(ct *core.Contract, out io.Writer) {
	verdicts := map[string]nfir.Sharing{}
	for _, p := range ct.Paths {
		for _, ev := range p.Trace {
			if ev.Sharing.Class != nfir.SharingUnknown {
				verdicts[ev.DS+"."+ev.Method] = ev.Sharing
			}
		}
	}
	if len(verdicts) == 0 {
		return
	}
	calls := make([]string, 0, len(verdicts))
	for call := range verdicts {
		calls = append(calls, call)
	}
	sort.Strings(calls)
	fmt.Fprintf(out, "sharing:\n")
	for _, call := range calls {
		sh := verdicts[call]
		fmt.Fprintf(out, "  %-22s %-9s %s\n", call, sh.Class, sh.Reason)
	}
}

func cmdDiff(s1, s2 *store.Store, p1, p2 string, m perf.Metric, out io.Writer) error {
	a1, b1, err := load(s1, p1)
	if err != nil {
		return err
	}
	a2, b2, err := load(s2, p2)
	if err != nil {
		return err
	}
	// Two content-addressed artifacts with equal canonical payloads are
	// the same contract, bit for bit — keys included.
	if bytes.Equal(stripKey(b1, a1), stripKey(b2, a2)) {
		fmt.Fprintf(out, "byte-identical: %s == %s (%d bytes)\n", a1.Key[:12], a2.Key[:12], len(b1))
		return nil
	}
	fmt.Fprintf(out, "contracts differ: %s (%s) vs %s (%s)\n", a1.Key[:12], a1.Contract.NF, a2.Key[:12], a2.Contract.NF)
	entries := core.Diff(a1.Contract, a2.Contract, m)
	fmt.Fprint(out, core.RenderDiff(entries, m))
	return errContractsDiffer
}

// stripKey canonicalizes a payload for comparison by re-encoding the
// artifact without its store key, so the same contract stored under two
// different recipes (e.g. export/import to another store) still compares
// byte-identical.
func stripKey(payload []byte, a *core.Artifact) []byte {
	stripped, err := core.EncodeArtifact(&core.Artifact{Contract: a.Contract, Paths: a.Paths})
	if err != nil {
		return payload
	}
	return stripped
}

func cmdExport(s *store.Store, prefix, outFile string, out io.Writer) error {
	_, payload, err := load(s, prefix)
	if err != nil {
		return err
	}
	if outFile == "" {
		_, err = out.Write(append(payload, '\n'))
		return err
	}
	return os.WriteFile(outFile, payload, 0o644)
}

func cmdImport(s *store.Store, files []string, out io.Writer) error {
	for _, file := range files {
		payload, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		// Trailing newline tolerance: export appends one on stdout.
		payload = bytes.TrimRight(payload, "\n")
		a, err := core.DecodeArtifact(payload)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if a.Key == "" {
			return fmt.Errorf("%s: artifact carries no store key; it cannot be content-addressed", file)
		}
		if err := s.Put(a.Key, payload, store.Meta{
			Kind:  "contract",
			NF:    a.Contract.NF,
			Level: a.Contract.Level,
			Paths: len(a.Contract.Paths),
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "imported %s (%s, %d paths) from %s\n", a.Key[:12], a.Contract.NF, len(a.Contract.Paths), file)
	}
	return nil
}

// cmdVerify checks stored objects end to end, the whole store when no
// key is given: one line per object, an error if any failed. It is where
// the decode→re-encode→compare identity is checked now that the decoder
// enforces canonical form as it reads instead.
func cmdVerify(s *store.Store, prefixes []string, out io.Writer) error {
	var keys, temps []string
	var err error
	if len(prefixes) == 0 {
		if keys, err = s.Keys(); err != nil {
			return err
		}
		if temps, err = s.Temps(); err != nil {
			return err
		}
	}
	for _, prefix := range prefixes {
		key, err := s.Resolve(prefix)
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	failed := len(temps)
	for _, key := range keys {
		if err := verifyObject(s, key); err != nil {
			failed++
			fmt.Fprintf(out, "%s  FAIL  %v\n", key[:12], err)
		} else {
			fmt.Fprintf(out, "%s  ok\n", key[:12])
		}
	}
	for _, tmp := range temps {
		fmt.Fprintf(out, "%s  FAIL  leftover of a torn write (never served; gc removes it)\n", tmp)
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d of %d objects failed", failed, len(keys)+len(temps))
	}
	fmt.Fprintf(out, "verify: %d checked, all ok\n", len(keys))
	return nil
}

// verifyObject re-checks everything that makes a stored object
// trustworthy: the framing's length and SHA-256 (Get), the canonical
// schema (DecodeArtifact), the key the artifact labels itself with, and
// that re-encoding reproduces the stored bytes exactly.
func verifyObject(s *store.Store, key string) error {
	payload, err := s.Get(key)
	if err != nil {
		return err
	}
	a, err := core.DecodeArtifact(payload)
	if err != nil {
		return err
	}
	if a.Key != key {
		return fmt.Errorf("artifact is labelled with key %.12s", a.Key)
	}
	re, err := core.EncodeArtifact(a)
	if err != nil {
		return err
	}
	if !bytes.Equal(re, payload) {
		return fmt.Errorf("stored bytes are not the encoding of what they decode to")
	}
	return nil
}

func cmdGC(s *store.Store, out io.Writer) error {
	st, err := s.GC()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gc: kept %d, removed %d temp + %d corrupt, index -%d/+%d\n",
		st.Kept, st.TempRemoved, st.CorruptRemoved, st.IndexDropped, st.IndexAdopted)
	return nil
}
