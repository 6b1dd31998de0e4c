package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"gobolt/internal/core"
	"gobolt/internal/nf"
	"gobolt/internal/perf"
	"gobolt/internal/store"
)

// The analysis workloads compose one chain. An op is one chain analysis
// — core.ComposeManyStats of ingress-firewall → nat → bridge → lb — and
// a pass is one op. Their inputs are the deterministic roster, so the
// workload seed does not reach them.

var chainRoster = []string{"ingress-firewall", "nat", "bridge", "lb"}

// chainPaths is the composite's path count; DESIGN.md and chainbench pin
// the same number.
const chainPaths = 582

type an struct {
	warm      bool // ops are served from a disk store a cold run populated
	stages    []core.ChainStage
	want      []byte // json.Marshal of the reference composite
	wantPrint uint64

	dir   string // an-warm: the store's directory
	store *store.Store

	cache *core.ContractCache // the op's cache, fresh every pass
	ct    *core.Contract
}

func buildStages() ([]core.ChainStage, error) {
	stages := make([]core.ChainStage, len(chainRoster))
	for i, name := range chainRoster {
		inst, err := nf.Build(name, nf.BuildParams{Capacity: 8192})
		if err != nil {
			return nil, err
		}
		stages[i] = core.ChainStage{Prog: inst.Prog, Models: inst.Models}
	}
	return stages, nil
}

// compose is the op: one chain analysis on a fresh serial generator
// over cache. Parallelism is pinned to 1 because a two-vCPU shared box
// cannot resolve the worker pool's payback.
func (a *an) compose(cache *core.ContractCache) (*core.Contract, []core.JoinStats, error) {
	g := core.NewGenerator()
	g.Parallelism = 1
	g.Cache = cache
	return core.ComposeManyStats(context.Background(), g, a.stages)
}

// setupCold is an-cold's set-up: the four NF builds.
func setupCold(options) (runner, error) {
	stages, err := buildStages()
	return &an{stages: stages}, err
}

// setupWarm is an-warm's set-up: the cold run that populates the store
// — compose, encode every stage and fold prefix, and write each through
// with an fsync — which is what a process pays before it can restart
// warm. Encode cost therefore shows as this workload's setup_s.
func setupWarm(o options) (runner, error) {
	a := &an{warm: true}
	var err error
	if a.stages, err = buildStages(); err != nil {
		return nil, err
	}
	if err = os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if a.dir, err = os.MkdirTemp(o.out, "store-"); err != nil {
		return nil, err
	}
	if a.store, err = store.Open(a.dir); err != nil {
		a.Close()
		return nil, err
	}
	cache := core.NewContractCache()
	cache.AttachDisk(a.store)
	if _, _, err = a.compose(cache); err != nil {
		a.Close()
		return nil, err
	}
	if ts := cache.TierStats(); ts.DiskErrs != 0 {
		a.Close()
		return nil, fmt.Errorf("populating the store: %d disk errors", ts.DiskErrs)
	}
	return a, nil
}

func (a *an) Close() {
	if a.dir != "" {
		os.RemoveAll(a.dir)
	}
}

// Prepare gives the op an empty memory tier: over nothing for an-cold,
// over the populated store for an-warm — a process restart.
func (a *an) Prepare() {
	a.cache = core.NewContractCache()
	if a.warm {
		a.cache.AttachDisk(a.store)
	}
}

func (a *an) Op() (err error) {
	a.ct, _, err = a.compose(a.cache)
	return err
}

func (a *an) Check(opErr error) (ops, failed int) {
	if opErr != nil || len(a.ct.Paths) != chainPaths || fingerprint(a.ct) != a.wantPrint {
		return 1, 1
	}
	if ts := a.cache.TierStats(); a.warm && (ts.Misses != 0 || ts.DiskHits == 0) {
		return 1, 1
	}
	return 1, 0
}

// fingerprint digests a composite without allocating, because the
// window counts what runs between passes: every path's ID, action,
// stateful outcomes, witness presence, PCV ranges and the constant term
// of its three costs, FNV-1a hashed. The full JSON export coalesces
// classes over PCV boxes and takes four times as long as the cold
// analysis it would be checking — with it after every op a 15-s window
// holds 75 ops instead of 300 — so the window compares fingerprints
// after every op and the export before and after it (Guard, Finish).
// The analysis is deterministic and serial: an op in between cannot
// differ where both ends agree.
func fingerprint(ct *core.Contract) uint64 {
	h := fnv(14695981039346656037)
	h.str(ct.NF)
	h.str(ct.Level)
	for _, p := range ct.Paths {
		h.u64(uint64(p.ID))
		h.u64(uint64(p.Action))
		h.str(p.Events)
		if p.Witness != nil {
			h.u64(1)
		}
		for _, m := range perf.Metrics {
			h.u64(p.Cost[m].ConstTerm())
		}
		// Map order is random, so the ranges fold in commutatively.
		var ranges uint64
		for v, r := range p.PCVRanges {
			e := fnv(14695981039346656037)
			e.str(v)
			e.u64(r.Lo)
			e.u64(r.Hi)
			ranges += uint64(e)
		}
		h.u64(ranges)
	}
	return uint64(h)
}

type fnv uint64

func (h *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv(s[i])) * 1099511628211
	}
	*h *= 1099511628211 // terminator, so "ab","c" and "a","bc" differ
}

func (h *fnv) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		*h = (*h ^ fnv(byte(v>>i))) * 1099511628211
	}
}

// verify compares a composite's JSON export with the reference.
func (a *an) verify(ct *core.Contract) error {
	if len(ct.Paths) != chainPaths {
		return fmt.Errorf("composite has %d paths, want %d", len(ct.Paths), chainPaths)
	}
	got, err := json.Marshal(ct)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, a.want) {
		return fmt.Errorf("composite differs from the set-up reference")
	}
	return nil
}

// Guard takes the reference composite — an uncached serial compose —
// and checks the op reproduces it, which also pins the 582 paths.
func (a *an) Guard() error {
	ref, _, err := a.compose(nil)
	if err != nil {
		return err
	}
	if a.want, err = json.Marshal(ref); err != nil {
		return err
	}
	a.wantPrint = fingerprint(ref)
	a.Prepare()
	if err := a.Op(); err != nil {
		return err
	}
	if err := a.verify(a.ct); err != nil {
		return fmt.Errorf("shape: %w", err)
	}
	if a.warm {
		if ts := a.cache.TierStats(); ts.Misses != 0 || ts.DiskHits == 0 {
			return fmt.Errorf("shape: warm op was not served from the store (%d misses, %d disk hits)", ts.Misses, ts.DiskHits)
		}
	}
	return nil
}

// Finish exports the last composite of the run in full.
func (a *an) Finish() int {
	if a.verify(a.ct) != nil {
		return 1
	}
	return 0
}
