package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"gobolt/internal/core"
)

// The 4-stage chain (firewall→nat→bridge→lb) is the composition
// anchor: its composite path count is pinned (composition is
// deterministic, so any drift signals a join-algebra change), the
// composite is identical across worker counts and to the reference
// solver's recorded output, and a warm-cache re-compose must beat the
// cold one.
func TestChainFourStageQuick(t *testing.T) {
	stages, names, err := ChainStages(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 8 || names[3] != "lb" {
		t.Fatalf("unexpected roster %v", names)
	}

	serial := core.NewGenerator()
	serial.Parallelism = 1
	ct, err := core.ComposeMany(serial, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	const wantPaths = 582
	if len(ct.Paths) != wantPaths {
		t.Errorf("firewall+nat+bridge+lb composite has %d paths, want %d", len(ct.Paths), wantPaths)
	}
	want, _ := json.Marshal(ct)

	pooled := core.NewGenerator()
	pooled.Parallelism = 4
	pooledCt, err := core.ComposeMany(pooled, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(pooledCt); string(got) != string(want) {
		t.Error("pooled composite differs from serial")
	}

	// The composite's SHA-256, recorded from the pre-incremental
	// reference solver (serial, every check a from-scratch solve) when
	// that engine could still run a whole composition.
	const refDigest = "adcc0381b635fe293fbcc2e98e54504fc6ef6da5325b26d01c99c5d33eb904cb"
	if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != refDigest {
		t.Errorf("composite digest %x, reference engine gave %s", sum, refDigest)
	}

	cached := core.NewGenerator()
	cached.Cache = core.NewContractCache()
	start := time.Now()
	coldCt, err := core.ComposeMany(cached, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	start = time.Now()
	warmCt, err := core.ComposeMany(cached, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(start)
	if warmCt != coldCt {
		t.Error("warm re-compose did not return the cached composite")
	}
	if warm >= cold {
		t.Errorf("warm re-compose (%v) not faster than cold (%v)", warm, cold)
	}
}

// The 7- and 8-stage prefixes of the deep-chain roster compose with
// the join index and composite coalescing: each fold's pruning stats
// partition its pairs, the index skips some, and at seven stages the
// pooled fold reproduces the serial one byte for byte. The uncoalesced
// 8-stage chain composes too, and its path count is pinned: it is the
// deepest uncoalesced composite any test checks.
func TestChainDeepChainPruned(t *testing.T) {
	stages, names, err := ChainStages(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 8 {
		t.Fatalf("roster is not the 8-stage deep chain: %v", names)
	}
	compose := func(n, parallelism int, coalesce bool) (*core.Contract, []core.JoinStats, time.Duration) {
		g := core.NewGenerator()
		g.Parallelism = parallelism
		g.Coalesce = coalesce
		start := time.Now()
		ct, stats, err := core.ComposeManyStats(context.Background(), g, stages[:n])
		if err != nil {
			t.Fatal(err)
		}
		return ct, stats, time.Since(start)
	}
	// checkStats checks an n-stage composition's per-fold records and
	// returns the pairs the index skipped and the pairs in total.
	checkStats := func(n int, stats []core.JoinStats) (skipped, pairs uint64) {
		if len(stats) != n-1 {
			t.Fatalf("%d-stage chain: expected %d fold stat records, got %d", n, n-1, len(stats))
		}
		for _, f := range stats {
			if f.IndexSkipped+f.PreFiltered+f.SolverRefuted+f.Kept != f.Pairs {
				t.Errorf("%d-stage chain, fold %d: pruning stats do not partition the pair count: %+v", n, f.Fold, f)
			}
			if f.ModelProved > f.Kept {
				t.Errorf("%d-stage chain, fold %d: the model check proved %d pairs, more than the %d kept", n, f.Fold, f.ModelProved, f.Kept)
			}
			skipped += f.IndexSkipped
			pairs += f.Pairs
		}
		return skipped, pairs
	}
	for _, n := range []int{7, 8} {
		ct, stats, elapsed := compose(n, 1, true)
		if len(ct.Paths) == 0 {
			t.Fatalf("%d-stage chain composed to zero paths", n)
		}
		skipped, pairs := checkStats(n, stats)
		if skipped == 0 {
			t.Errorf("join index skipped no pairs on a %d-stage chain", n)
		}
		t.Logf("%d-stage chain: %d paths, %d/%d pairs index-skipped, %v", n, len(ct.Paths), skipped, pairs, elapsed)

		if n == 7 {
			pooled, _, _ := compose(n, 4, true)
			want, _ := json.Marshal(ct)
			if got, _ := json.Marshal(pooled); string(got) != string(want) {
				t.Error("7-stage chain: pooled coalesced composite differs from serial")
			}
		}
	}

	ct, stats, elapsed := compose(8, 1, false)
	if got := len(ct.Paths); got != 6666 {
		t.Errorf("uncoalesced 8-stage chain composed to %d paths, want 6666", got)
	}
	checkStats(8, stats)
	t.Logf("uncoalesced 8-stage chain: %d paths, %v", len(ct.Paths), elapsed)
}
