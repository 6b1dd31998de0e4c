package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gobolt/internal/core"
)

// TestCodecNATGoldenV1 pins the retirement of codec version 1 on a real
// contract: testdata/artifact_v1_nat.golden.json holds the bytes a
// pre-shard build wrote for the roster NAT (capacity 64, default
// generator, raw paths included). Those objects can no longer be looked
// up — the cache key's schema tag changed with the shard analysis — and
// a build that meets one anyway (an import, a copied store) must refuse
// it by version rather than read it as a contract without shard
// verdicts.
func TestCodecNATGoldenV1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "artifact_v1_nat.golden.json"))
	if err != nil {
		t.Fatalf("reading pre-shard NAT golden: %v", err)
	}
	a, err := core.DecodeArtifact(v1)
	if err == nil {
		t.Fatalf("version-1 NAT golden decoded (version %d, %d paths); version 1 is retired", a.Version, len(a.Contract.Paths))
	}
	if !strings.Contains(err.Error(), "unsupported artifact version 1") {
		t.Fatalf("version-1 NAT golden refused for the wrong reason: %v", err)
	}
}
