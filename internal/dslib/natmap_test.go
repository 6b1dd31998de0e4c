package dslib

import (
	"math/rand"
	"testing"

	"gobolt/internal/nfir"
)

func newNAT(env *nfir.Env, alloc PortAllocator, gran uint64) *NATMap {
	return NewNATMap(env, NATMapConfig{
		Name:          "nat",
		Capacity:      64,
		TimeoutNS:     1_000_000_000,
		GranularityNS: gran,
		Costs:         VigNATCosts(),
		FirstPort:     1024,
		PortCount:     64,
	}, alloc)
}

func TestNATMapTranslationLifecycle(t *testing.T) {
	env := newTestEnv()
	nm := newNAT(env, NewAllocatorA(env, 1024, 64), 1_000_000)
	now := uint64(1_000_000)
	env.Time = now

	// New internal flow: allocates a port.
	res, _, _ := invoke(t, env, nm, "add", 0xAAAA, 0xBBBB, 17, 0x0A00000150D0, now)
	if res[1] != AddStatusOK {
		t.Fatalf("add status = %d", res[1])
	}
	port := res[0]
	if port < 1024 || port >= 1088 {
		t.Fatalf("port %d out of range", port)
	}

	// Internal lookup finds the mapping.
	res, _, _ = invoke(t, env, nm, "lookup_int", 0xAAAA, 0xBBBB, 17, now)
	if res[1] != 1 || res[0] != port {
		t.Fatalf("lookup_int = %v, want port %d", res, port)
	}

	// External lookup by port returns the internal info (low 48 bits).
	res, _, _ = invoke(t, env, nm, "lookup_ext", port, now)
	if res[1] != 1 || res[0] != 0x0A00000150D0&uint64(0xffff_ffff_ffff) {
		t.Fatalf("lookup_ext = %v", res)
	}

	// Unknown external port: miss (the NAT4 drop class).
	res, _, _ = invoke(t, env, nm, "lookup_ext", port+1, now)
	if res[1] != 0 {
		t.Fatalf("foreign port lookup = %v", res)
	}

	// Expiry frees the port back to the allocator.
	res, _, _ = invoke(t, env, nm, "expire", now+2_000_000_000)
	if res[0] != 1 {
		t.Fatalf("expire = %d", res[0])
	}
	if nm.Allocator().InUse() != 0 {
		t.Errorf("port not freed: in use %d", nm.Allocator().InUse())
	}
	res, _, _ = invoke(t, env, nm, "lookup_int", 0xAAAA, 0xBBBB, 17, now+2_000_000_000)
	if res[1] != 0 {
		t.Error("expired flow still found")
	}
}

func TestNATMapPortExhaustion(t *testing.T) {
	env := newTestEnv()
	// 4 ports only.
	nm := NewNATMap(env, NATMapConfig{
		Name: "nat", Capacity: 64, TimeoutNS: 1_000_000_000,
		Costs: VigNATCosts(), FirstPort: 2000, PortCount: 4,
	}, NewAllocatorA(env, 2000, 4))
	now := uint64(1)
	for i := uint64(0); i < 4; i++ {
		res, _, _ := invoke(t, env, nm, "add", i, i, 6, i, now)
		if res[1] != AddStatusOK {
			t.Fatalf("add %d = %v", i, res)
		}
	}
	res, _, _ := invoke(t, env, nm, "add", 99, 99, 6, 99, now)
	if res[1] != AddStatusFull {
		t.Fatalf("exhausted add = %v", res)
	}
}

func TestNATMapCapacityFull(t *testing.T) {
	env := newTestEnv()
	nm := NewNATMap(env, NATMapConfig{
		Name: "nat", Capacity: 2, TimeoutNS: 1_000_000_000,
		Costs: VigNATCosts(), FirstPort: 2000, PortCount: 64,
	}, NewAllocatorA(env, 2000, 64))
	now := uint64(1)
	invoke(t, env, nm, "add", 1, 1, 6, 1, now)
	invoke(t, env, nm, "add", 2, 2, 6, 2, now)
	res, _, _ := invoke(t, env, nm, "add", 3, 3, 6, 3, now)
	if res[1] != AddStatusFull {
		t.Fatalf("over-capacity add = %v", res)
	}
}

func TestNATMapContractSoundnessRandom(t *testing.T) {
	for _, allocName := range []string{"A", "B"} {
		t.Run(allocName, func(t *testing.T) {
			env := newTestEnv()
			var alloc PortAllocator
			if allocName == "A" {
				alloc = NewAllocatorA(env, 1024, 64)
			} else {
				alloc = NewAllocatorB(env, 1024, 64)
			}
			nm := newNAT(env, alloc, 1_000_000)
			model := nm.Model()
			rng := rand.New(rand.NewSource(21))
			now := uint64(1)
			for i := 0; i < 2500; i++ {
				now += uint64(rng.Intn(50_000_000))
				env.Time = now
				k := uint64(rng.Intn(48))
				switch rng.Intn(4) {
				case 0:
					res, delta, pcvs := invoke(t, env, nm, "add", k, k+1, 17, k, now)
					label := "ok"
					if res[1] == AddStatusFull {
						label = "full"
					}
					checkOutcome(t, model, "add", label, delta, pcvs)
				case 1:
					res, delta, pcvs := invoke(t, env, nm, "lookup_int", k, k+1, 17, now)
					label := "miss"
					if res[1] == 1 {
						label = "hit"
					}
					checkOutcome(t, model, "lookup_int", label, delta, pcvs)
				case 2:
					res, delta, pcvs := invoke(t, env, nm, "lookup_ext", 1024+uint64(rng.Intn(64)), now)
					label := "miss"
					if res[1] == 1 {
						label = "hit"
					}
					checkOutcome(t, model, "lookup_ext", label, delta, pcvs)
				default:
					_, delta, pcvs := invoke(t, env, nm, "expire", now)
					checkOutcome(t, model, "expire", "ok", delta, pcvs)
				}
			}
		})
	}
}

func TestNATMapExpiryBatchingByGranularity(t *testing.T) {
	const sec = 1_000_000_000
	run := func(gran uint64) (maxBatch uint64) {
		env := newTestEnv()
		nm := NewNATMap(env, NATMapConfig{
			Name: "nat", Capacity: 256, TimeoutNS: 10 * sec, GranularityNS: gran,
			Costs: VigNATCosts(), FirstPort: 1024, PortCount: 256,
		}, NewAllocatorA(env, 1024, 256))
		for i := uint64(0); i < 100; i++ {
			now := sec + i*10_000_000
			invoke(t, env, nm, "add", i, i, 6, i, now)
		}
		for i := uint64(0); i < 300; i++ {
			now := 11*sec + i*10_000_000
			res, _, _ := invoke(t, env, nm, "expire", now)
			if res[0] > maxBatch {
				maxBatch = res[0]
			}
		}
		return maxBatch
	}
	if b := run(sec); b < 50 {
		t.Errorf("second granularity: max batch %d, want ≥ 50", b)
	}
	if b := run(1_000_000); b > 3 {
		t.Errorf("millisecond granularity: max batch %d, want ≤ 3", b)
	}
}

func TestNATMapPathologicalState(t *testing.T) {
	env := newTestEnv()
	nm := NewNATMap(env, NATMapConfig{
		Name: "nat", Capacity: 256, TimeoutNS: 1_000_000_000,
		Costs: VigNATCosts(), FirstPort: 1024, PortCount: 256,
	}, NewAllocatorA(env, 1024, 256))
	now := uint64(10_000_000_000)
	nm.SynthesizePathological(env, 128)
	if nm.Count() != 128 {
		t.Fatalf("count = %d", nm.Count())
	}
	env.Time = now
	res, delta, pcvs := invoke(t, env, nm, "expire", now)
	if res[0] != 128 {
		t.Fatalf("mass expiry = %d", res[0])
	}
	// Triangular walks: the distilled t is the per-entry mean ⌈(N+1)/2⌉.
	if pcvs[PCVTraversals] != 65 {
		t.Errorf("mean traversals = %d, want 65", pcvs[PCVTraversals])
	}
	checkOutcome(t, nm.Model(), "expire", "ok", delta, pcvs)
	if nm.Allocator().InUse() != 0 {
		t.Error("pathological expiry must free all ports")
	}
}

func TestNATMapErrors(t *testing.T) {
	env := newTestEnv()
	nm := newNAT(env, NewAllocatorA(env, 1024, 64), 1)
	for _, c := range []struct {
		m    string
		args []uint64
	}{
		{"expire", nil},
		{"lookup_int", []uint64{1, 2, 3}},
		{"lookup_ext", []uint64{1}},
		{"add", []uint64{1, 2, 3, 4}},
		{"bogus", []uint64{1}},
	} {
		if _, err := nm.Invoke(c.m, c.args, env); err == nil {
			t.Errorf("%s(%v) should fail", c.m, c.args)
		}
	}
}
