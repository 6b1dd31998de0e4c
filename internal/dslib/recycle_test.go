package dslib

import (
	"slices"
	"sync"
	"testing"

	"gobolt/internal/nfir"
)

// recycleSeed is the hash secret of every table FuzzFlowTableRecycle
// builds; colliders are found under it.
const recycleSeed = 0x51ed

// colliders returns, per bucket count 1–3, three two-word keys that share
// one bucket and one tag under recycleSeed, so walks over them compare
// full keys and count collisions.
var colliders = sync.OnceValue(func() [4][][]uint64 {
	var out [4][][]uint64
	for nb := 1; nb <= 3; nb++ {
		c := &chains{nbuckets: nb, hashKey: recycleSeed}
		b0, t0 := c.locate([]uint64{1, 0})
		keys := [][]uint64{{1, 0}}
		for x := uint64(2); len(keys) < 3; x++ {
			if b, tag := c.locate([]uint64{x, 0}); b == b0 && tag == t0 {
				keys = append(keys, []uint64{x, 0})
			}
		}
		out[nb] = keys
	}
	return out
})

// liveEntry is one oracle entry; the oracle is a slice of them in age
// order, oldest first.
type liveEntry struct {
	key        []uint64
	val, stamp uint64
}

// FuzzFlowTableRecycle drives random put/get/peek/expire sequences
// through a tiny table (1–3 buckets, capacity 2–5, keys that collide in
// bucket and tag, optionally the rehash defence) and checks every result,
// found flag, status, Count() and expiry against a map oracle kept in age
// order. After each call the table's own links must agree with the
// oracle: the age list, each entry's bucket, key, value and stamp, and
// live plus free entries equal to the peak occupancy, so an entry is
// allocated only when none is free. The caller's argument slice is reused
// for every call, so a reused entry that aliased it instead of copying
// the key would show.
func FuzzFlowTableRecycle(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 4, 1, 8, 1, 12, 9, 16, 7, 3, 200, 0, 1, 4, 1, 3, 0})
	f.Add(uint8(0x25), []byte{0, 0, 4, 0, 8, 0, 12, 0, 16, 0, 3, 30, 20, 0, 1, 0, 2, 0, 5, 0, 9, 0})
	f.Add(uint8(0x12), []byte{0, 2, 4, 2, 1, 3, 3, 7, 3, 7, 0, 1, 12, 2, 8, 2, 13, 1, 14, 1, 3, 255})
	f.Fuzz(func(t *testing.T, cfgIn uint8, ops []byte) {
		const timeout = 16
		nb := int(cfgIn%3) + 1
		capacity := int(cfgIn/3%4) + 2
		var threshold uint64
		if cfgIn&0x20 != 0 {
			threshold = 2
		}
		gran := uint64(1)
		if cfgIn&0x40 != 0 {
			gran = 4
		}
		env := newTestEnv()
		ft := NewFlowTable(env, FlowTableConfig{
			Name: "recycle", Capacity: capacity, Buckets: nb, KeyWords: 2,
			TimeoutNS: timeout, GranularityNS: gran, RehashThreshold: threshold,
			Seed: recycleSeed, Costs: BridgeCosts(),
		})
		pool := append(slices.Clone(colliders()[nb]), []uint64{2, 7}, []uint64{3, 0}, []uint64{0, 3})

		var o []liveEntry
		args := make([]uint64, 4)
		now, peak := uint64(1), 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i]%4, pool[int(ops[i]/4)%len(pool)]
			now += uint64(ops[i+1] % 8)
			val, q := uint64(ops[i+1]), now-now%gran
			at := slices.IndexFunc(o, func(l liveEntry) bool { return slices.Equal(l.key, key) })
			// refresh moves the entry at `at` to the young end with value v.
			refresh := func(v uint64) {
				o = append(slices.Delete(o, at, at+1), liveEntry{key, v, q})
			}
			var got, want []uint64
			switch op {
			case 0: // put
				b, _ := ft.BucketOf(key)
				chain := len(ft.ch.buckets[b])
				args = append(append(args[:0], key...), val, now)
				got = call(t, env, ft, "put", args)
				switch {
				case at >= 0:
					want = []uint64{PutStatusKnown}
					refresh(val)
				case len(o) >= capacity:
					want = []uint64{PutStatusFull}
				default:
					want = []uint64{PutStatusNew}
					if threshold > 0 && uint64(chain) > threshold {
						want = []uint64{PutStatusRehash}
					}
					o = append(o, liveEntry{key, val, q})
				}
			case 1, 2: // get refreshes a hit, peek does not
				method := "get"
				args = append(args[:0], key...)
				if op == 2 {
					method = "peek"
				} else {
					args = append(args, now)
				}
				got = call(t, env, ft, method, args)
				want = []uint64{0, 0}
				if at >= 0 {
					want = []uint64{o[at].val, 1}
					if op == 1 {
						refresh(o[at].val)
					}
				}
			case 3: // expire
				args = append(args[:0], now)
				got = call(t, env, ft, "expire", args)
				n := 0
				for n < len(o) && o[n].stamp+timeout <= now {
					n++
				}
				want = []uint64{uint64(n)}
				o = o[n:]
			}
			peak = max(peak, len(o))
			if !slices.Equal(got, want) {
				t.Fatalf("op %d %v %v at %d: got %v, want %v", i/2, op, key, now, got, want)
			}
			checkRecycled(t, ft, o, peak)
		}
	})
}

// call invokes one method and copies its results out of the environment.
func call(t *testing.T, env *nfir.Env, ds nfir.ConcreteDS, method string, args []uint64) []uint64 {
	t.Helper()
	res, err := ds.Invoke(method, args, env)
	if err != nil {
		t.Fatalf("%s%v: %v", method, args, err)
	}
	return slices.Clone(res)
}

// checkRecycled compares the table's links with the oracle: the age list
// holds the oracle's entries in its order, each entry sits in the bucket
// its key hashes to under its own tag, the buckets hold nothing else,
// and the live and free entries together number the peak occupancy.
func checkRecycled(t *testing.T, ft *FlowTable, o []liveEntry, peak int) {
	t.Helper()
	ch := ft.ch
	if ft.Count() != len(o) {
		t.Fatalf("Count() = %d, oracle holds %d", ft.Count(), len(o))
	}
	var prev *centry
	i := 0
	for e := ch.oldest; e != nil; e, i = e.nextAge, i+1 {
		if i >= len(o) {
			t.Fatalf("age list longer than the oracle's %d entries", len(o))
		}
		if e.prevAge != prev {
			t.Fatalf("age entry %d: stale back link", i)
		}
		if l := o[i]; !slices.Equal(e.keys, l.key) || e.val != l.val || e.stamp != l.stamp {
			t.Fatalf("age entry %d is %v=%d@%d, oracle %v=%d@%d", i, e.keys, e.val, e.stamp, l.key, l.val, l.stamp)
		}
		if b, tag := ch.locate(e.keys); b != e.bucket || tag != e.tag {
			t.Fatalf("entry %v records bucket %d tag %d, hashes to %d, %d", e.keys, e.bucket, e.tag, b, tag)
		}
		if !slices.Contains(ch.buckets[e.bucket], e) {
			t.Fatalf("entry %v missing from its bucket", e.keys)
		}
		prev = e
	}
	if i != len(o) || ch.newest != prev {
		t.Fatalf("age list holds %d entries, oracle %d, or its newest is not its last", i, len(o))
	}
	linked := 0
	for _, b := range ch.buckets {
		linked += len(b)
	}
	if linked != len(o) {
		t.Fatalf("buckets hold %d entries, oracle %d", linked, len(o))
	}
	free := 0
	for e := ch.free; e != nil; e = e.nextAge {
		free++
	}
	if free+len(o) != peak {
		t.Fatalf("%d live and %d free entries, peak occupancy %d", len(o), free, peak)
	}
}
