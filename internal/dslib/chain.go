package dslib

import (
	"gobolt/internal/nfir"
)

// chainCosts parameterises the metered cost of one bucket-chain walk; the
// same quanta appear as the PCV coefficients of the owning structure's
// contract, so implementation and contract cannot drift apart.
type chainCosts struct {
	// Step is the full cost of inspecting one chain entry, including a
	// complete key comparison (the contract's per-traversal coefficient).
	Step StepCost
	// ShortSave is what the implementation saves when the 16-bit tag
	// already differs and the full key comparison is skipped. The
	// contract coalesces this away (paper §6, over-estimation source 1).
	ShortSave StepCost
	// Collision is the extra work when the tag matches but the key
	// differs (the contract's per-collision coefficient).
	Collision StepCost
}

// centry is one hash-table entry. Entries form per-bucket chains (Go
// slices standing for the linked chains, with per-entry simulated
// addresses) and one global age-ordered list for expiry. An entry that
// expiry removed waits on the free list, linked through nextAge, for the
// next insert to reuse it.
type centry struct {
	keys  []uint64
	tag   uint16
	val   uint64
	stamp uint64
	addr  uint64

	prevAge, nextAge *centry
	bucket           int
}

// chains is a keyed chained hash index with an age list. It meters every
// inspected entry and reports the walk's traversal and collision counts,
// from which callers observe the t and c PCVs.
//
// Like libVig's fixed-capacity maps, it recycles entries: remove puts an
// entry on the free list and insert takes it back, so the entries ever
// allocated are bounded by the peak occupancy and a churning table
// allocates nothing per flow. A reused entry still takes a fresh
// simulated address, so the metered streams are those of a table that
// allocates every entry.
type chains struct {
	nbuckets    int
	hashKey     uint64
	keyLen      int
	buckets     [][]*centry
	count       int
	bucketsAddr uint64

	oldest, newest *centry
	free           *centry
}

func newChains(env *nfir.Env, nbuckets, keyLen int, seed uint64) *chains {
	c := &chains{
		nbuckets: nbuckets,
		hashKey:  seed,
		keyLen:   keyLen,
		buckets:  make([][]*centry, nbuckets),
	}
	c.bucketsAddr = env.Heap.Alloc(uint64(nbuckets) * 8)
	return c
}

// mix is the keyed hash: splitmix64-style finalisation over the key words
// XORed with the secret. The low 16 bits are the tag; the bucket comes
// from the bits above, so tag collisions and bucket collisions are
// (mostly) independent, as in a tagged cuckoo/chained table.
func mix(keys []uint64, hashKey uint64) uint64 {
	h := hashKey
	for _, k := range keys {
		h ^= k
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func (c *chains) locate(keys []uint64) (bucket int, tag uint16) {
	h := mix(keys, c.hashKey)
	return int((h >> 16) % uint64(c.nbuckets)), uint16(h)
}

// hashCost is the metered cost of computing the keyed hash (2 multiplies
// and a few ALU ops per key word) plus the bucket-head load.
func (c *chains) hashCost() StepCost {
	return StepCost{ALU: uint64(3 * c.keyLen), Mul: uint64(2 * c.keyLen), Load: 1}
}

// walk inspects the bucket chain for keys, charging per costs, and
// returns the matching entry (nil if absent) plus the traversal and
// collision counts. The caller observes the PCVs.
func (c *chains) walk(env *nfir.Env, keys []uint64, costs chainCosts) (e *centry, t, col uint64) {
	bucket, tag := c.locate(keys)
	charge(env, c.hashCost(), []uint64{c.bucketsAddr + uint64(bucket)*8}, false)
	var found *centry
	for _, ent := range c.buckets[bucket] {
		t++
		if ent.tag != tag {
			// Tag mismatch: the full key comparison is skipped. The
			// contract charges the full Step anyway.
			charge(env, subStep(costs.Step, costs.ShortSave), []uint64{ent.addr}, true)
			continue
		}
		charge(env, costs.Step, []uint64{ent.addr}, true)
		if keysEqual(ent.keys, keys) {
			found = ent
			break
		}
		col++
		charge(env, costs.Collision, []uint64{ent.addr}, true)
	}
	return found, t, col
}

// findEntry walks the entry's own bucket until the entry itself is found
// (a pointer-identity walk, as expiry does); it must be present.
func (c *chains) findEntry(env *nfir.Env, target *centry, costs chainCosts) (t, col uint64) {
	for _, ent := range c.buckets[target.bucket] {
		t++
		if ent == target {
			charge(env, subStep(costs.Step, costs.ShortSave), []uint64{ent.addr}, true)
			return t, col
		}
		if ent.tag == target.tag {
			col++
			charge(env, costs.Step.Add(costs.Collision), []uint64{ent.addr}, true)
		} else {
			charge(env, subStep(costs.Step, costs.ShortSave), []uint64{ent.addr}, true)
		}
	}
	panic("dslib: entry missing from its own bucket")
}

// entry takes an entry off the free list, or allocates one when the list
// is empty, and overwrites every field: the key is copied into the
// entry's own key slice, and the entry gets a fresh simulated address.
// The caller links it and counts it.
func (c *chains) entry(env *nfir.Env, keys []uint64, tag uint16, val, stamp uint64, bucket int) *centry {
	e := c.free
	if e == nil {
		e = &centry{keys: make([]uint64, 0, c.keyLen)}
	} else {
		c.free = e.nextAge
	}
	*e = centry{
		keys:   append(e.keys[:0], keys...),
		tag:    tag,
		val:    val,
		stamp:  stamp,
		addr:   env.Heap.Alloc(64),
		bucket: bucket,
	}
	return e
}

// insert adds a new entry at the chain tail and age-list tail. The walk
// cost has already been charged by the caller.
func (c *chains) insert(env *nfir.Env, keys []uint64, val, stamp uint64) *centry {
	bucket, tag := c.locate(keys)
	e := c.entry(env, keys, tag, val, stamp, bucket)
	c.buckets[bucket] = append(c.buckets[bucket], e)
	c.ageAppend(e)
	c.count++
	return e
}

// remove unlinks the entry from its bucket chain and the age list and
// puts it on the free list. The caller must not use it afterwards.
func (c *chains) remove(e *centry) {
	chain := c.buckets[e.bucket]
	for i, ent := range chain {
		if ent == e {
			c.buckets[e.bucket] = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	c.ageRemove(e)
	c.count--
	e.nextAge, c.free = c.free, e
}

// synthesize builds the pathological state of the paper's Br1/NAT1/LB1
// rows, which no packet trace reaches: up to n entries, while the count
// stays under capacity, all in bucket 0 with tag 0 and stamp 0, so any
// packet long enough after time 0 mass-expires them. next(i, keys) fills
// entry i's key into the zeroed keys and returns its value, or false to
// stop early. The age order is the chain order reversed: the oldest
// entry sits at the chain tail, so each expiry walks the whole remaining
// chain, the quadratic worst case the e·t contract term bounds.
func (c *chains) synthesize(env *nfir.Env, n, capacity int, next func(i int, keys []uint64) (val uint64, ok bool)) []*centry {
	var created []*centry
	keys := make([]uint64, c.keyLen)
	for i := 0; i < n && c.count < capacity; i++ {
		clear(keys)
		val, ok := next(i, keys)
		if !ok {
			break
		}
		e := c.entry(env, keys, 0, val, 0, 0)
		c.buckets[0] = append(c.buckets[0], e)
		created = append(created, e)
		c.count++
	}
	for i := len(created) - 1; i >= 0; i-- {
		c.ageAppend(created[i])
	}
	return created
}

func (c *chains) ageAppend(e *centry) {
	e.prevAge, e.nextAge = c.newest, nil
	if c.newest != nil {
		c.newest.nextAge = e
	}
	c.newest = e
	if c.oldest == nil {
		c.oldest = e
	}
}

func (c *chains) ageRemove(e *centry) {
	if e.prevAge != nil {
		e.prevAge.nextAge = e.nextAge
	} else {
		c.oldest = e.nextAge
	}
	if e.nextAge != nil {
		e.nextAge.prevAge = e.prevAge
	} else {
		c.newest = e.prevAge
	}
	e.prevAge, e.nextAge = nil, nil
}

// refresh moves the entry to the age-list tail with a new stamp.
func (c *chains) refresh(e *centry, stamp uint64) {
	c.ageRemove(e)
	e.stamp = stamp
	c.ageAppend(e)
}

// rekey rebuilds every bucket under a new hash secret, returning the
// per-entry mean insertion traversal, rounded up (for the t·o contract
// term: the total re-insert walk cost is exactly occupancy·mean).
func (c *chains) rekey(env *nfir.Env, newKey uint64, perEntry StepCost, perStep StepCost) uint64 {
	c.hashKey = newKey
	old := c.buckets
	c.buckets = make([][]*centry, c.nbuckets)
	var sum, n uint64
	for _, chain := range old {
		for _, e := range chain {
			bucket, tag := c.locate(e.keys)
			e.bucket, e.tag = bucket, tag
			c.buckets[bucket] = append(c.buckets[bucket], e)
			pos := uint64(len(c.buckets[bucket]))
			charge(env, perEntry, []uint64{e.addr}, false)
			for i := uint64(0); i < pos; i++ {
				charge(env, perStep, []uint64{e.addr}, true)
			}
			sum += pos
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (sum + n - 1) / n
}

func keysEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subStep subtracts the savings from a full step, clamping at zero.
func subStep(full, save StepCost) StepCost {
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	return StepCost{
		ALU:    sub(full.ALU, save.ALU),
		Mul:    sub(full.Mul, save.Mul),
		Branch: sub(full.Branch, save.Branch),
		Load:   sub(full.Load, save.Load),
		Store:  sub(full.Store, save.Store),
		Lines:  full.Lines,
	}
}
