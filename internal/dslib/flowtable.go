package dslib

import (
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// Put status codes returned by the "put" method; NF code branches on
// them. They are concrete in both builds, so the branch does not fork.
const (
	PutStatusNew    = 0
	PutStatusKnown  = 1
	PutStatusFull   = 2
	PutStatusRehash = 3
)

// FlowTableCosts parameterises a table instance's cost quanta; they are
// simultaneously the charging schedule of the implementation and the
// coefficients of the expert contract. Fixed parts exclude the keyed
// hash, which is added automatically.
type FlowTableCosts struct {
	GetWalk    chainCosts
	PutWalk    chainCosts
	ExpireWalk chainCosts
	// InsertPerTraversal is extra per-traversal work when a put inserts
	// a new entry (chain relink/dirtying); it is what makes the paper's
	// insert classes carry a larger t coefficient (50·t vs 36·t in
	// Table 4, 44·t in Table 6).
	InsertPerTraversal StepCost

	GetHit, GetMiss   StepCost // get refreshes the entry's age on hit
	PeekHit, PeekMiss StepCost // peek does not
	PutNew            StepCost
	PutKnown          StepCost
	PutFull           StepCost
	ExpireCall        StepCost // fixed per expire() call
	ExpirePerEntry    StepCost // per expired entry (unlink, free)

	RehashPerBucket StepCost // × bucket count (table re-allocation)
	RehashPerEntry  StepCost // × occupancy (re-hash + re-link)
	RehashPerStep   StepCost // × occupancy × traversals (re-insert walks)
}

// VigNATCosts mirror the paper's VigNAT contract (Table 6): 359·e +
// 80·e·c + 38·e·t from expiry, 30·c + 18·t per lookup, 44·t per insert
// walk.
func VigNATCosts() FlowTableCosts {
	return FlowTableCosts{
		GetWalk: chainCosts{
			Step:      StepCost{ALU: 12, Branch: 2, Load: 4, Lines: 1}, // 18·t, one entry line
			ShortSave: StepCost{ALU: 2, Load: 1},                       // coalesced away
			Collision: StepCost{ALU: 22, Branch: 2, Load: 6, Lines: 1}, // 30·c
		},
		PutWalk: chainCosts{
			Step:      StepCost{ALU: 12, Branch: 2, Load: 4, Lines: 1}, // 18·t
			ShortSave: StepCost{ALU: 2, Load: 1},
			Collision: StepCost{ALU: 22, Branch: 2, Load: 6, Lines: 1}, // 30·c
		},
		InsertPerTraversal: StepCost{ALU: 5, Branch: 1, Load: 2, Lines: 1}, // +8·t on insert → 44·t per new flow
		ExpireWalk: chainCosts{
			Step:      StepCost{ALU: 28, Branch: 2, Load: 8, Lines: 1}, // 38·(e·t)
			ShortSave: StepCost{ALU: 2, Load: 1},
			Collision: StepCost{ALU: 64, Branch: 4, Load: 12, Lines: 2}, // 80·(e·c)
		},
		GetHit:     StepCost{ALU: 80, Branch: 10, Load: 14, Store: 10, Lines: 4},
		GetMiss:    StepCost{ALU: 28, Branch: 6, Load: 6, Lines: 2},
		PeekHit:    StepCost{ALU: 60, Branch: 8, Load: 12, Lines: 3},
		PeekMiss:   StepCost{ALU: 28, Branch: 6, Load: 6, Lines: 2},
		PutNew:     StepCost{ALU: 180, Branch: 14, Load: 30, Store: 26, Lines: 6},
		PutKnown:   StepCost{ALU: 70, Branch: 8, Load: 12, Store: 10, Lines: 4},
		PutFull:    StepCost{ALU: 52, Branch: 8, Load: 10, Lines: 3},
		ExpireCall: StepCost{ALU: 8, Branch: 2, Load: 2, Lines: 1},
		// 301·e here; the NAT map adds the allocator's 58·e free cost,
		// landing on the paper's 359·e (Table 6).
		ExpirePerEntry: StepCost{ALU: 250, Branch: 13, Load: 24, Store: 14, Lines: 5},
	}
}

// BridgeCosts mirror the bridge contract (Table 4): 245·e + 82·e·c +
// 19·e·t from expiry, 72·c and 18·t per operation (two table operations
// per packet → the published 144·c and 36·t), a costlier insert walk
// (+14·t → the published 50·t), and the rehash defence's 124·o + 14·t·o
// plus a large fixed bucket-reallocation term.
func BridgeCosts() FlowTableCosts {
	return FlowTableCosts{
		GetWalk: chainCosts{
			Step:      StepCost{ALU: 12, Branch: 2, Load: 4, Lines: 1}, // 18·t
			ShortSave: StepCost{ALU: 1, Load: 1},
			Collision: StepCost{ALU: 56, Branch: 4, Load: 12, Lines: 2}, // 72·c
		},
		PutWalk: chainCosts{
			Step:      StepCost{ALU: 12, Branch: 2, Load: 4, Lines: 1}, // 18·t
			ShortSave: StepCost{ALU: 1, Load: 1},
			Collision: StepCost{ALU: 56, Branch: 4, Load: 12, Lines: 2}, // 72·c
		},
		InsertPerTraversal: StepCost{ALU: 10, Branch: 1, Load: 3, Lines: 1}, // +14·t on insert → the published 50·t
		ExpireWalk: chainCosts{
			Step:      StepCost{ALU: 13, Branch: 2, Load: 4, Lines: 1}, // 19·(e·t)
			ShortSave: StepCost{ALU: 1, Load: 1},
			Collision: StepCost{ALU: 66, Branch: 4, Load: 12, Lines: 2}, // 82·(e·c)
		},
		GetHit:          StepCost{ALU: 48, Branch: 8, Load: 10, Lines: 3},
		GetMiss:         StepCost{ALU: 22, Branch: 5, Load: 5, Lines: 2},
		PeekHit:         StepCost{ALU: 48, Branch: 8, Load: 10, Lines: 3},
		PeekMiss:        StepCost{ALU: 22, Branch: 5, Load: 5, Lines: 2},
		PutNew:          StepCost{ALU: 120, Branch: 10, Load: 22, Store: 20, Lines: 5},
		PutKnown:        StepCost{ALU: 50, Branch: 6, Load: 10, Store: 8, Lines: 3},
		PutFull:         StepCost{ALU: 40, Branch: 6, Load: 8, Lines: 3},
		ExpireCall:      StepCost{ALU: 8, Branch: 2, Load: 2, Lines: 1},
		ExpirePerEntry:  StepCost{ALU: 200, Branch: 13, Load: 20, Store: 12, Lines: 4}, // 245·e
		RehashPerBucket: StepCost{ALU: 12, Branch: 1, Store: 2, Lines: 1},              // 15 × buckets
		RehashPerEntry:  StepCost{ALU: 96, Branch: 8, Load: 12, Store: 8, Lines: 3},    // 124·o
		RehashPerStep:   StepCost{ALU: 10, Branch: 1, Load: 3, Lines: 1},               // 14·t·o
	}
}

// FlowTableConfig configures one table instance.
type FlowTableConfig struct {
	// Name labels the instance in errors.
	Name string
	// Capacity is the maximum number of entries; Buckets defaults to it.
	Capacity int
	Buckets  int
	// KeyWords is the key width in 64-bit words (1 for a MAC address).
	KeyWords int
	// TimeoutNS ages entries out; 0 disables expiry.
	TimeoutNS uint64
	// GranularityNS quantises entry timestamps. VigNAT's bug (§5.3) is
	// this set to one second; the fix is one millisecond.
	GranularityNS uint64
	// RehashThreshold enables the keyed-hash defence (§5.2): a put whose
	// walk exceeds it renews the hash secret and rebuilds the table.
	RehashThreshold uint64
	// Seed seeds the hash secret (deterministic for reproducibility).
	Seed  uint64
	Costs FlowTableCosts
	// ValueDomain bounds stored values in the symbolic model (e.g. a
	// bridge stores port numbers < Ports); nil means unconstrained.
	ValueDomain *symb.Domain
}

// FlowTable is the chained hash table with expiry that backs the bridge's
// MAC table and the NAT/LB flow tables. It implements nfir.ConcreteDS.
//
// IR methods:
//
//	expire(now)            -> expired-count
//	get(k..., now)         -> value, found     (refreshes age on hit)
//	peek(k...)             -> value, found
//	put(k..., value, now)  -> status           (see PutStatus*)
type FlowTable struct {
	cfg FlowTableConfig
	ch  *chains
	rng uint64
}

// NewFlowTable builds a table registered against the environment's heap
// (for stable simulated addresses).
func NewFlowTable(env *nfir.Env, cfg FlowTableConfig) *FlowTable {
	if cfg.Buckets == 0 {
		cfg.Buckets = cfg.Capacity
	}
	if cfg.KeyWords <= 0 {
		cfg.KeyWords = 1
	}
	if cfg.GranularityNS == 0 {
		cfg.GranularityNS = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &FlowTable{
		cfg: cfg,
		ch:  newChains(env, cfg.Buckets, cfg.KeyWords, seed),
		rng: seed * 0x2545f4914f6cdd1d,
	}
}

// Count returns the current occupancy.
func (t *FlowTable) Count() int { return t.ch.count }

// HashSecret exposes the current keyed-hash secret so the adversarial
// traffic generator (the CASTAN stand-in) can search for colliding keys,
// playing the attacker who knows the algorithm and, in the white-box
// worst case, the key.
func (t *FlowTable) HashSecret() uint64 { return t.ch.hashKey }

// BucketOf returns the bucket index and tag a key currently maps to
// (adversarial-generation helper).
func (t *FlowTable) BucketOf(keys []uint64) (int, uint16) { return t.ch.locate(keys) }

func (t *FlowTable) quantize(now uint64) uint64 { return now - now%t.cfg.GranularityNS }

// SynthesizePathological fills the table with n entries that all collide
// into one bucket with identical tags and a zero stamp, so any packet
// arriving later than the timeout mass-expires them. This reproduces the
// paper's methodology for Br1/NAT1/LB1: "we modified the NF to
// synthesise the necessary state" because no PCAP file reaches it.
func (t *FlowTable) SynthesizePathological(env *nfir.Env, n int) {
	t.ch.synthesize(env, n, t.cfg.Capacity, func(i int, keys []uint64) (uint64, bool) {
		keys[0] = uint64(i) + 1
		return uint64(i), true
	})
}

// Invoke implements nfir.ConcreteDS.
func (t *FlowTable) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	kw := t.cfg.KeyWords
	switch method {
	case "expire":
		if len(args) != 1 {
			return nil, fmt.Errorf("expire wants (now), got %d args", len(args))
		}
		return env.Results(t.expire(env, args[0])), nil
	case "get":
		if len(args) != kw+1 {
			return nil, fmt.Errorf("get wants (%d key words, now), got %d args", kw, len(args))
		}
		return t.get(env, args[:kw], args[kw]), nil
	case "peek":
		if len(args) != kw {
			return nil, fmt.Errorf("peek wants %d key words, got %d args", kw, len(args))
		}
		return t.peek(env, args), nil
	case "put":
		if len(args) != kw+2 {
			return nil, fmt.Errorf("put wants (%d key words, value, now), got %d args", kw, len(args))
		}
		return env.Results(t.put(env, args[:kw], args[kw], args[kw+1])), nil
	default:
		return nil, fmt.Errorf("flowtable %s: unknown method %q", t.cfg.Name, method)
	}
}

func (t *FlowTable) expire(env *nfir.Env, now uint64) uint64 {
	charge(env, t.cfg.Costs.ExpireCall, []uint64{t.ch.bucketsAddr}, false)
	var e uint64
	if t.cfg.TimeoutNS == 0 {
		env.ObservePCV(PCVExpired, 0)
		return 0
	}
	var sumT, sumC uint64
	for t.ch.oldest != nil && t.ch.oldest.stamp+t.cfg.TimeoutNS <= now {
		victim := t.ch.oldest
		wt, wc := t.ch.findEntry(env, victim, t.cfg.Costs.ExpireWalk)
		sumT += wt
		sumC += wc
		charge(env, t.cfg.Costs.ExpirePerEntry, []uint64{victim.addr, t.ch.bucketsAddr + uint64(victim.bucket)*8}, false)
		t.ch.remove(victim)
		e++
	}
	// Expiry observes t and c as per-entry means (rounded up): the
	// expiry cost is exactly e·mean, so the e·t / e·c contract terms stay
	// tight even for the pathological mass-expiry state whose walks are
	// triangular — the reason the paper's over-estimation stays ≤2.4%
	// even when performance degrades by orders of magnitude (§5.1).
	if e > 0 {
		env.ObservePCVMax(PCVTraversals, ceilDiv(sumT, e))
		env.ObservePCVMax(PCVCollisions, ceilDiv(sumC, e))
	}
	env.ObservePCV(PCVExpired, e)
	return e
}

func (t *FlowTable) get(env *nfir.Env, keys []uint64, now uint64) []uint64 {
	ent, wt, wc := t.ch.walk(env, keys, t.cfg.Costs.GetWalk)
	env.ObservePCVMax(PCVTraversals, wt)
	env.ObservePCVMax(PCVCollisions, wc)
	if ent == nil {
		charge(env, t.cfg.Costs.GetMiss, []uint64{t.ch.bucketsAddr}, false)
		return env.Results(0, 0)
	}
	charge(env, t.cfg.Costs.GetHit, []uint64{ent.addr}, false)
	t.ch.refresh(ent, t.quantize(now))
	return env.Results(ent.val, 1)
}

func (t *FlowTable) peek(env *nfir.Env, keys []uint64) []uint64 {
	ent, wt, wc := t.ch.walk(env, keys, t.cfg.Costs.GetWalk)
	env.ObservePCVMax(PCVTraversals, wt)
	env.ObservePCVMax(PCVCollisions, wc)
	if ent == nil {
		charge(env, t.cfg.Costs.PeekMiss, []uint64{t.ch.bucketsAddr}, false)
		return env.Results(0, 0)
	}
	charge(env, t.cfg.Costs.PeekHit, []uint64{ent.addr}, false)
	return env.Results(ent.val, 1)
}

func (t *FlowTable) put(env *nfir.Env, keys []uint64, value, now uint64) uint64 {
	ent, wt, wc := t.ch.walk(env, keys, t.cfg.Costs.PutWalk)
	env.ObservePCVMax(PCVTraversals, wt)
	env.ObservePCVMax(PCVCollisions, wc)
	if ent != nil {
		charge(env, t.cfg.Costs.PutKnown, []uint64{ent.addr}, false)
		ent.val = value
		t.ch.refresh(ent, t.quantize(now))
		return PutStatusKnown
	}
	if t.ch.count >= t.cfg.Capacity {
		charge(env, t.cfg.Costs.PutFull, []uint64{t.ch.bucketsAddr}, false)
		return PutStatusFull
	}
	e := t.ch.insert(env, keys, value, t.quantize(now))
	for i := uint64(0); i < wt; i++ {
		charge(env, t.cfg.Costs.InsertPerTraversal, []uint64{e.addr}, true)
	}
	charge(env, t.cfg.Costs.PutNew, []uint64{e.addr, t.ch.bucketsAddr + uint64(e.bucket)*8}, false)
	if t.cfg.RehashThreshold > 0 && wt > t.cfg.RehashThreshold {
		t.rehash(env)
		return PutStatusRehash
	}
	return PutStatusNew
}

// rehash renews the hash secret and rebuilds the table — the bridge's
// collision-attack defence, whose cost cliff §5.2 analyses.
func (t *FlowTable) rehash(env *nfir.Env) {
	occupancy := uint64(t.ch.count)
	env.ObservePCVMax(PCVOccupancy, occupancy)
	// Bucket-array reallocation: a bulk charge per bucket.
	pb := t.cfg.Costs.RehashPerBucket
	env.Meter.Exec(perf.OpALU, pb.ALU*uint64(t.cfg.Buckets))
	env.Meter.Exec(perf.OpBranch, pb.Branch*uint64(t.cfg.Buckets))
	for i := 0; i < t.cfg.Buckets; i++ {
		for s := uint64(0); s < pb.Store; s++ {
			env.Meter.Store(t.ch.bucketsAddr+uint64(i)*8, 8)
		}
	}
	t.rng = t.rng*6364136223846793005 + 1442695040888963407
	meanT := t.ch.rekey(env, t.rng, t.cfg.Costs.RehashPerEntry, t.cfg.Costs.RehashPerStep)
	env.ObservePCVMax(PCVTraversals, meanT)
}

// Model returns the symbolic model + contract for this table instance
// (paper §3.2: written once per library structure by experts).
func (t *FlowTable) Model() nfir.Model { return ftModel{t: t} }

type ftModel struct{ t *FlowTable }

func (m ftModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	cfg := m.t.cfg
	cap64 := uint64(cfg.Capacity)
	cPCVs := []nfir.PCV{
		{Name: PCVCollisions, Range: expr.Range{Lo: 0, Hi: cap64}},
		{Name: PCVTraversals, Range: expr.Range{Lo: 0, Hi: cap64}},
	}
	walkCost := func(w chainCosts) map[perf.Metric]expr.Poly {
		return buildCost(
			costTerm{w.Step, []string{PCVTraversals}},
			costTerm{w.Collision, []string{PCVCollisions}},
		)
	}
	fixed := func(s StepCost) map[perf.Metric]expr.Poly {
		return buildCost(costTerm{s.Add(m.t.ch.hashCost()), nil})
	}
	fixedNoHash := func(s StepCost) map[perf.Metric]expr.Poly {
		return buildCost(costTerm{s, nil})
	}

	switch method {
	case "expire":
		e := fresh("expired")
		cost := addCost(nil,
			fixedNoHash(cfg.Costs.ExpireCall),
			buildCost(
				costTerm{cfg.Costs.ExpirePerEntry, []string{PCVExpired}},
				costTerm{cfg.Costs.ExpireWalk.Step, []string{PCVExpired, PCVTraversals}},
				costTerm{cfg.Costs.ExpireWalk.Collision, []string{PCVExpired, PCVCollisions}},
			),
		)
		return []nfir.Outcome{{
			Label:   "ok",
			Results: []symb.Expr{e},
			Domains: map[string]symb.Domain{e.Name: {Lo: 0, Hi: cap64}},
			Cost:    cost,
			PCVs: append([]nfir.PCV{
				{Name: PCVExpired, Range: expr.Range{Lo: 0, Hi: cap64}},
			}, cPCVs...),
		}}

	case "get", "peek":
		hitFixed, missFixed := cfg.Costs.GetHit, cfg.Costs.GetMiss
		if method == "peek" {
			hitFixed, missFixed = cfg.Costs.PeekHit, cfg.Costs.PeekMiss
		}
		val := fresh("val")
		valDomain := symb.Full
		if cfg.ValueDomain != nil {
			valDomain = *cfg.ValueDomain
		}
		return []nfir.Outcome{
			{
				Label:   "hit",
				Results: []symb.Expr{val, symb.C(1)},
				Domains: map[string]symb.Domain{val.Name: valDomain},
				Cost:    addCost(nil, fixed(hitFixed), walkCost(cfg.Costs.GetWalk)),
				PCVs:    cPCVs,
			},
			{
				Label:   "miss",
				Results: []symb.Expr{symb.C(0), symb.C(0)},
				Cost:    addCost(nil, fixed(missFixed), walkCost(cfg.Costs.GetWalk)),
				PCVs:    cPCVs,
			},
		}

	case "put":
		outcomes := []nfir.Outcome{
			{
				Label:   "known",
				Results: []symb.Expr{symb.C(PutStatusKnown)},
				Cost:    addCost(nil, fixed(cfg.Costs.PutKnown), walkCost(cfg.Costs.PutWalk)),
				PCVs:    cPCVs,
			},
			{
				Label:   "new",
				Results: []symb.Expr{symb.C(PutStatusNew)},
				Cost: addCost(nil, fixed(cfg.Costs.PutNew), walkCost(cfg.Costs.PutWalk),
					buildCost(costTerm{cfg.Costs.InsertPerTraversal, []string{PCVTraversals}})),
				PCVs: cPCVs,
			},
			{
				Label:   "full",
				Results: []symb.Expr{symb.C(PutStatusFull)},
				Cost:    addCost(nil, fixed(cfg.Costs.PutFull), walkCost(cfg.Costs.PutWalk)),
				PCVs:    cPCVs,
			},
		}
		if cfg.RehashThreshold > 0 {
			rehashCost := addCost(nil,
				fixed(cfg.Costs.PutNew),
				walkCost(cfg.Costs.PutWalk),
				buildCost(costTerm{cfg.Costs.InsertPerTraversal, []string{PCVTraversals}}),
				buildCost(
					costTerm{scaleStep(cfg.Costs.RehashPerBucket, uint64(cfg.Buckets)), nil},
					costTerm{cfg.Costs.RehashPerEntry, []string{PCVOccupancy}},
					costTerm{cfg.Costs.RehashPerStep, []string{PCVTraversals, PCVOccupancy}},
				),
			)
			outcomes = append(outcomes, nfir.Outcome{
				Label:   "rehash",
				Results: []symb.Expr{symb.C(PutStatusRehash)},
				Cost:    rehashCost,
				PCVs: append([]nfir.PCV{
					{Name: PCVOccupancy, Range: expr.Range{Lo: 0, Hi: cap64}},
				}, cPCVs...),
			})
		}
		return outcomes
	default:
		return nil
	}
}

func scaleStep(s StepCost, k uint64) StepCost {
	return StepCost{ALU: s.ALU * k, Mul: s.Mul * k, Branch: s.Branch * k,
		Load: s.Load * k, Store: s.Store * k, Lines: s.Lines * k}
}
