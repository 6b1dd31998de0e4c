package dslib

import (
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// MaglevRing is the consistent-hashing backend selector of the
// Maglev-like load balancer [paper ref 17], combined with the backend
// liveness tracking the LB's input classes LB3/LB4/LB5 exercise:
//
//   - pick(hash)             -> backend            (ring lookup)
//   - pick_alive(hash, now)  -> backend, found     (skip dead backends)
//   - heartbeat(idx, now)    -> ok
//   - alive(idx, now)        -> 1/0
//
// The ring is populated with Maglev's permutation-fill algorithm: each
// backend fills table slots in the order offset, offset+skip, … so that
// backends own nearly equal shares and a backend's removal only moves
// its own slots.
type MaglevRing struct {
	table    []int
	nb       int
	m        int
	hbStamp  []uint64
	hbAddr   uint64
	ringAddr uint64
	// TimeoutNS: a backend with no heartbeat for this long is dead.
	TimeoutNS uint64
}

// Maglev step costs.
var (
	maglevPick     = StepCost{ALU: 6, Mul: 1, Branch: 1, Load: 1}             // ring lookup
	maglevAliveChk = StepCost{ALU: 4, Branch: 2, Load: 1}                     // liveness check
	maglevFallStep = StepCost{ALU: 5, Branch: 2, Load: 2}                     // per fallback probe
	maglevHB       = StepCost{ALU: 6, Branch: 1, Load: 1, Store: 1, Lines: 1} // heartbeat store
)

// PCVBackendProbes is the PCV counting fallback probes over the ring
// when the primary backend is dead ("b" in reports).
const PCVBackendProbes = "b"

// NewMaglevRing builds a ring of size m (prime, per the Maglev paper)
// over nb backends, all initially alive at time 0.
func NewMaglevRing(env *nfir.Env, nb, m int, timeoutNS uint64) (*MaglevRing, error) {
	if nb <= 0 || m < nb {
		return nil, fmt.Errorf("maglev: need 0 < backends ≤ table size, got %d/%d", nb, m)
	}
	r := &MaglevRing{
		table:     make([]int, m),
		nb:        nb,
		m:         m,
		hbStamp:   make([]uint64, nb),
		TimeoutNS: timeoutNS,
		hbAddr:    env.Heap.Alloc(uint64(nb) * 8),
		ringAddr:  env.Heap.Alloc(uint64(m) * 8),
	}
	r.populate()
	return r, nil
}

// populate runs Maglev's permutation fill.
func (r *MaglevRing) populate() {
	offset := make([]int, r.nb)
	skip := make([]int, r.nb)
	nextIdx := make([]int, r.nb)
	for b := 0; b < r.nb; b++ {
		h1 := mix([]uint64{uint64(b)}, 0xa5a5a5a5)
		h2 := mix([]uint64{uint64(b)}, 0x5a5a5a5a)
		offset[b] = int(h1 % uint64(r.m))
		skip[b] = int(h2%uint64(r.m-1)) + 1
	}
	for i := range r.table {
		r.table[i] = -1
	}
	filled := 0
	for filled < r.m {
		for b := 0; b < r.nb && filled < r.m; b++ {
			c := (offset[b] + nextIdx[b]*skip[b]) % r.m
			for r.table[c] >= 0 {
				nextIdx[b]++
				c = (offset[b] + nextIdx[b]*skip[b]) % r.m
			}
			r.table[c] = b
			nextIdx[b]++
			filled++
		}
	}
}

// Backends returns the backend count.
func (r *MaglevRing) Backends() int { return r.nb }

// TableSize returns the ring size.
func (r *MaglevRing) TableSize() int { return r.m }

// Share returns how many ring slots backend b owns (for balance tests).
func (r *MaglevRing) Share(b int) int {
	n := 0
	for _, v := range r.table {
		if v == b {
			n++
		}
	}
	return n
}

// SetHeartbeat force-sets a backend's last heartbeat (state synthesis).
func (r *MaglevRing) SetHeartbeat(b int, stamp uint64) { r.hbStamp[b] = stamp }

func (r *MaglevRing) isAlive(b int, now uint64) bool {
	return r.hbStamp[b]+r.TimeoutNS > now
}

// Invoke implements nfir.ConcreteDS.
func (r *MaglevRing) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	switch method {
	case "pick":
		if len(args) != 1 {
			return nil, fmt.Errorf("maglev: pick wants (hash)")
		}
		slot := args[0] % uint64(r.m)
		charge(env, maglevPick, []uint64{r.ringAddr + slot*8}, false)
		return env.Results(uint64(r.table[slot])), nil

	case "pick_alive":
		if len(args) != 2 {
			return nil, fmt.Errorf("maglev: pick_alive wants (hash, now)")
		}
		hash, now := args[0], args[1]
		slot := hash % uint64(r.m)
		charge(env, maglevPick, []uint64{r.ringAddr + slot*8}, false)
		b := r.table[slot]
		charge(env, maglevAliveChk, []uint64{r.hbAddr + uint64(b)*8}, true)
		if r.isAlive(b, now) {
			// direct and fallback both return (backend, 1): the branch is
			// invisible in the results, so report it explicitly.
			env.ObserveOutcome("direct")
			return env.Results(uint64(b), 1), nil
		}
		// Fallback: probe successive ring slots for an alive backend.
		var probes uint64
		for i := uint64(1); i < uint64(r.m); i++ {
			probes++
			s := (slot + i) % uint64(r.m)
			cand := r.table[s]
			charge(env, maglevFallStep, []uint64{r.ringAddr + s*8, r.hbAddr + uint64(cand)*8}, true)
			if r.isAlive(cand, now) {
				env.ObservePCVMax(PCVBackendProbes, probes)
				env.ObserveOutcome("fallback")
				return env.Results(uint64(cand), 1), nil
			}
		}
		env.ObservePCVMax(PCVBackendProbes, probes)
		env.ObserveOutcome("none")
		return env.Results(0, 0), nil

	case "heartbeat":
		if len(args) != 2 {
			return nil, fmt.Errorf("maglev: heartbeat wants (idx, now)")
		}
		idx := args[0]
		if idx >= uint64(r.nb) {
			return nil, fmt.Errorf("maglev: backend %d out of range", idx)
		}
		charge(env, maglevHB, []uint64{r.hbAddr + idx*8}, false)
		r.hbStamp[idx] = args[1]
		return nil, nil

	case "alive":
		if len(args) != 2 {
			return nil, fmt.Errorf("maglev: alive wants (idx, now)")
		}
		idx := args[0]
		if idx >= uint64(r.nb) {
			return nil, fmt.Errorf("maglev: backend %d out of range", idx)
		}
		charge(env, maglevAliveChk, []uint64{r.hbAddr + idx*8}, false)
		if r.isAlive(int(idx), args[1]) {
			return env.Results(1), nil
		}
		return env.Results(0), nil
	default:
		return nil, fmt.Errorf("maglev: unknown method %q", method)
	}
}

// Model returns the ring's symbolic model and contract.
func (r *MaglevRing) Model() nfir.Model { return maglevModel{r: r} }

type maglevModel struct{ r *MaglevRing }

func (m maglevModel) Outcomes(method string, args []symb.Expr, fresh nfir.FreshFn) []nfir.Outcome {
	nb := uint64(m.r.nb)
	switch method {
	case "pick":
		b := fresh("backend")
		return []nfir.Outcome{{
			Label:   "ok",
			Results: []symb.Expr{b},
			Domains: map[string]symb.Domain{b.Name: {Lo: 0, Hi: nb - 1}},
			Cost:    buildCost(costTerm{maglevPick, nil}),
		}}
	case "pick_alive":
		direct := fresh("backend")
		fallback := fresh("backend")
		return []nfir.Outcome{
			{
				Label:   "direct",
				Results: []symb.Expr{direct, symb.C(1)},
				Domains: map[string]symb.Domain{direct.Name: {Lo: 0, Hi: nb - 1}},
				Cost:    buildCost(costTerm{maglevPick, nil}, costTerm{maglevAliveChk, nil}),
			},
			{
				Label:   "fallback",
				Results: []symb.Expr{fallback, symb.C(1)},
				Domains: map[string]symb.Domain{fallback.Name: {Lo: 0, Hi: nb - 1}},
				Cost: buildCost(
					costTerm{maglevPick, nil},
					costTerm{maglevAliveChk, nil},
					costTerm{maglevFallStep, []string{PCVBackendProbes}},
				),
				PCVs: []nfir.PCV{{Name: PCVBackendProbes, Range: expr.Range{Lo: 1, Hi: uint64(m.r.m) - 1}}},
			},
			{
				Label:   "none",
				Results: []symb.Expr{symb.C(0), symb.C(0)},
				Cost: buildCost(
					costTerm{maglevPick, nil},
					costTerm{maglevAliveChk, nil},
					costTerm{scaleStep(maglevFallStep, uint64(m.r.m)-1), nil},
				),
			},
		}
	case "heartbeat":
		return []nfir.Outcome{{
			Label: "ok",
			Cost:  buildCost(costTerm{maglevHB, nil}),
		}}
	case "alive":
		return []nfir.Outcome{
			{Label: "alive", Results: []symb.Expr{symb.C(1)}, Cost: buildCost(costTerm{maglevAliveChk, nil})},
			{Label: "dead", Results: []symb.Expr{symb.C(0)}, Cost: buildCost(costTerm{maglevAliveChk, nil})},
		}
	default:
		return nil
	}
}
