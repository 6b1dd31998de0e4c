package core

import (
	"fmt"
	"strings"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// This file is the string-keyed classifier as it shipped before the
// monitor moved to integer call evidence (PR 18), kept verbatim — only
// renamed — as the differential oracle of the compiled classifier:
// FuzzClassifier and TestRosterClassifiesLikeOracle require both to
// return the same path and the same Matches list for every observation.
// It reads only the records' strings, never their IDs.

// slot sources: how one compiled-program slot is bound per packet.
const (
	oSrcUnbound uint8 = iota // not observable; programs using it are skipped
	oSrcField                // big-endian packet field at (off, size)
	oSrcInPort
	oSrcNow
	oSrcPktLen
	oSrcResult // result res of observed call number call
)

type oracleSlotSource struct {
	kind      uint8
	off       uint64
	size      int
	call, res int
	hasDom    bool
	dom       symb.Domain
}

type oracleResConstCheck struct {
	call, res int
	v         uint64
}

type oracleResDomCheck struct {
	call, res int
	dom       symb.Domain
}

type oracleResExprCheck struct {
	call, res int
	prog      int
	bound     bool // all of the program's slots are observable
}

type oracleMatcherPath struct {
	pc   *PathContract
	cs   *symb.CompiledSet
	ev   *symb.Evaluator
	nCon int // programs [0, nCon) are path constraints

	slots      []oracleSlotSource
	progBound  []bool
	labels     []string // this path's outcome label per call
	minResults []int    // required result count per observed call
	resConsts  []oracleResConstCheck
	resDoms    []oracleResDomCheck // domain checks for result syms without a slot
	resExprs   []oracleResExprCheck
}

// oracleClassifier assigns concrete packet observations to the paths of one
// generated contract. It is not safe for concurrent use (each matcher
// owns one evaluation scratch); build one oracleClassifier per goroutine from
// the shared contract — compilation is cheap relative to generation.
type oracleClassifier struct {
	contract *Contract
	groups   map[string][]*oracleMatcherPath
}

// newOracleClassifier compiles every path of a generated contract into a
// matcher. It rejects contracts whose paths carry no call trace (chain
// compositions and hand-built contracts): their joined paths no longer
// correspond to one concrete call sequence, so online classification
// would be ambiguous by construction.
func newOracleClassifier(ct *Contract) (*oracleClassifier, error) {
	c := &oracleClassifier{contract: ct, groups: make(map[string][]*oracleMatcherPath)}
	for _, p := range ct.Paths {
		if p.Events != "" && len(p.Trace) == 0 {
			return nil, fmt.Errorf("core: path %d (%s) has stateful events but no call trace; classifiers need a contract straight out of Generate, not a composition", p.ID, p.Class())
		}
		mp, err := oracleCompileMatcher(p)
		if err != nil {
			return nil, fmt.Errorf("core: path %d (%s): %w", p.ID, p.Class(), err)
		}
		key := oracleGroupKey(p.Action, oraclePathSig(p.Trace))
		c.groups[key] = append(c.groups[key], mp)
	}
	return c, nil
}

func oracleGroupKey(action nfir.ActionKind, sig string) string {
	return action.String() + "|" + sig
}

// oracleAppendGroupKey appends the classifier group key for (action, calls) to
// dst and returns the extended slice — byte-for-byte what oracleGroupKey over
// CallSig builds, without allocating. The monitor's per-packet hot path
// keys its group lookup with this into a reused buffer.
func oracleAppendGroupKey(dst []byte, action nfir.ActionKind, calls []CallRecord) []byte {
	dst = append(dst, action.String()...)
	dst = append(dst, '|')
	for i := range calls {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, calls[i].DS...)
		dst = append(dst, '.')
		dst = append(dst, calls[i].Method...)
	}
	return dst
}

func oraclePathSig(trace []nfir.CallEvent) string {
	parts := make([]string, len(trace))
	for i, ev := range trace {
		parts[i] = ev.DS + "." + ev.Method
	}
	return strings.Join(parts, " ")
}

func oracleCompileMatcher(p *PathContract) (*oracleMatcherPath, error) {
	mp := &oracleMatcherPath{pc: p, nCon: len(p.Constraints)}

	// Outcome results: constants must match the observed value exactly,
	// symbols bind (and carry their domain), other expressions compile to
	// extra programs compared against the observed value.
	resultSlot := make(map[string]struct{ call, res int })
	var extra []symb.Expr
	mp.minResults = make([]int, len(p.Trace))
	mp.labels = make([]string, len(p.Trace))
	for ci, ev := range p.Trace {
		mp.minResults[ci] = len(ev.Outcome.Results)
		mp.labels[ci] = ev.Outcome.Label
		for ri, r := range ev.Outcome.Results {
			switch x := r.(type) {
			case symb.Const:
				mp.resConsts = append(mp.resConsts, oracleResConstCheck{call: ci, res: ri, v: x.V})
			case symb.Sym:
				if _, dup := resultSlot[x.Name]; dup {
					return nil, fmt.Errorf("result symbol %s bound twice", x.Name)
				}
				resultSlot[x.Name] = struct{ call, res int }{ci, ri}
			default:
				extra = append(extra, r)
				mp.resExprs = append(mp.resExprs, oracleResExprCheck{
					call: ci, res: ri, prog: mp.nCon + len(extra) - 1,
				})
			}
		}
	}

	mp.cs = symb.CompileSet(append(append([]symb.Expr(nil), p.Constraints...), extra...)...)
	mp.ev = mp.cs.NewEvaluator()

	// Slot sources: every symbol the compiled programs mention, resolved
	// to the packet observation. Bound slots whose symbol has a recorded
	// domain also check it (the domain is part of the path's input class).
	slotNames := mp.cs.Slots()
	mp.slots = make([]oracleSlotSource, len(slotNames))
	for si, name := range slotNames {
		src := oracleSlotSource{kind: oSrcUnbound}
		if at, ok := resultSlot[name]; ok {
			src = oracleSlotSource{kind: oSrcResult, call: at.call, res: at.res}
		} else if off, size, ok := nfir.ParseFieldSym(name); ok {
			src = oracleSlotSource{kind: oSrcField, off: off, size: size}
		} else {
			switch name {
			case nfir.SymInPort:
				src = oracleSlotSource{kind: oSrcInPort}
			case nfir.SymNow:
				src = oracleSlotSource{kind: oSrcNow}
			case nfir.SymPktLen:
				src = oracleSlotSource{kind: oSrcPktLen}
			}
		}
		if src.kind != oSrcUnbound {
			if d, ok := p.Domains[name]; ok {
				src.hasDom, src.dom = true, d
			}
		}
		mp.slots[si] = src
	}

	// Result symbols that appear in no program still get their domain
	// checked — it can be the only thing separating sibling outcomes.
	for name, at := range resultSlot {
		if _, used := oracleSlotIndex(slotNames, name); used {
			continue
		}
		if d, ok := p.Domains[name]; ok {
			mp.resDoms = append(mp.resDoms, oracleResDomCheck{call: at.call, res: at.res, dom: d})
		}
	}

	// A program is decidable only if every slot it reads is observable.
	mp.progBound = make([]bool, mp.cs.NumPrograms())
	for i := range mp.progBound {
		ok := true
		for _, s := range mp.cs.ProgramSlots(i) {
			if mp.slots[s].kind == oSrcUnbound {
				ok = false
				break
			}
		}
		mp.progBound[i] = ok
	}
	for i := range mp.resExprs {
		mp.resExprs[i].bound = mp.progBound[mp.resExprs[i].prog]
	}
	return mp, nil
}

func oracleSlotIndex(names []string, name string) (int, bool) {
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

func (mp *oracleMatcherPath) match(obs *PacketObservation) bool {
	for ci, want := range mp.minResults {
		if len(obs.Calls[ci].Results) < want {
			return false
		}
		if o := obs.Calls[ci].Outcome; o != "" && o != mp.labels[ci] {
			return false
		}
	}
	for _, cc := range mp.resConsts {
		if obs.Calls[cc.call].Results[cc.res] != cc.v {
			return false
		}
	}
	for _, dc := range mp.resDoms {
		v := obs.Calls[dc.call].Results[dc.res]
		if v < dc.dom.Lo || v > dc.dom.Hi {
			return false
		}
	}
	for si, src := range mp.slots {
		var v uint64
		switch src.kind {
		case oSrcField:
			v = FieldValue(obs.Pkt, src.off, src.size)
		case oSrcInPort:
			v = obs.InPort
		case oSrcNow:
			v = obs.Time
		case oSrcPktLen:
			v = obs.PktLen
		case oSrcResult:
			v = obs.Calls[src.call].Results[src.res]
		default:
			continue
		}
		if src.hasDom && (v < src.dom.Lo || v > src.dom.Hi) {
			return false
		}
		mp.ev.Bind(si, v)
	}
	for _, rc := range mp.resExprs {
		if !rc.bound {
			continue
		}
		if mp.ev.Eval(rc.prog) != obs.Calls[rc.call].Results[rc.res] {
			return false
		}
	}
	for i := 0; i < mp.nCon; i++ {
		if !mp.progBound[i] {
			continue
		}
		if mp.ev.Eval(i) == 0 {
			return false
		}
	}
	return true
}

// Classify assigns the observation to its contract path: the first
// matching path in ID order (exploration order, so the assignment is
// deterministic). ok is false when no path matches — a packet the
// contract does not cover, which the monitor surfaces as its own signal.
func (c *oracleClassifier) Classify(obs *PacketObservation) (*PathContract, bool) {
	var key []byte
	return c.ClassifyKeyed(obs, &key)
}

// ClassifyKeyed is Classify with a caller-owned key buffer: the group
// key is built into *keyBuf (reusing its capacity) and the map lookup
// converts it without allocating, so a steady-state classification does
// no string building at all.
func (c *oracleClassifier) ClassifyKeyed(obs *PacketObservation, keyBuf *[]byte) (*PathContract, bool) {
	*keyBuf = oracleAppendGroupKey((*keyBuf)[:0], obs.Action, obs.Calls)
	best := (*PathContract)(nil)
	for _, mp := range c.groups[string(*keyBuf)] {
		if mp.match(obs) {
			if best == nil || mp.pc.ID < best.ID {
				best = mp.pc
			}
		}
	}
	return best, best != nil
}

// Matches returns every matching path in ID order — the diagnostic and
// fuzz-oracle face of Classify (classification is unambiguous when all
// matches share one class label).
func (c *oracleClassifier) Matches(obs *PacketObservation) []*PathContract {
	var out []*PathContract
	for _, mp := range c.groups[oracleGroupKey(obs.Action, CallSig(obs.Calls))] {
		if mp.match(obs) {
			out = append(out, mp.pc)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
