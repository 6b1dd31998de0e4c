package core

import (
	"fmt"
	"strings"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// This file is the compilation entry point for the online monitor
// (internal/monitor): it lowers a generated contract's per-path
// input-class constraints into compiled postfix matchers (the symb
// compilation layer the solver uses), so a live packet can be assigned
// to its contract path without walking expression trees or calling the
// solver.
//
// A path is selected by two kinds of evidence, mirroring the two
// constraint categories of §3.3:
//
//   - packet-field constraints, decided from the wire bytes and packet
//     metadata alone;
//   - abstract-state constraints, decided by the stateful calls the
//     packet actually made — the monitor records each call's concrete
//     results, and the classifier checks them against the outcome the
//     path's exploration chose (constant results must match exactly,
//     symbolic results bind the outcome's fresh symbols and must satisfy
//     their domains). Where sibling outcomes are result-indistinguishable
//     (an LPM get returns one port either way), the concrete structure
//     self-reports the branch via nfir.Env.ObserveOutcome and the label
//     must equal the path's Outcome.Label.
//
// Constraints over symbols that are observable neither from the packet
// nor from call results (fresh heap reads) are existentially quantified
// by the concrete execution itself and are skipped; the call-sequence
// and result checks keep classification unambiguous for the NFs in this
// repo (FuzzClassifier pins that down).

// CallRecord is one observed stateful call of a concrete run. Outcome
// carries the concrete structure's self-reported outcome label
// (nfir.Env.ObserveOutcome) when it has one — the tie-breaking evidence
// for sibling outcomes whose results are indistinguishable.
type CallRecord struct {
	DS, Method string
	Results    []uint64
	Outcome    string
}

// PacketObservation is everything the online classifier sees about one
// packet: the original wire bytes (before any NF rewrite), arrival
// metadata, the terminal action, and the recorded stateful calls.
type PacketObservation struct {
	Pkt          []byte
	InPort, Time uint64
	PktLen       uint64
	Action       nfir.ActionKind
	Calls        []CallRecord
}

// CallSig renders a call sequence as its signature key ("mac.expire
// mac.put mac.peek"); the classifier buckets paths by it.
func CallSig(calls []CallRecord) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = c.DS + "." + c.Method
	}
	return strings.Join(parts, " ")
}

// slot sources: how one compiled-program slot is bound per packet.
const (
	srcUnbound uint8 = iota // not observable; programs using it are skipped
	srcField                // big-endian packet field at (off, size)
	srcInPort
	srcNow
	srcPktLen
	srcResult // result res of observed call number call
)

type slotSource struct {
	kind      uint8
	off       uint64
	size      int
	call, res int
	hasDom    bool
	dom       symb.Domain
}

type resConstCheck struct {
	call, res int
	v         uint64
}

type resDomCheck struct {
	call, res int
	dom       symb.Domain
}

type resExprCheck struct {
	call, res int
	prog      int
	bound     bool // all of the program's slots are observable
}

type matcherPath struct {
	pc   *PathContract
	cs   *symb.CompiledSet
	ev   *symb.Evaluator
	nCon int // programs [0, nCon) are path constraints

	slots      []slotSource
	progBound  []bool
	labels     []string // this path's outcome label per call
	minResults []int    // required result count per observed call
	resConsts  []resConstCheck
	resDoms    []resDomCheck // domain checks for result syms without a slot
	resExprs   []resExprCheck
}

// Classifier assigns concrete packet observations to the paths of one
// generated contract. It is not safe for concurrent use (each matcher
// owns one evaluation scratch); build one Classifier per goroutine from
// the shared contract — compilation is cheap relative to generation.
type Classifier struct {
	contract *Contract
	groups   map[string][]*matcherPath
}

// NewClassifier compiles every path of a generated contract into a
// matcher. It rejects contracts whose paths carry no call trace (chain
// compositions and hand-built contracts): their joined paths no longer
// correspond to one concrete call sequence, so online classification
// would be ambiguous by construction.
func NewClassifier(ct *Contract) (*Classifier, error) {
	c := &Classifier{contract: ct, groups: make(map[string][]*matcherPath)}
	for _, p := range ct.Paths {
		if p.Events != "" && len(p.Trace) == 0 {
			return nil, fmt.Errorf("core: path %d (%s) has stateful events but no call trace; classifiers need a contract straight out of Generate, not a composition", p.ID, p.Class())
		}
		mp, err := compileMatcher(p)
		if err != nil {
			return nil, fmt.Errorf("core: path %d (%s): %w", p.ID, p.Class(), err)
		}
		key := groupKey(p.Action, pathSig(p.Trace))
		c.groups[key] = append(c.groups[key], mp)
	}
	return c, nil
}

func groupKey(action nfir.ActionKind, sig string) string {
	return action.String() + "|" + sig
}

// AppendGroupKey appends the classifier group key for (action, calls) to
// dst and returns the extended slice — byte-for-byte what groupKey over
// CallSig builds, without allocating. The monitor's per-packet hot path
// keys its group lookup with this into a reused buffer.
func AppendGroupKey(dst []byte, action nfir.ActionKind, calls []CallRecord) []byte {
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

func pathSig(trace []nfir.CallEvent) string {
	parts := make([]string, len(trace))
	for i, ev := range trace {
		parts[i] = ev.DS + "." + ev.Method
	}
	return strings.Join(parts, " ")
}

func compileMatcher(p *PathContract) (*matcherPath, error) {
	mp := &matcherPath{pc: p, nCon: len(p.Constraints)}

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
				mp.resConsts = append(mp.resConsts, resConstCheck{call: ci, res: ri, v: x.V})
			case symb.Sym:
				if _, dup := resultSlot[x.Name]; dup {
					return nil, fmt.Errorf("result symbol %s bound twice", x.Name)
				}
				resultSlot[x.Name] = struct{ call, res int }{ci, ri}
			default:
				extra = append(extra, r)
				mp.resExprs = append(mp.resExprs, resExprCheck{
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
	mp.slots = make([]slotSource, len(slotNames))
	for si, name := range slotNames {
		src := slotSource{kind: srcUnbound}
		if at, ok := resultSlot[name]; ok {
			src = slotSource{kind: srcResult, call: at.call, res: at.res}
		} else if off, size, ok := nfir.ParseFieldSym(name); ok {
			src = slotSource{kind: srcField, off: off, size: size}
		} else {
			switch name {
			case nfir.SymInPort:
				src = slotSource{kind: srcInPort}
			case nfir.SymNow:
				src = slotSource{kind: srcNow}
			case nfir.SymPktLen:
				src = slotSource{kind: srcPktLen}
			}
		}
		if src.kind != srcUnbound {
			if d, ok := p.Domains[name]; ok {
				src.hasDom, src.dom = true, d
			}
		}
		mp.slots[si] = src
	}

	// Result symbols that appear in no program still get their domain
	// checked — it can be the only thing separating sibling outcomes.
	for name, at := range resultSlot {
		if _, used := slotIndex(slotNames, name); used {
			continue
		}
		if d, ok := p.Domains[name]; ok {
			mp.resDoms = append(mp.resDoms, resDomCheck{call: at.call, res: at.res, dom: d})
		}
	}

	// A program is decidable only if every slot it reads is observable.
	mp.progBound = make([]bool, mp.cs.NumPrograms())
	for i := range mp.progBound {
		ok := true
		for _, s := range mp.cs.ProgramSlots(i) {
			if mp.slots[s].kind == srcUnbound {
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

func slotIndex(names []string, name string) (int, bool) {
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// FieldValue reads the big-endian field at (off, size) from the wire
// bytes, zero-extending past the packet's end exactly like the concrete
// interpreter's zero-padded buffer.
func FieldValue(pkt []byte, off uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v <<= 8
		idx := off + uint64(i)
		if idx < uint64(len(pkt)) {
			v |= uint64(pkt[idx])
		}
	}
	return v
}

func (mp *matcherPath) match(obs *PacketObservation) bool {
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
		case srcField:
			v = FieldValue(obs.Pkt, src.off, src.size)
		case srcInPort:
			v = obs.InPort
		case srcNow:
			v = obs.Time
		case srcPktLen:
			v = obs.PktLen
		case srcResult:
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
func (c *Classifier) Classify(obs *PacketObservation) (*PathContract, bool) {
	var key []byte
	return c.ClassifyKeyed(obs, &key)
}

// ClassifyKeyed is Classify with a caller-owned key buffer: the group
// key is built into *keyBuf (reusing its capacity) and the map lookup
// converts it without allocating, so a steady-state classification does
// no string building at all.
func (c *Classifier) ClassifyKeyed(obs *PacketObservation, keyBuf *[]byte) (*PathContract, bool) {
	*keyBuf = AppendGroupKey((*keyBuf)[:0], obs.Action, obs.Calls)
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
func (c *Classifier) Matches(obs *PacketObservation) []*PathContract {
	var out []*PathContract
	for _, mp := range c.groups[groupKey(obs.Action, CallSig(obs.Calls))] {
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

// recordingDS wraps a ConcreteDS so every invocation lands in a shared
// call log. Cost accounting is untouched: the wrapped structure charges
// the environment's meter exactly as before.
type recordingDS struct {
	name  string
	inner nfir.ConcreteDS
	log   *[]CallRecord
}

// Invoke implements nfir.ConcreteDS.
func (r *recordingDS) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	env.TakeOutcome() // drop any stale label from an unrecorded call
	results, err := r.inner.Invoke(method, args, env)
	if err != nil {
		return results, err
	}
	*r.log = append(*r.log, CallRecord{
		DS: r.name, Method: method, Results: append([]uint64(nil), results...),
		Outcome: env.TakeOutcome(),
	})
	return results, nil
}

// AttachRecorder wraps every data structure registered in env so
// concrete calls append to *log; the returned function restores the
// originals. The monitor brackets each monitored run with it.
func AttachRecorder(env *nfir.Env, log *[]CallRecord) (restore func()) {
	return env.WrapLinked(func(name string, ds nfir.ConcreteDS) nfir.ConcreteDS {
		return &recordingDS{name: name, inner: ds, log: log}
	})
}

// CallLog is a reusable call-record sink: Reset it per packet and the
// steady state allocates nothing — records and their result copies land
// in arenas whose capacity survives the reset. The monitor's pooled fast
// path brackets runs with AttachCallLog instead of AttachRecorder.
//
// Records sliced out of a log are valid only until the next Reset; copy
// them (CopyInto) to retain a packet's calls past its observation.
type CallLog struct {
	recs []CallRecord
	res  []uint64
}

// Reset discards the current packet's records, keeping capacity. Earlier
// Records() slices must not be read afterwards.
func (l *CallLog) Reset() {
	l.recs = l.recs[:0]
	l.res = l.res[:0]
}

// Records returns the calls recorded since the last Reset.
func (l *CallLog) Records() []CallRecord { return l.recs }

// add appends one call, copying results into the log's arena. A grown
// arena leaves earlier records pointing at the old backing array, which
// still holds their values — no fixup needed.
func (l *CallLog) add(ds, method string, results []uint64, outcome string) {
	start := len(l.res)
	l.res = append(l.res, results...)
	l.recs = append(l.recs, CallRecord{
		DS: ds, Method: method,
		Results: l.res[start:len(l.res):len(l.res)],
		Outcome: outcome,
	})
}

// Append deep-copies records into the log's arenas (without resetting)
// and returns the copied slice — how the sharded monitor hands a
// packet's calls to another goroutine. The returned slice stays valid
// until the log's next Reset.
func (l *CallLog) Append(recs []CallRecord) []CallRecord {
	from := len(l.recs)
	for i := range recs {
		r := &recs[i]
		l.add(r.DS, r.Method, r.Results, r.Outcome)
	}
	return l.recs[from:len(l.recs):len(l.recs)]
}

// callLogDS is recordingDS over a pooled CallLog.
type callLogDS struct {
	name  string
	inner nfir.ConcreteDS
	log   *CallLog
}

// Invoke implements nfir.ConcreteDS.
func (r *callLogDS) Invoke(method string, args []uint64, env *nfir.Env) ([]uint64, error) {
	env.TakeOutcome() // drop any stale label from an unrecorded call
	results, err := r.inner.Invoke(method, args, env)
	if err != nil {
		return results, err
	}
	r.log.add(r.name, method, results, env.TakeOutcome())
	return results, nil
}

// AttachCallLog is AttachRecorder over a pooled CallLog: calls append to
// log without per-call allocations once the arenas are warm.
func AttachCallLog(env *nfir.Env, log *CallLog) (restore func()) {
	return env.WrapLinked(func(name string, ds nfir.ConcreteDS) nfir.ConcreteDS {
		return &callLogDS{name: name, inner: ds, log: log}
	})
}
