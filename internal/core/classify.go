package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"gobolt/internal/nfir"
	"gobolt/internal/symb"
)

// This file is the compilation entry point for the online monitor
// (internal/monitor): it lowers a generated contract's per-path
// input-class constraints into a dispatch structure over integer call
// evidence plus compiled postfix matchers (the symb compilation layer
// the solver uses), so a live packet can be assigned to its contract
// path without building a string, walking expression trees or calling
// the solver.
//
// A path is selected by two kinds of evidence, mirroring the two
// constraint categories of §3.3:
//
//   - abstract-state constraints, decided by the stateful calls the
//     packet actually made — the monitor records each call's concrete
//     results, and the classifier checks them against the outcome the
//     path's exploration chose (constant results must match exactly,
//     symbolic results bind the outcome's fresh symbols and must satisfy
//     their domains). Where sibling outcomes are result-indistinguishable
//     (an LPM get returns one port either way), the concrete structure
//     self-reports the branch via nfir.Env.ObserveOutcome and the label
//     must equal the path's Outcome.Label;
//   - packet-field constraints, decided from the wire bytes and packet
//     metadata alone.
//
// The first kind is compiled into bit masks. An action's paths, sorted
// by ID, get one bit each (in chunks of 64), and a trie over their call
// sequences, keyed by the calls' interned (structure, method) IDs. Per
// observed call the packet's bitmask of still-feasible paths is ANDed
// with the masks its trie node precomputed from the outcome-label ID,
// the result count, constant results and result domains; the node the
// calls end at keeps the paths with exactly that sequence. Only the
// paths still feasible after that run their packet-field programs,
// lowest ID first; the first match wins.
//
// Constraints over symbols that are observable neither from the packet
// nor from call results (fresh heap reads) are existentially quantified
// by the concrete execution itself and are skipped; the call-sequence
// and result checks keep classification unambiguous for the NFs in this
// repo (FuzzClassifier pins that down).

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

// CallSig renders a call sequence as its signature ("mac.expire mac.put
// mac.peek") for diagnostics.
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

type resExprCheck struct {
	call, res int
	prog      int
}

// matcherPath is one path's packet-side matcher: its compiled
// constraint programs and where each program slot's value comes from.
// The call-side evidence lives in its chunk's trie.
type matcherPath struct {
	pc    *PathContract
	index int               // position in Contract.Paths
	cs    *symb.CompiledSet // path constraints, then expression results
	ev    *symb.Evaluator

	slots    []slotSource
	cons     []int          // the decidable constraint programs
	resExprs []resExprCheck // the decidable expression results
}

// callEvidence is what a path requires of one observed call: its
// outcome-label ID (0: none), its result count, and its constant results
// and result domains.
type callEvidence struct {
	label      uint32
	minResults int
	consts     []resConst
	doms       []resDom
}

type resConst struct {
	res int
	v   uint64
}

type resDom struct {
	res int
	dom symb.Domain
}

// Classifier assigns concrete packet observations to the paths of one
// generated contract. It is not safe for concurrent use (each matcher
// owns one evaluation scratch); build one Classifier per goroutine from
// the shared contract — compilation is cheap relative to generation.
type Classifier struct {
	contract *Contract
	chunks   [numActions][]*pathChunk
}

const numActions = 3 // ActionNone, ActionForward, ActionDrop

// actionSlot is the chunk list of an action. Unknown kinds share
// ActionNone's, as they share its name.
func actionSlot(a nfir.ActionKind) int {
	if a > nfir.ActionNone && a < numActions {
		return int(a)
	}
	return 0
}

// pathChunk is up to 64 paths of one action in ascending ID order, bit i
// standing for paths[i], and the trie deciding their call evidence.
type pathChunk struct {
	paths []*matcherPath
	all   uint64
	root  callNode
}

// callNode is one call-sequence prefix of a chunk's paths: its children
// by the next call's op ID (nil where no path continues with that op),
// the paths whose whole sequence it is, and the masks that decide the
// prefix's last call. A non-zero observed label keeps the paths of its
// entry in labels (none if absent); short[n] drops the paths requiring
// more than n results (none for n past its end); each results entry
// keeps the paths that do not check that result plus those whose
// constant or domain the observed value satisfies.
type callNode struct {
	next    []*callNode
	here    uint64
	labels  []idMask
	short   []uint64
	results []resultMasks
}

func (n *callNode) child(op uint32) *callNode {
	if uint64(op) < uint64(len(n.next)) {
		return n.next[op]
	}
	return nil
}

type idMask struct {
	id   uint32
	mask uint64
}

// resultMasks decides one result of a call. keep[v] is the verdict for
// a small value v, precomputed; larger values test free, consts and
// doms.
type resultMasks struct {
	res    int
	keep   []uint64
	free   uint64
	consts []valueMask
	doms   []domMask
}

// keepTable bounds resultMasks.keep: results below it (statuses, counts,
// small ports) decide with one load.
const keepTable = 64

func (rm *resultMasks) eval(v uint64) uint64 {
	keep := rm.free
	for _, c := range rm.consts {
		if c.v == v {
			keep |= c.mask
		}
	}
	for _, d := range rm.doms {
		if v >= d.dom.Lo && v <= d.dom.Hi {
			keep |= d.mask
		}
	}
	return keep
}

type valueMask struct {
	v    uint64
	mask uint64
}

type domMask struct {
	dom  symb.Domain
	mask uint64
}

// NewClassifier compiles every path of a generated contract into a
// matcher. It rejects contracts whose paths carry no call trace (chain
// compositions and hand-built contracts): their joined paths no longer
// correspond to one concrete call sequence, so online classification
// would be ambiguous by construction.
func NewClassifier(ct *Contract) (*Classifier, error) {
	type member struct {
		mp    *matcherPath
		calls []callEvidence
	}
	var byAction [numActions][]member
	for i, p := range ct.Paths {
		if p.Events != "" && len(p.Trace) == 0 {
			return nil, fmt.Errorf("core: path %d (%s) has stateful events but no call trace; classifiers need a contract straight out of Generate, not a composition", p.ID, p.Class())
		}
		mp, calls, err := compileMatcher(p)
		if err != nil {
			return nil, fmt.Errorf("core: path %d (%s): %w", p.ID, p.Class(), err)
		}
		mp.index = i
		a := actionSlot(p.Action)
		byAction[a] = append(byAction[a], member{mp, calls})
	}
	c := &Classifier{contract: ct}
	for a, ms := range byAction {
		// Lowest matching ID wins, so chunks and bits go by ID; equal IDs
		// keep contract order.
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].mp.pc.ID < ms[j].mp.pc.ID })
		for len(ms) > 0 {
			k := min(len(ms), 64)
			ch := &pathChunk{all: ^uint64(0) >> (64 - k)}
			for bi, m := range ms[:k] {
				bit := uint64(1) << bi
				ch.paths = append(ch.paths, m.mp)
				n := &ch.root
				for ci, ce := range m.mp.pc.Trace {
					n = n.extend(internOp(ce.DS, ce.Method))
					n.require(bit, m.calls[ci])
				}
				n.here |= bit
			}
			ch.root.finish(ch.all)
			c.chunks[a] = append(c.chunks[a], ch)
			ms = ms[k:]
		}
	}
	return c, nil
}

// extend returns n's child for op, creating it.
func (n *callNode) extend(op uint32) *callNode {
	if int(op) >= len(n.next) {
		n.next = append(n.next, make([]*callNode, int(op)+1-len(n.next))...)
	}
	if n.next[op] == nil {
		n.next[op] = &callNode{}
	}
	return n.next[op]
}

// require adds what the path of bit requires of n's call to n's masks.
func (n *callNode) require(bit uint64, ev callEvidence) {
	if ev.label != 0 {
		n.labels = addIDMask(n.labels, ev.label, bit)
	}
	for len(n.short) < ev.minResults {
		n.short = append(n.short, 0)
	}
	for k := 0; k < ev.minResults; k++ {
		n.short[k] |= bit
	}
	for _, c := range ev.consts {
		rm := n.result(c.res)
		rm.consts = addValueMask(rm.consts, c.v, bit)
	}
	for _, d := range ev.doms {
		rm := n.result(d.res)
		rm.doms = addDomMask(rm.doms, d.dom, bit)
	}
}

func (n *callNode) result(res int) *resultMasks {
	for i := range n.results {
		if n.results[i].res == res {
			return &n.results[i]
		}
	}
	n.results = append(n.results, resultMasks{res: res})
	return &n.results[len(n.results)-1]
}

// finish precomputes, at n and below, each result's free mask and its
// small-value table; all is the chunk's full mask.
func (n *callNode) finish(all uint64) {
	for i := range n.results {
		rm := &n.results[i]
		checked := uint64(0)
		for _, c := range rm.consts {
			checked |= c.mask
		}
		for _, d := range rm.doms {
			checked |= d.mask
		}
		rm.free = all &^ checked
		rm.keep = make([]uint64, keepTable)
		for v := range rm.keep {
			rm.keep[v] = rm.eval(uint64(v))
		}
	}
	for _, c := range n.next {
		if c != nil {
			c.finish(all)
		}
	}
}

func addIDMask(ms []idMask, id uint32, bit uint64) []idMask {
	for i := range ms {
		if ms[i].id == id {
			ms[i].mask |= bit
			return ms
		}
	}
	return append(ms, idMask{id, bit})
}

func addValueMask(ms []valueMask, v uint64, bit uint64) []valueMask {
	for i := range ms {
		if ms[i].v == v {
			ms[i].mask |= bit
			return ms
		}
	}
	return append(ms, valueMask{v, bit})
}

func addDomMask(ms []domMask, d symb.Domain, bit uint64) []domMask {
	for i := range ms {
		if ms[i].dom == d {
			ms[i].mask |= bit
			return ms
		}
	}
	return append(ms, domMask{d, bit})
}

func compileMatcher(p *PathContract) (*matcherPath, []callEvidence, error) {
	mp := &matcherPath{pc: p}
	calls := make([]callEvidence, len(p.Trace))

	// Outcome results: constants must match the observed value exactly,
	// symbols bind (and carry their domain), other expressions compile to
	// extra programs compared against the observed value.
	resultSlot := make(map[string]struct{ call, res int })
	var extra []symb.Expr
	for ci, ce := range p.Trace {
		ev := &calls[ci]
		ev.minResults = len(ce.Outcome.Results)
		ev.label = internLabel(ce.Outcome.Label)
		for ri, r := range ce.Outcome.Results {
			switch x := r.(type) {
			case symb.Const:
				ev.consts = append(ev.consts, resConst{res: ri, v: x.V})
			case symb.Sym:
				if _, dup := resultSlot[x.Name]; dup {
					return nil, nil, fmt.Errorf("result symbol %s bound twice", x.Name)
				}
				resultSlot[x.Name] = struct{ call, res int }{ci, ri}
				// The domain is part of the path's input class, and can be
				// the only thing separating sibling outcomes.
				if d, ok := p.Domains[x.Name]; ok {
					ev.doms = append(ev.doms, resDom{res: ri, dom: d})
				}
			default:
				extra = append(extra, r)
				mp.resExprs = append(mp.resExprs, resExprCheck{
					call: ci, res: ri, prog: len(p.Constraints) + len(extra) - 1,
				})
			}
		}
	}

	mp.cs = symb.CompileSet(append(append([]symb.Expr(nil), p.Constraints...), extra...)...)
	mp.ev = mp.cs.NewEvaluator()

	// Slot sources: every symbol the compiled programs mention, resolved
	// to the packet observation. Bound packet-side slots whose symbol has
	// a recorded domain also check it (the domain is part of the path's
	// input class); result domains are already in the call evidence.
	slotNames := mp.cs.Slots()
	mp.slots = make([]slotSource, len(slotNames))
	for si, name := range slotNames {
		src := slotSource{kind: srcUnbound}
		off, size, isField := nfir.ParseFieldSym(name)
		if at, ok := resultSlot[name]; ok {
			src = slotSource{kind: srcResult, call: at.call, res: at.res}
		} else if isField {
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
		if src.kind != srcUnbound && src.kind != srcResult {
			if d, ok := p.Domains[name]; ok && !(src.kind == srcField && d.Lo == 0 && d.Hi >= fieldMax(size)) {
				src.hasDom, src.dom = true, d
			}
		}
		mp.slots[si] = src
	}

	// A program is decidable only if every slot it reads is observable;
	// the others are skipped.
	decidable := func(prog int) bool {
		for _, s := range mp.cs.ProgramSlots(prog) {
			if mp.slots[s].kind == srcUnbound {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(p.Constraints); i++ {
		if decidable(i) {
			mp.cons = append(mp.cons, i)
		}
	}
	exprs := mp.resExprs[:0]
	for _, rc := range mp.resExprs {
		if decidable(rc.prog) {
			exprs = append(exprs, rc)
		}
	}
	mp.resExprs = exprs
	return mp, calls, nil
}

// fieldMax is the largest value FieldValue returns for a field of size
// bytes: a domain reaching it constrains nothing.
func fieldMax(size int) uint64 {
	if size >= 8 {
		return math.MaxUint64
	}
	return 1<<(8*size) - 1
}

// FieldValue reads the big-endian field at (off, size) from the wire
// bytes, zero-extending past the packet's end exactly like the concrete
// interpreter's zero-padded buffer.
func FieldValue(pkt []byte, off uint64, size int) uint64 {
	if off < uint64(len(pkt)) && uint64(size) <= uint64(len(pkt))-off {
		switch b := pkt[off:]; size {
		case 1:
			return uint64(b[0])
		case 2:
			return uint64(binary.BigEndian.Uint16(b))
		case 4:
			return uint64(binary.BigEndian.Uint32(b))
		case 8:
			return binary.BigEndian.Uint64(b)
		}
	}
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

// feasible walks the chunk's trie along the observed calls and returns
// the paths whose call sequence they are and whose call evidence they
// satisfy.
func (ch *pathChunk) feasible(calls []CallRecord) uint64 {
	n, live := &ch.root, ch.all
	for i := range calls {
		rec := &calls[i]
		op, label := callIDs(rec)
		if n = n.child(op); n == nil {
			return 0
		}
		if label != 0 {
			keep := uint64(0)
			for _, l := range n.labels {
				if l.id == label {
					keep = l.mask
					break
				}
			}
			live &= keep
		}
		k := len(rec.Results)
		if k < len(n.short) {
			live &^= n.short[k]
		}
		for ri := range n.results {
			rm := &n.results[ri]
			if rm.res >= k {
				continue // every path checking it needs more results
			}
			if v := rec.Results[rm.res]; v < keepTable {
				live &= rm.keep[v]
			} else {
				live &= rm.eval(v)
			}
		}
		if live == 0 {
			return 0
		}
	}
	return live & n.here
}

// match decides a call-feasible path's packet-side evidence: bound slot
// domains, expression results and constraint programs.
func (mp *matcherPath) match(obs *PacketObservation) bool {
	for si := range mp.slots {
		src := &mp.slots[si]
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
		if mp.ev.Eval(rc.prog) != obs.Calls[rc.call].Results[rc.res] {
			return false
		}
	}
	for _, i := range mp.cons {
		if mp.ev.Eval(i) == 0 {
			return false
		}
	}
	return true
}

// ClassifyIndex assigns the observation to its contract path and returns
// the path's position in Contract.Paths, or -1 when no path matches — a
// packet the contract does not cover, which the monitor surfaces as its
// own signal. The path is the lowest-ID match (exploration order, so the
// assignment is deterministic).
func (c *Classifier) ClassifyIndex(obs *PacketObservation) int {
	for _, ch := range c.chunks[actionSlot(obs.Action)] {
		for live := ch.feasible(obs.Calls); live != 0; live &= live - 1 {
			if mp := ch.paths[bits.TrailingZeros64(live)]; mp.match(obs) {
				return mp.index
			}
		}
	}
	return -1
}

// Classify is ClassifyIndex returning the path itself; ok is false when
// no path matches.
func (c *Classifier) Classify(obs *PacketObservation) (*PathContract, bool) {
	if i := c.ClassifyIndex(obs); i >= 0 {
		return c.contract.Paths[i], true
	}
	return nil, false
}

// ClassifyKeyed is Classify under the signature the benchmark harness
// calls. Dispatch builds no key, so keyBuf is not used.
func (c *Classifier) ClassifyKeyed(obs *PacketObservation, keyBuf *[]byte) (*PathContract, bool) {
	return c.Classify(obs)
}

// Matches returns every matching path in ID order — the diagnostic and
// fuzz-oracle face of Classify (classification is unambiguous when all
// matches share one class label).
func (c *Classifier) Matches(obs *PacketObservation) []*PathContract {
	var out []*PathContract
	for _, ch := range c.chunks[actionSlot(obs.Action)] {
		for live := ch.feasible(obs.Calls); live != 0; live &= live - 1 {
			if mp := ch.paths[bits.TrailingZeros64(live)]; mp.match(obs) {
				out = append(out, mp.pc)
			}
		}
	}
	return out
}
