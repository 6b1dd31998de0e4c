package nfir

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// Env is the execution environment for one packet through the concrete
// interpreter. Reuse an Env across packets via ResetPacket to keep the
// data structures' state.
type Env struct {
	// Pkt is the packet buffer (length MaxPacket); PktLen is the actual
	// packet length. Read it freely; write it only through StorePkt,
	// which keeps the mark ResetPacket clears up to.
	Pkt    []byte
	PktLen uint64
	// PktAddr is the simulated address of the packet buffer.
	PktAddr uint64
	// InPort is the arrival interface index.
	InPort uint64
	// Time is the packet's arrival timestamp in nanoseconds.
	Time uint64
	// Meter accounts the execution's cost; may be nil to run unmetered.
	Meter *perf.Meter
	// Heap is the simulated memory; shared across packets.
	Heap *Heap
	// Action is the processing outcome, valid after Run returns.
	Action Action

	// TxAddr is the simulated TX-descriptor address charged by Forward.
	TxAddr uint64

	// pktHigh bounds the bytes of Pkt that may be nonzero: the current
	// packet's and those StorePkt wrote since, wherever they fall.
	pktHigh int

	// linked are the data structures by name, in link order — real ones
	// in the production build, replay stubs during analysis. linkGen
	// counts changes, so a bound program knows its handles are stale.
	linked  []linkedDS
	linkGen uint64

	// The per-packet state of the program last run, as slot vectors sized
	// by bind: local values, their load-dependence taints and which of
	// them are assigned; the operand stack with its taints; one
	// iteration counter per loop; and the program's data-structure
	// handles, resolved against linked as of boundGen.
	low      *lowered
	boundGen uint64
	ds       []ConcreteDS
	locals   []uint64
	dep      []bool
	assigned []bool
	vals     []uint64
	deps     []bool
	iters    []uint64

	// res backs Results and args backs Args.
	res, args []uint64

	// PCV observations of the current packet: names are interned into
	// slots the first time this Env sees them; seen is the presence
	// mask that keeps "observed 0" apart from "not observed".
	pcvNames []string
	pcvVals  []uint64
	pcvSeen  []bool

	outcome string
}

type linkedDS struct {
	name string
	impl ConcreteDS
}

// NewEnv builds an environment with a fresh heap and packet buffer.
func NewEnv() *Env {
	return &Env{
		Pkt:     make([]byte, MaxPacket),
		PktAddr: 0x10_0000,
		TxAddr:  0x20_0000,
		Heap:    NewHeap(),
	}
}

// Link makes ds the implementation behind the data-structure name,
// replacing any earlier one. It takes effect on the next Run.
func (e *Env) Link(name string, ds ConcreteDS) {
	e.linkGen++
	for i := range e.linked {
		if e.linked[i].name == name {
			e.linked[i].impl = ds
			return
		}
	}
	e.linked = append(e.linked, linkedDS{name, ds})
}

// Linked returns the implementation linked under name.
func (e *Env) Linked(name string) (ConcreteDS, bool) {
	for _, l := range e.linked {
		if l.name == name {
			return l.impl, l.impl != nil
		}
	}
	return nil, false
}

// WrapLinked replaces every linked data structure by wrap(name, ds) —
// how call recorders and contention simulators interpose on an NF's
// stateful calls. Wrapping again with a function that returns the inner
// structures links the originals back.
func (e *Env) WrapLinked(wrap func(name string, ds ConcreteDS) ConcreteDS) {
	e.linkGen++
	for i := range e.linked {
		e.linked[i].impl = wrap(e.linked[i].name, e.linked[i].impl)
	}
}

// ResetPacket prepares the Env for the next packet: locals, PCV
// observations and the previous action are cleared; data-structure state
// and the heap persist. The buffer beyond the packet reads as zero,
// whatever an earlier, longer packet or a store past the end left there:
// only bytes below the high-water mark can be nonzero, so only those are
// cleared.
func (e *Env) ResetPacket(pkt []byte, inPort, timeNS uint64) {
	n := copy(e.Pkt, pkt)
	if e.pktHigh > n {
		clear(e.Pkt[n:e.pktHigh])
	}
	e.pktHigh = n
	e.PktLen = uint64(n)
	e.InPort = inPort
	e.Time = timeNS
	e.Action = Action{}
	clear(e.assigned)
	clear(e.pcvSeen)
}

// StorePkt writes v big-endian into the size bytes (1, 2, 4 or 8) of the
// packet buffer at off; the caller has checked that they lie inside it.
// Every write into Pkt goes through here, so ResetPacket knows how far
// the buffer may be dirty.
func (e *Env) StorePkt(off uint64, size int, v uint64) {
	putBE(e.Pkt[off:], size, v)
	if end := int(off) + size; end > e.pktHigh {
		e.pktHigh = end
	}
}

// pcvSlot interns a PCV name. An Env meets a handful of names, so a
// scan beats hashing.
func (e *Env) pcvSlot(name string) int {
	for i, n := range e.pcvNames {
		if n == name {
			return i
		}
	}
	e.pcvNames = append(e.pcvNames, name)
	e.pcvVals = append(e.pcvVals, 0)
	e.pcvSeen = append(e.pcvSeen, false)
	return len(e.pcvNames) - 1
}

// ObservePCV accumulates an observation of a performance-critical
// variable for the current packet; the Distiller and the soundness tests
// read the per-packet totals via PCVs. Counting PCVs (expired entries)
// sum across calls.
func (e *Env) ObservePCV(name string, v uint64) {
	i := e.pcvSlot(name)
	if !e.pcvSeen[i] {
		e.pcvSeen[i], e.pcvVals[i] = true, 0
	}
	e.pcvVals[i] += v
}

// ObservePCVMax records a per-operation PCV with max semantics: PCVs like
// "hash collisions" and "bucket traversals" denote the worst single
// operation the packet induced, which is what makes per-call contract
// terms sum soundly into the per-packet contract.
func (e *Env) ObservePCVMax(name string, v uint64) {
	i := e.pcvSlot(name)
	if !e.pcvSeen[i] || v > e.pcvVals[i] {
		e.pcvSeen[i], e.pcvVals[i] = true, v
	}
}

// PCVSlots exposes the current packet's PCV observations as this Env's
// slot vectors: names[i] is the PCV in slot i, vals[i] its value and
// seen[i] whether the packet observed it. Slots only ever append, so a
// consumer may cache a mapping from slot to its own index and extend it
// when names grows. The slices are the Env's own: read them before the
// next ResetPacket and do not modify them.
func (e *Env) PCVSlots() (names []string, vals []uint64, seen []bool) {
	return e.pcvNames, e.pcvVals, e.pcvSeen
}

// PCVs returns a snapshot of the PCV observations accumulated for the
// current packet; the caller owns the map.
func (e *Env) PCVs() map[string]uint64 {
	out := make(map[string]uint64, len(e.pcvNames))
	for i, seen := range e.pcvSeen {
		if seen {
			out[e.pcvNames[i]] = e.pcvVals[i]
		}
	}
	return out
}

// ObserveOutcome reports which of the running method's model outcomes
// (by Outcome.Label) the concrete execution took. Only data structures
// whose sibling outcomes are not distinguishable from their results
// alone need to call it — e.g. an LPM get whose short and long branches
// both return one port value — so the online classifier has direct
// branch evidence where result matching is blind.
func (e *Env) ObserveOutcome(label string) { e.outcome = label }

// TakeOutcome returns and clears the last reported outcome label. Call
// recorders use it to bracket a single Invoke: clear before, read after.
func (e *Env) TakeOutcome() string {
	o := e.outcome
	e.outcome = ""
	return o
}

// Results returns vals in a buffer the Env owns: what a ConcreteDS
// returns from Invoke without allocating. The slice is valid until the
// next call of Results, i.e. until the next Invoke.
func (e *Env) Results(vals ...uint64) []uint64 {
	e.res = append(e.res[:0], vals...)
	return e.res
}

// Args returns an n-word buffer the Env owns, in which an interpreter
// other than Run (package bvm's) marshals a stateful call's arguments
// without allocating. It is valid until the next call of Args.
func (e *Env) Args(n int) []uint64 {
	if cap(e.args) < n {
		e.args = make([]uint64, n)
	}
	return e.args[:n]
}

// Local returns a local's value in the program last run, for tests and
// replay validation.
func (e *Env) Local(name string) (uint64, bool) {
	if e.low != nil {
		for i, n := range e.low.locals {
			if n == name && e.assigned[i] {
				return e.locals[i], true
			}
		}
	}
	return 0, false
}

// bind sizes the slot vectors for a newly seen program — which starts
// with no local assigned — and resolves the program's data-structure
// slots against the current links.
func (e *Env) bind(lp *lowered) {
	if e.low != lp {
		e.low = lp
		nl, ns := len(lp.locals), lp.stack
		words := make([]uint64, nl+ns+lp.loops)
		e.locals, e.vals, e.iters = words[:nl:nl], words[nl:nl+ns:nl+ns], words[nl+ns:]
		flags := make([]bool, 2*nl+ns)
		e.assigned, e.dep, e.deps = flags[:nl:nl], flags[nl:2*nl:2*nl], flags[2*nl:]
		e.ds = make([]ConcreteDS, len(lp.ds))
	}
	for i, name := range lp.ds {
		e.ds[i], _ = e.Linked(name)
	}
	e.boundGen = e.linkGen
}

// Run executes the program's body on the current packet. It returns the
// resulting action; every path must end in Forward or Drop.
//
// Locals live in the Env until the next ResetPacket; they do not carry
// over from one program to a different one.
func (e *Env) Run(p *Program) (Action, error) {
	lp := p.low
	if lp == nil {
		return Action{}, fmt.Errorf("nfir: %s: program not built by NewProgram", p.Name)
	}
	if e.low != lp || e.boundGen != e.linkGen {
		e.bind(lp)
	}
	if err := e.exec(lp); err != nil {
		return Action{}, fmt.Errorf("nfir: %s: %w", p.Name, err)
	}
	return e.Action, nil
}

var errFellOff = errors.New("fell off the end without Forward/Drop")

// exec runs the lowered program. Every operand carries its
// load-dependence taint, which the detailed hardware model uses to
// decide which misses can overlap. Charges reach the Meter in exactly
// the order a walk of the statement tree would make them.
func (e *Env) exec(lp *lowered) error {
	code, vals, deps := lp.code, e.vals, e.deps
	locals, dep, assigned := e.locals, e.dep, e.assigned
	m := e.Meter
	sp := 0
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			vals[sp], deps[sp] = in.imm, false
			sp++
		case opLocal:
			if !assigned[in.a] {
				return fmt.Errorf("read of unassigned local %q", lp.locals[in.a])
			}
			vals[sp], deps[sp] = locals[in.a], dep[in.a]
			sp++
		case opNow:
			vals[sp], deps[sp] = e.Time, false
			sp++
		case opInPort:
			vals[sp], deps[sp] = e.InPort, false
			sp++
		case opPktLen:
			vals[sp], deps[sp] = e.PktLen, false
			sp++
		case opNot:
			if vals[sp-1] == 0 {
				vals[sp-1] = 1
			} else {
				vals[sp-1] = 0
			}
		case opBin:
			sp--
			m.Exec(perf.OpClass(in.cls), 1)
			vals[sp-1] = symb.ApplyOp(symb.Op(in.sop), vals[sp-1], vals[sp])
			deps[sp-1] = deps[sp-1] || deps[sp]
		case opPktLoad:
			off, size := vals[sp-1], int(in.a)
			if !inPacket(off, size) {
				return fmt.Errorf("packet load out of bounds: off=%d size=%d", off, size)
			}
			m.Load(e.PktAddr+off, uint8(size), false)
			vals[sp-1], deps[sp-1] = getBE(e.Pkt[off:], size), true
		case opMemLoad:
			addr, size := vals[sp-1], int(in.a)
			m.Load(addr, uint8(size), deps[sp-1])
			vals[sp-1], deps[sp-1] = e.Heap.Read(addr, size), true
		case opAssign:
			sp--
			locals[in.a], dep[in.a], assigned[in.a] = vals[sp], deps[sp], true
		case opJz:
			sp--
			if in.imm != 0 {
				m.Exec(perf.OpBranch, 1)
			}
			if vals[sp] == 0 {
				pc = int(in.a) - 1
			}
		case opJmp:
			pc = int(in.a) - 1
		case opLoopInit:
			e.iters[in.a] = 0
		case opLoopNext:
			if in.imm > 0 && e.iters[in.a] >= in.imm {
				return fmt.Errorf("loop exceeded MaxIter=%d", in.imm)
			}
			e.iters[in.a]++
		case opCall:
			site := &lp.calls[in.a]
			sp -= site.nargs
			ds := e.ds[site.ds]
			if ds == nil {
				return fmt.Errorf("unknown data structure %q", site.name)
			}
			// The arguments are lent straight from the operand stack.
			results, err := ds.Invoke(site.method, vals[sp:sp+site.nargs:sp+site.nargs], e)
			if err != nil {
				return fmt.Errorf("%s.%s: %w", site.name, site.method, err)
			}
			if len(results) < len(site.dsts) {
				return fmt.Errorf("%s.%s returned %d values, want ≥ %d", site.name, site.method, len(results), len(site.dsts))
			}
			for i, dst := range site.dsts {
				// Model results flow through memory.
				locals[dst], dep[dst], assigned[dst] = results[i], true, true
			}
		case opPktStore:
			sp -= 2
			off, size := vals[sp], int(in.a)
			if !inPacket(off, size) {
				return fmt.Errorf("packet store out of bounds: off=%d size=%d", off, size)
			}
			m.Store(e.PktAddr+off, uint8(size))
			e.StorePkt(off, size, vals[sp+1])
		case opMemStore:
			sp -= 2
			m.Store(vals[sp], uint8(in.a))
			e.Heap.Write(vals[sp], int(in.a), vals[sp+1])
		case opForward:
			e.Action = Action{Kind: ActionForward, Port: vals[sp-1]}
			return nil
		case opDrop:
			e.Action = Action{Kind: ActionDrop}
			return nil
		case opFellOff:
			return errFellOff
		case opUnknown:
			return errors.New(lp.msgs[in.a])
		}
	}
}

// inPacket reports whether size bytes at off lie inside the buffer.
func inPacket(off uint64, size int) bool {
	return off <= MaxPacket && off+uint64(size) <= MaxPacket
}

func getBE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	default:
		panic("nfir: unsupported access size")
	}
}

func putBE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	case 8:
		binary.BigEndian.PutUint64(b, v)
	default:
		panic("nfir: unsupported access size")
	}
}
