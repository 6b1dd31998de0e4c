// Package perf defines the performance metrics that contracts are written
// in, and the Meter used by the concrete interpreter and the stateful
// data-structure library to account per-packet cost.
//
// The paper (§1, §3) quantifies NF performance in three units: the number
// of executed instructions (IC), the number of memory accesses (MA), and
// the number of execution cycles. IC and MA are hardware-independent and
// are accounted directly by the Meter; cycles are derived from the
// Meter's access trace by a hardware model (package hwmodel).
package perf

import "fmt"

// Metric identifies one of the performance units a contract can be
// expressed in.
type Metric int

const (
	// Instructions is the dynamic instruction count (paper: "IC").
	Instructions Metric = iota
	// MemAccesses is the number of memory accesses (paper: "MA").
	MemAccesses
	// Cycles is the number of execution cycles; it depends on the
	// hardware model in use.
	Cycles
	numMetrics
)

// NumMetrics is the number of defined metrics.
const NumMetrics = int(numMetrics)

// Metrics lists all metrics in canonical order.
var Metrics = [NumMetrics]Metric{Instructions, MemAccesses, Cycles}

// String returns the short name used in reports ("IC", "MA", "cycles").
func (m Metric) String() string {
	switch m {
	case Instructions:
		return "IC"
	case MemAccesses:
		return "MA"
	case Cycles:
		return "cycles"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric resolves the command-line spellings of a metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "instructions", "ic":
		return Instructions, nil
	case "memaccesses", "ma":
		return MemAccesses, nil
	case "cycles":
		return Cycles, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", s)
	}
}

// ParseOpClass resolves an OpClass's String name; unknown names report
// ok=false. It is the strict inverse the contract codec decodes stored
// per-path operation tallies with.
func ParseOpClass(s string) (OpClass, bool) {
	for c := OpClass(0); c < OpClass(NumOpClasses); c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// OpClass classifies an executed operation for the purpose of cycle-cost
// lookup in a hardware model. The classes mirror the broad x86 cost
// buckets of the Intel optimisation manual that the paper's conservative
// model draws from: simple ALU ops, multiplies, divides, branches, and
// memory operations.
type OpClass int

const (
	// OpALU covers add/sub/logic/shift/compare and register moves.
	OpALU OpClass = iota
	// OpMul covers integer multiplication.
	OpMul
	// OpDiv covers integer division and modulo.
	OpDiv
	// OpBranch covers conditional and unconditional jumps.
	OpBranch
	// OpLoad is a memory read.
	OpLoad
	// OpStore is a memory write.
	OpStore
	// OpCall covers call/return linkage overhead.
	OpCall
	numOpClasses
)

// NumOpClasses is the number of defined operation classes.
const NumOpClasses = int(numOpClasses)

// String names the class for debugging output.
func (c OpClass) String() string {
	switch c {
	case OpALU:
		return "alu"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpBranch:
		return "branch"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpCall:
		return "call"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// Access records one executed operation in the trace a Meter gathers.
// Non-memory operations carry only the class and count; memory operations
// additionally carry the touched address range and whether the address
// computation depended on the result of an earlier load (pointer chasing),
// which the detailed hardware model uses to decide whether misses may
// overlap (memory-level parallelism).
type Access struct {
	Class OpClass
	// Count is the number of consecutive operations of this class this
	// event stands for. Bulk charging keeps traces compact.
	Count uint64
	// Addr and Size describe the touched bytes for OpLoad/OpStore.
	Addr uint64
	Size uint8
	// LoadDependent marks a memory operation whose address derives from
	// the value returned by a previous load.
	LoadDependent bool
}

// TraceSink receives the operation stream of a metered execution.
// Implementations must be cheap: the concrete interpreter calls this for
// every executed operation.
type TraceSink interface {
	Op(ev Access)
}

// Meter accumulates IC and MA for one measured execution and forwards the
// operation stream to an optional TraceSink (used by hardware models).
// A nil *Meter is valid and discards all charges, so deep call sites can
// charge unconditionally.
type Meter struct {
	instructions uint64
	memAccesses  uint64
	sink         TraceSink
}

// NewMeter returns a Meter forwarding to sink; sink may be nil.
func NewMeter(sink TraceSink) *Meter { return &Meter{sink: sink} }

// Instructions returns the accumulated dynamic instruction count.
func (m *Meter) Instructions() uint64 {
	if m == nil {
		return 0
	}
	return m.instructions
}

// MemAccesses returns the accumulated memory access count.
func (m *Meter) MemAccesses() uint64 {
	if m == nil {
		return 0
	}
	return m.memAccesses
}

// Get returns the accumulated value of a hardware-independent metric.
// Requesting Cycles panics: cycles are computed by a hardware model, not
// accounted by the Meter.
func (m *Meter) Get(metric Metric) uint64 {
	switch metric {
	case Instructions:
		return m.Instructions()
	case MemAccesses:
		return m.MemAccesses()
	default:
		panic("perf: Meter does not account metric " + metric.String())
	}
}

// Reset clears the accumulated counts. The sink is kept.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.instructions = 0
	m.memAccesses = 0
}

// Exec charges count non-memory instructions of the given class.
func (m *Meter) Exec(class OpClass, count uint64) {
	if m == nil || count == 0 {
		return
	}
	m.instructions += count
	if m.sink != nil {
		m.sink.Op(Access{Class: class, Count: count})
	}
}

// Bulk charges ic instructions, ma of them memory accesses, in one step
// and reports true — unless a sink is attached, in which case it charges
// nothing and reports false, because the sink is owed one event per
// operation and the caller must charge them one by one. It lets a caller
// that knows a whole step's cost skip the per-operation calls on the
// untraced hot path without ever changing a traced stream.
func (m *Meter) Bulk(ic, ma uint64) bool {
	if m == nil {
		return true
	}
	if m.sink != nil {
		return false
	}
	m.instructions += ic
	m.memAccesses += ma
	return true
}

// Load charges one load instruction touching size bytes at addr.
func (m *Meter) Load(addr uint64, size uint8, loadDependent bool) {
	if m == nil {
		return
	}
	m.instructions++
	m.memAccesses++
	if m.sink != nil {
		m.sink.Op(Access{Class: OpLoad, Count: 1, Addr: addr, Size: size, LoadDependent: loadDependent})
	}
}

// Store charges one store instruction touching size bytes at addr.
func (m *Meter) Store(addr uint64, size uint8) {
	if m == nil {
		return
	}
	m.instructions++
	m.memAccesses++
	if m.sink != nil {
		m.sink.Op(Access{Class: OpStore, Count: 1, Addr: addr, Size: size})
	}
}

// Snapshot captures the counters of a Meter at one instant, so callers can
// compute deltas around a region of interest.
type Snapshot struct {
	Instructions uint64
	MemAccesses  uint64
}

// Snapshot returns the current counter values.
func (m *Meter) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{Instructions: m.instructions, MemAccesses: m.memAccesses}
}

// Since returns the counters accumulated since an earlier snapshot.
func (m *Meter) Since(s Snapshot) Snapshot {
	cur := m.Snapshot()
	return Snapshot{
		Instructions: cur.Instructions - s.Instructions,
		MemAccesses:  cur.MemAccesses - s.MemAccesses,
	}
}
