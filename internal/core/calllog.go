package core

import (
	"sync"

	"gobolt/internal/nfir"
)

// This file is the monitor's call evidence: the record of one stateful
// call, the process-wide table that turns its strings into the small
// integers the classifier dispatches on, and the pooled recorder that
// fills both while a monitored NF runs.

// CallRecord is one observed stateful call of a concrete run. Outcome
// carries the concrete structure's self-reported outcome label
// (nfir.Env.ObserveOutcome) when it has one — the tie-breaking evidence
// for sibling outcomes whose results are indistinguishable.
//
// OpID and OutcomeID are (DS, Method) and Outcome interned in the call
// table — the evidence the classifier actually reads. A recorder fills
// them; a record with OpID 0 (built by hand) is resolved from its
// strings when it is classified. OutcomeID 0 means "no label". The
// strings stay for alerts, OnClassify taps and tests.
type CallRecord struct {
	DS, Method string
	Results    []uint64
	Outcome    string
	OpID       uint32
	OutcomeID  uint32
}

// callTable interns call sites and outcome labels, process-wide, so
// records from any recorder and paths from any contract share one ID
// space. IDs start at 1; it only ever grows, by the (structure, method)
// pairs programs call and the labels their models declare.
var callTable struct {
	mu     sync.Mutex
	ops    map[[2]string]uint32
	labels map[string]uint32
}

// unknownID is what resolving a string nobody interned yields: no
// classifier compiled it, so no path carries it and it matches nothing.
const unknownID = ^uint32(0)

func internOp(ds, method string) uint32 {
	callTable.mu.Lock()
	defer callTable.mu.Unlock()
	if callTable.ops == nil {
		callTable.ops = make(map[[2]string]uint32)
	}
	id, ok := callTable.ops[[2]string{ds, method}]
	if !ok {
		id = uint32(len(callTable.ops) + 1)
		callTable.ops[[2]string{ds, method}] = id
	}
	return id
}

func internLabel(label string) uint32 {
	if label == "" {
		return 0
	}
	callTable.mu.Lock()
	defer callTable.mu.Unlock()
	if callTable.labels == nil {
		callTable.labels = make(map[string]uint32)
	}
	id, ok := callTable.labels[label]
	if !ok {
		id = uint32(len(callTable.labels) + 1)
		callTable.labels[label] = id
	}
	return id
}

// callIDs returns a record's interned evidence, resolving a hand-built
// record (OpID 0) through the call table without growing it.
func callIDs(r *CallRecord) (op, outcome uint32) {
	if r.OpID != 0 {
		return r.OpID, r.OutcomeID
	}
	return resolveCall(r)
}

func resolveCall(r *CallRecord) (op, outcome uint32) {
	callTable.mu.Lock()
	defer callTable.mu.Unlock()
	op, ok := callTable.ops[[2]string{r.DS, r.Method}]
	if !ok {
		op = unknownID
	}
	if r.Outcome != "" {
		if outcome, ok = callTable.labels[r.Outcome]; !ok {
			outcome = unknownID
		}
	}
	return op, outcome
}

// CallLog is a reusable call-record sink: Reset it per packet and the
// steady state allocates nothing — records and their result copies land
// in arenas whose capacity survives the reset. Each wrapped structure's
// methods and their outcome labels are interned once, on first call,
// into per-structure caches, so a call resolves its evidence with a
// short scan of its own structure's methods instead of a table probe.
//
// Records sliced out of a log are valid only until the next Reset; copy
// them (Append) to retain a packet's calls past its observation.
type CallLog struct {
	recs  []CallRecord
	res   []uint64
	sites []*callSite

	// env is the Env the log is attached to, nil when detached; restore
	// is the detach function AttachCallLog returns, built once.
	env     *nfir.Env
	restore func()
}

// callSite caches one linked structure's interned methods for a CallLog,
// and the wrapper that records its calls, kept while the structure
// linked under the name stays the same.
type callSite struct {
	ds      string
	methods []*callMethod
	wrapper *callLogDS
}

// callMethod is one method's op ID and the outcome labels it has
// reported, interned.
type callMethod struct {
	name   string
	op     uint32
	labels []labelID
}

type labelID struct {
	label string
	id    uint32
}

func (s *callSite) method(name string) *callMethod {
	for _, m := range s.methods {
		if m.name == name {
			return m
		}
	}
	m := &callMethod{name: name, op: internOp(s.ds, name)}
	s.methods = append(s.methods, m)
	return m
}

func (m *callMethod) label(outcome string) uint32 {
	if outcome == "" {
		return 0
	}
	for _, l := range m.labels {
		if l.label == outcome {
			return l.id
		}
	}
	id := internLabel(outcome)
	m.labels = append(m.labels, labelID{outcome, id})
	return id
}

func (l *CallLog) site(ds string) *callSite {
	for _, s := range l.sites {
		if s.ds == ds {
			return s
		}
	}
	s := &callSite{ds: ds}
	l.sites = append(l.sites, s)
	return s
}

// Reset discards the current packet's records, keeping capacity. Earlier
// Records() slices must not be read afterwards.
func (l *CallLog) Reset() {
	l.recs = l.recs[:0]
	l.res = l.res[:0]
}

// Records returns the calls recorded since the last Reset.
func (l *CallLog) Records() []CallRecord { return l.recs }

// next appends a record whose Results are results copied into the
// log's arena, every other field left for the caller to set. A grown
// arena leaves earlier records pointing at the old backing array, which
// still holds their values — no fixup needed.
func (l *CallLog) next(results []uint64) *CallRecord {
	start := len(l.res)
	l.res = append(l.res, results...)
	if len(l.recs) == cap(l.recs) {
		l.recs = append(l.recs, CallRecord{})
	} else {
		l.recs = l.recs[:len(l.recs)+1]
	}
	rec := &l.recs[len(l.recs)-1]
	rec.Results = l.res[start:len(l.res):len(l.res)]
	return rec
}

// Append deep-copies records, every field, into the log's arenas
// (without resetting) and returns the copied slice — how the sharded
// monitor hands a packet's calls to another goroutine. The returned
// slice stays valid until the log's next Reset.
func (l *CallLog) Append(recs []CallRecord) []CallRecord {
	from := len(l.recs)
	for i := range recs {
		rec := l.next(recs[i].Results)
		results := rec.Results
		*rec = recs[i]
		rec.Results = results
	}
	return l.recs[from:len(l.recs):len(l.recs)]
}

// callLogDS wraps a ConcreteDS so every invocation lands in a CallLog.
// Cost accounting is untouched: the wrapped structure charges the
// environment's meter exactly as before.
type callLogDS struct {
	site  *callSite
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
	m, outcome := r.site.method(method), env.TakeOutcome()
	rec := r.log.next(results)
	rec.DS, rec.Method, rec.Outcome = r.site.ds, m.name, outcome
	rec.OpID, rec.OutcomeID = m.op, m.label(outcome)
	return results, nil
}

// AttachCallLog wraps every data structure linked in env so concrete
// calls append to log, and returns the function that links the
// originals back. The monitor brackets each monitored run with it.
//
// A log keeps one wrapper per structure and reuses it while the same
// structure is linked under that name, and the function it returns is
// the log's own, so attaching a log again allocates nothing. A log is
// attached to one Env at a time: restore before attaching it elsewhere.
func AttachCallLog(env *nfir.Env, log *CallLog) (restore func()) {
	env.WrapLinked(log.wrap)
	log.env = env
	if log.restore == nil {
		log.restore = log.detach
	}
	return log.restore
}

// wrap returns the recording wrapper for ds, linked under name. A
// structure this log already wraps stays as it is.
func (l *CallLog) wrap(name string, ds nfir.ConcreteDS) nfir.ConcreteDS {
	if w, ok := ds.(*callLogDS); ds == nil || ok && w.log == l {
		return ds
	}
	s := l.site(name)
	if s.wrapper == nil || s.wrapper.inner != ds {
		s.wrapper = &callLogDS{site: s, inner: ds, log: l}
	}
	return s.wrapper
}

// detach links back the structures this log wraps in the Env it is
// attached to.
func (l *CallLog) detach() {
	if l.env == nil {
		return
	}
	l.env.WrapLinked(func(_ string, ds nfir.ConcreteDS) nfir.ConcreteDS {
		if w, ok := ds.(*callLogDS); ok && w.log == l {
			return w.inner
		}
		return ds
	})
	l.env = nil
}
