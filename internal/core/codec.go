package core

// codec.go is the versioned, lossless serialization of performance
// contracts — the interchange format that turns a contract from a
// process-local struct into a durable artifact. An encoded artifact
// carries everything the in-memory representation does: every path's
// constraints (full symb.Expr trees), symbol domains, call traces, cost
// polynomials, PCV ranges, and witnesses, plus — when the artifact backs
// a cache entry — the raw symbolic paths chain composition needs, so a
// stored fold prefix can be extended without regenerating a stage.
//
// The wire format is JSON under a {format, version} envelope, canonical
// by construction: every in-memory value has exactly one spelling, the
// encoder writes it, and the decoder accepts nothing else.
//
//   - Encoding appends straight from the structures: object fields in
//     one fixed order, zero-valued optional fields omitted, map keys
//     sorted bytewise, integers in shortest decimal, strings escaped the
//     way encoding/json escapes them (appendString).
//   - Decoding is one recursive-descent pass over the byte slice along
//     the same schema. A field unknown, repeated or out of order, an
//     optional field present with its zero value, map keys not strictly
//     ascending, "01", "1e3", "A" for "A", whitespace, trailing
//     bytes, nesting beyond maxExprDepth, an unknown operator, action,
//     metric or op-class name, a non-canonical monomial, raw paths
//     misaligned with contract paths: each is a syntax error where it
//     occurs. decode∘encode is the identity on every accepted input
//     without re-encoding it; `boltctl verify` and FuzzContractCodec
//     check that identity from outside.
//   - Decoded values share structure. Strings are interned per artifact,
//     expression nodes are hash-consed (identical subtrees are one node)
//     and each distinct monomial key is parsed once. Five kinds of field
//     are memoised by their bytes: expression lists (constraints, results,
//     arguments), domains, PCV ranges, shared-MA polynomials and packet
//     writes. A span equal to one already accepted at the same kind of
//     field and nesting level is skipped, not parsed, and the paths that
//     spell it share one slice, map or Poly. Acceptance and the decoded
//     value stay a function of the bytes alone (see memo). Shared slices
//     are clipped, so an append reallocates, and cached contracts are
//     read-only anyway (see ContractCache), so sharing shows only in the
//     cost: a 582-path composite holds ~63,000 expression nodes, under a
//     hundred of them distinct, and 2.6 of its 3.3 MB repeat an earlier
//     span.
//
// Integrity is not this file's job: the on-disk store (internal/store)
// frames these bytes with a SHA-256 checksum that Store.Get verifies.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// ArtifactVersion is the one codec version this build reads and writes.
// Version 2 carries the shard dimension (per-path shared-MA polynomials,
// per-call sharability verdicts and key arguments); version-1 objects
// predate it and are rejected — the cache key's schema tag already keeps
// them from being looked up.
const ArtifactVersion = 2

// artifactFormat tags encoded artifacts; it never changes (the version
// number does).
const artifactFormat = "gobolt-contract"

// maxExprDepth bounds JSON nesting (objects plus arrays, the outermost
// brace being level 1) during decoding. Only expression trees nest
// without a schema bound; deeper inputs are corrupt or hostile, not
// contracts.
const maxExprDepth = 10000

// Artifact is a contract as a durable object: the contract itself, the
// store key it is content-addressed by (empty when the generation was
// uncacheable), and — optionally — the raw symbolic paths that let chain
// composition extend the contract without regenerating it. When Paths is
// non-nil it aligns one-to-one with Contract.Paths.
type Artifact struct {
	Key      string
	Contract *Contract
	Paths    []*nfir.Path
	// Version is the codec version of the bytes DecodeArtifact read the
	// artifact from. EncodeArtifact ignores it and writes ArtifactVersion.
	Version int
}

// metricKeys names the metrics in the wire format, in the (sorted) order
// a cost object lists them.
var metricKeys = [...]struct {
	m   perf.Metric
	key string
}{{perf.Cycles, "cycles"}, {perf.Instructions, "ic"}, {perf.MemAccesses, "ma"}}

// --- encoding -------------------------------------------------------

// encoder appends an artifact's canonical bytes to buf. Its writers take
// the literal that precedes the value (a field name, or "" in lists).
// The first value it cannot spell is recorded in err and encoding
// carries on; EncodeArtifact checks err once per path.
type encoder struct {
	buf   []byte
	err   error
	keys  []string    // scratch: a map's keys, sorted
	monos []expr.Mono // scratch: a polynomial's monomials, sorted
	offs  []uint64    // scratch: packet-write offsets, sorted
}

// EncodeArtifact serializes an artifact to its canonical bytes. The
// output is deterministic — encoding the same artifact twice yields
// identical bytes — and DecodeArtifact inverts it exactly.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	if a == nil || a.Contract == nil {
		return nil, fmt.Errorf("core: cannot encode a nil contract")
	}
	ct := a.Contract
	if a.Paths != nil && len(a.Paths) != len(ct.Paths) {
		return nil, fmt.Errorf("core: artifact raw paths (%d) do not align with contract paths (%d)",
			len(a.Paths), len(ct.Paths))
	}
	if ct.NF == "" {
		return nil, fmt.Errorf("core: contract has no NF name")
	}
	e := &encoder{}
	e.int(`{"format":"`+artifactFormat+`","version":`, ArtifactVersion)
	e.optStr(`,"key":`, a.Key)
	e.str(`,"contract":{"nf":`, ct.NF)
	e.str(`,"level":`, ct.Level)
	e.optStr(`,"provenance":`, ct.Provenance)
	// Before each path, double the buffer unless it has room for two more
	// of the mean size so far: append alone grows a large slice by a
	// quarter at a time, and a multi-megabyte composite spent a third of
	// its encoding copying itself.
	n := 0
	reserve := func() {
		if n++; cap(e.buf)-len(e.buf) < 2*len(e.buf)/n {
			e.buf = slices.Grow(e.buf, cap(e.buf))
		}
	}
	e.lit(`,"paths":[`)
	for i, p := range ct.Paths {
		reserve()
		e.sep(i)
		if e.path(p); e.err != nil {
			return nil, fmt.Errorf("core: path %d: %w", i, e.err)
		}
	}
	e.lit(`]}`)
	if len(a.Paths) > 0 {
		e.lit(`,"raw_paths":[`)
		for i, rp := range a.Paths {
			reserve()
			e.sep(i)
			if e.rawPath(rp); e.err != nil {
				return nil, fmt.Errorf("core: raw path %d: %w", i, e.err)
			}
		}
		e.lit(`]`)
	}
	e.lit(`}`)
	return e.buf, nil
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) str(field, s string) { e.buf = appendString(append(e.buf, field...), s) }

func (e *encoder) u64(field string, v uint64) {
	e.buf = strconv.AppendUint(append(e.buf, field...), v, 10)
}

func (e *encoder) int(field string, v int) {
	e.buf = strconv.AppendInt(append(e.buf, field...), int64(v), 10)
}

// optStr, optU64 and optTrue write a field that is omitted at its zero
// value.
func (e *encoder) optStr(field, s string) {
	if s != "" {
		e.str(field, s)
	}
}

func (e *encoder) optU64(field string, v uint64) {
	if v != 0 {
		e.u64(field, v)
	}
}

func (e *encoder) optTrue(field string, v bool) {
	if v {
		e.lit(field)
	}
}

// sep separates the i-th element of a list or object from the one before.
func (e *encoder) sep(i int) {
	if i > 0 {
		e.lit(`,`)
	}
}

// list writes an array or object of n elements under field (whose last
// byte opens it), omitted when empty.
func (e *encoder) list(field string, n int, elem func(i int)) {
	if n == 0 {
		return
	}
	e.lit(field)
	for i := 0; i < n; i++ {
		e.sep(i)
		elem(i)
	}
	e.buf = append(e.buf, field[len(field)-1]+2) // '[' + 2 == ']', '{' + 2 == '}'
}

// object writes a string-keyed map under field with its keys in bytewise
// order, omitted when empty.
func object[V any](e *encoder, field string, m map[string]V, val func(V)) {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.list(field, len(m), func(i int) {
		e.str(``, e.keys[i])
		e.lit(`:`)
		val(m[e.keys[i]])
	})
}

// ranges writes a symbol→interval object (symb.Domain and expr.Range are
// both inclusive uint64 intervals).
func ranges[V symb.Domain | expr.Range](e *encoder, field string, m map[string]V) {
	object(e, field, m, func(v V) { e.lohi(``, expr.Range(v)) })
}

func (e *encoder) lohi(field string, r expr.Range) {
	e.lit(field)
	e.u64(`{"lo":`, r.Lo)
	e.u64(`,"hi":`, r.Hi)
	e.lit(`}`)
}

func (e *encoder) path(p *PathContract) {
	e.int(`{"id":`, p.ID)
	e.str(`,"action":`, p.Action.String())
	e.exprs(`,"constraints":[`, p.Constraints)
	ranges(e, `,"domains":{`, p.Domains)
	e.optStr(`,"events":`, p.Events)
	e.events(`,"trace":[`, p.Trace)
	e.cost(p.Cost)
	ranges(e, `,"pcv_ranges":{`, p.PCVRanges)
	if !p.SharedMA.IsZero() {
		e.poly(`,"shared_ma":`, p.SharedMA)
	}
	e.optTrue(`,"shard_analysed":true`, p.ShardAnalysed)
	// Witness distinguishes nil (the solver returned Unknown; the path is
	// kept conservatively) from an empty binding: null vs {}.
	switch {
	case p.Witness == nil:
		e.lit(`,"witness":null}`)
	case len(p.Witness) == 0:
		e.lit(`,"witness":{}}`)
	default:
		object(e, `,"witness":{`, p.Witness, func(v uint64) { e.u64(``, v) })
		e.lit(`}`)
	}
}

func (e *encoder) rawPath(rp *nfir.Path) {
	e.int(`{"id":`, rp.ID)
	e.str(`,"action":`, rp.Action.String())
	e.exprs(`,"constraints":[`, rp.Constraints)
	ranges(e, `,"domains":{`, rp.Domains)
	e.events(`,"events":[`, rp.Events)
	if rp.Port != nil {
		e.expr(`,"port":`, rp.Port)
	}
	e.optU64(`,"stateless_ic":`, rp.StatelessIC)
	e.optU64(`,"stateless_ma":`, rp.StatelessMA)
	ops := make(map[string]uint64, len(rp.Ops))
	for c, n := range rp.Ops {
		if _, ok := perf.ParseOpClass(c.String()); !ok {
			e.fail("unencodable op class %v", c)
		}
		ops[c.String()] = n
	}
	object(e, `,"ops":{`, ops, func(n uint64) { e.u64(``, n) })
	e.list(`,"accesses":[`, len(rp.Accesses), func(i int) {
		a := rp.Accesses[i]
		e.lit(`{`)
		n := len(e.buf)
		e.optTrue(`,"known":true`, a.Known)
		e.optU64(`,"addr":`, a.Addr)
		e.optU64(`,"size":`, uint64(a.Size))
		e.optTrue(`,"store":true`, a.Store)
		if len(e.buf) > n { // every field is optional: the first has no comma
			e.buf = slices.Delete(e.buf, n, n+1)
		}
		e.lit(`}`)
	})
	ranges(e, `,"pcv_ranges":{`, rp.PCVRanges)
	e.offs = e.offs[:0]
	for off := range rp.PktWrites {
		e.offs = append(e.offs, off)
	}
	slices.Sort(e.offs)
	e.list(`,"pkt_writes":[`, len(e.offs), func(i int) {
		w := rp.PktWrites[e.offs[i]]
		e.u64(`{"off":`, e.offs[i])
		e.int(`,"size":`, w.Size)
		e.expr(`,"val":`, w.Val)
		e.lit(`}`)
	})
	e.lit(`}`)
}

func (e *encoder) events(field string, evs []nfir.CallEvent) {
	e.list(field, len(evs), func(i int) {
		ev, o := &evs[i], &evs[i].Outcome
		e.str(`{"ds":`, ev.DS)
		e.str(`,"method":`, ev.Method)
		e.str(`,"outcome":{"label":`, o.Label)
		e.exprs(`,"results":[`, o.Results)
		e.exprs(`,"constraints":[`, o.Constraints)
		ranges(e, `,"domains":{`, o.Domains)
		e.cost(o.Cost)
		e.list(`,"pcvs":[`, len(o.PCVs), func(j int) {
			e.str(`{"name":`, o.PCVs[j].Name)
			e.lohi(`,"range":`, o.PCVs[j].Range)
			e.lit(`}`)
		})
		e.lit(`}`)
		e.list(`,"result_syms":[`, len(ev.ResultSyms), func(j int) { e.str(``, ev.ResultSyms[j]) })
		e.exprs(`,"args":[`, ev.Args)
		e.optStr(`,"sharing":`, ev.Sharing.Class.String())
		e.optStr(`,"sharing_reason":`, ev.Sharing.Reason)
		e.lit(`}`)
	})
}

func (e *encoder) cost(cost map[perf.Metric]expr.Poly) {
	if len(cost) == 0 {
		return
	}
	e.lit(`,"cost":{`)
	n := 0
	for _, mk := range metricKeys {
		if p, ok := cost[mk.m]; ok {
			e.sep(n)
			e.str(``, mk.key)
			e.poly(`:`, p)
			n++
		}
	}
	if n != len(cost) {
		e.fail("unencodable metric in %v", cost)
	}
	e.lit(`}`)
}

// poly writes a polynomial as canonical-monomial → coefficient. The
// empty monomial "" is the constant term; zero coefficients never occur.
func (e *encoder) poly(field string, p expr.Poly) {
	e.monos = p.AppendMonos(e.monos[:0])
	slices.Sort(e.monos)
	e.lit(field)
	e.lit(`{`)
	for i, m := range e.monos {
		e.sep(i)
		e.str(``, string(m))
		e.u64(`:`, p.Coef(m))
	}
	e.lit(`}`)
}

func (e *encoder) exprs(field string, es []symb.Expr) {
	e.list(field, len(es), func(i int) { e.expr(``, es[i]) })
}

// expr writes the tagged union of expression nodes: k = "c" (Const, v
// omitted when 0), "s" (Sym, n), "b" (Bin, op/l/r), "n" (Not, x).
func (e *encoder) expr(field string, x symb.Expr) {
	e.lit(field)
	switch x := x.(type) {
	case symb.Const:
		e.lit(`{"k":"c"`)
		e.optU64(`,"v":`, x.V)
	case symb.Sym:
		if x.Name == "" {
			e.fail("unencodable empty symbol name")
		}
		e.str(`{"k":"s","n":`, x.Name)
	case symb.Bin:
		if _, ok := symb.ParseOp(x.Op.String()); !ok {
			e.fail("unencodable operator %v", x.Op)
		}
		e.str(`{"k":"b","op":`, x.Op.String())
		e.expr(`,"l":`, x.L)
		e.expr(`,"r":`, x.R)
	case symb.Not:
		e.expr(`{"k":"n","x":`, x.X)
	case nil:
		e.fail("unencodable nil expression")
	default:
		e.fail("unencodable expression type %T", x)
	}
	e.lit(`}`)
}

// --- decoding -------------------------------------------------------

// decoder is one pass over b. Its readers take the literal that must
// precede the value, like the encoder's writers. It too records the
// first error and lets the descent unwind: once err is set every
// primitive reports "no match", so every loop ends.
type decoder struct {
	b   []byte
	i   int
	err error

	strs  map[string]string  // interned strings
	ids   map[exprKey]uint32 // hash-consed expression nodes, by index in nodes
	nodes []symb.Expr        // nodes[0] is the nil a failed parse returns

	// The accepted spans of the memoised sites (see memo).
	exprLists spanMemo[[]symb.Expr]
	domains   spanMemo[map[string]symb.Domain]
	ranges    spanMemo[map[string]expr.Range]
	polys     spanMemo[expr.Poly]
	pktWrites spanMemo[map[uint64]nfir.PktWrite]

	monos map[string]bool // monomial keys ParseMono accepted

	sbuf  []byte      // scratch: an escaped string, unescaped
	kvs   []member    // scratch: the members of the object being read
	exprs []symb.Expr // scratch: the expression list being read
}

// spanMemo maps the spans one decoding site has accepted, by nesting
// level and exact bytes, to what they decoded to. Every span the site
// accepts ends with end, which occurs nowhere earlier in it outside a
// string.
type spanMemo[V any] struct {
	end  []byte
	seen map[spanKey]V
}

type spanKey struct {
	lvl  int
	span string
}

func newSpanMemo[V any](end string) spanMemo[V] {
	return spanMemo[V]{[]byte(end), make(map[spanKey]V)}
}

// member is one key of a flat object with its value: a coefficient,
// witness value or tally in a, an interval in a..b.
type member struct {
	k    string
	a, b uint64
}

// exprKey identifies an expression node by its own fields and its
// children's indices, so a lookup is O(1) whatever the subtree's size.
type exprKey struct {
	kind byte // 'c', 's', 'b', 'n'
	op   symb.Op
	l, r uint32 // children (a Not's x in l)
	v    uint64
	name string
}

// DecodeArtifact parses canonical artifact bytes. It accepts exactly the
// image of EncodeArtifact — the file comment lists what that excludes —
// so EncodeArtifact(DecodeArtifact(b)) == b for every accepted b.
func DecodeArtifact(data []byte) (*Artifact, error) {
	d := &decoder{
		b:         data,
		strs:      make(map[string]string, 64),
		ids:       make(map[exprKey]uint32, 64),
		nodes:     []symb.Expr{nil},
		monos:     make(map[string]bool),
		exprLists: newSpanMemo[[]symb.Expr](`]`),
		domains:   newSpanMemo[map[string]symb.Domain](`}}`),
		ranges:    newSpanMemo[map[string]expr.Range](`}}`),
		polys:     newSpanMemo[expr.Poly](`}`),
		pktWrites: newSpanMemo[map[uint64]nfir.PktWrite](`]`),
	}
	if f := d.str(`{"format":`); f != artifactFormat {
		d.fail("not a contract artifact (format %q, want %q)", f, artifactFormat)
	}
	if v := d.int(`,"version":`); v != ArtifactVersion {
		d.fail("unsupported artifact version %d (this build reads version %d)", v, ArtifactVersion)
	}
	ct := &Contract{Paths: []*PathContract{}}
	a := &Artifact{Key: d.optStr(`,"key":`), Contract: ct, Version: ArtifactVersion}
	if ct.NF = d.str(`,"contract":{"nf":`); ct.NF == "" {
		d.fail("contract has no NF name")
	}
	ct.Level = d.str(`,"level":`)
	ct.Provenance = d.optStr(`,"provenance":`)
	d.expect(`,"paths":[`)
	if !d.lit(`]`) {
		d.list(``, func() { ct.Paths = append(ct.Paths, d.path()) })
	}
	d.expect(`}`)
	d.list(`,"raw_paths":[`, func() { a.Paths = append(a.Paths, d.rawPath()) })
	if a.Paths != nil && len(a.Paths) != len(ct.Paths) {
		d.fail("raw paths (%d) do not align with contract paths (%d)", len(a.Paths), len(ct.Paths))
	}
	if d.expect(`}`); d.i != len(d.b) {
		d.fail("trailing data after artifact")
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", d.err)
	}
	return a, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
	}
}

// lit consumes s if the input continues with it.
func (d *decoder) lit(s string) bool {
	if d.err != nil || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *decoder) expect(s string) {
	if !d.lit(s) {
		d.fail("expected %s", s)
	}
}

// list reads an optional array under field: never empty when present,
// elem once per element.
func (d *decoder) list(field string, elem func()) {
	if !d.lit(field) {
		return
	}
	for elem(); d.lit(`,`); elem() {
	}
	d.expect(`]`)
}

// path reads one contract path, an object at nesting level 4.
func (d *decoder) path() *PathContract {
	p := &PathContract{ID: d.int(`{"id":`), Action: d.action(`,"action":`)}
	p.Constraints = d.exprList(`,"constraints":[`, 6)
	p.Domains = parseRanges(d, `,"domains":{`, 5, d.domains)
	p.Events = d.optStr(`,"events":`)
	p.Trace = d.events(`,"trace":[`, 6)
	p.Cost = d.cost()
	p.PCVRanges = parseRanges(d, `,"pcv_ranges":{`, 5, d.ranges)
	if d.lit(`,"shared_ma":`) {
		if p.SharedMA = memo(d, d.polys, 5, d.poly); p.SharedMA.IsZero() {
			d.fail("zero shared_ma must be omitted")
		}
	}
	p.ShardAnalysed = d.lit(`,"shard_analysed":true`)
	if !d.lit(`,"witness":null`) {
		kvs := d.members(`,"witness":{`, d.u64Pair, true)
		p.Witness = make(map[string]uint64, len(kvs))
		for _, kv := range kvs {
			p.Witness[kv.k] = kv.a
		}
	}
	d.expect(`}`)
	return p
}

// rawPath reads one raw symbolic path, an object at nesting level 3.
func (d *decoder) rawPath() *nfir.Path {
	p := &nfir.Path{ID: d.int(`{"id":`), Action: d.action(`,"action":`)}
	p.Constraints = d.exprList(`,"constraints":[`, 5)
	p.Domains = parseRanges(d, `,"domains":{`, 4, d.domains)
	p.Events = d.events(`,"events":[`, 5)
	if d.lit(`,"port":`) {
		p.Port = d.expr(4)
	}
	p.StatelessIC = d.optU64(`,"stateless_ic":`)
	p.StatelessMA = d.optU64(`,"stateless_ma":`)
	if d.lit(`,"ops":`) {
		kvs := d.members(`{`, d.u64Pair, false)
		p.Ops = make(map[perf.OpClass]uint64, len(kvs))
		for _, kv := range kvs {
			c, ok := perf.ParseOpClass(kv.k)
			if !ok {
				d.fail("unknown op class %q", kv.k)
			}
			p.Ops[c] = kv.a
		}
	}
	d.list(`,"accesses":[`, func() {
		var a nfir.SymAccess
		d.expect(`{`)
		start := d.i
		field := func(f string) bool { // every field is optional: the first has no comma
			if d.i == start {
				f = f[1:]
			}
			return d.lit(f)
		}
		a.Known = field(`,"known":true`)
		if field(`,"addr":`) {
			a.Addr = d.nonZero()
		}
		if field(`,"size":`) {
			v := d.nonZero()
			if a.Size = uint8(v); v > math.MaxUint8 {
				d.fail("access size %d out of range", v)
			}
		}
		a.Store = field(`,"store":true`)
		d.expect(`}`)
		p.Accesses = append(p.Accesses, a)
	})
	p.PCVRanges = parseRanges(d, `,"pcv_ranges":{`, 4, d.ranges)
	if d.lit(`,"pkt_writes":[`) {
		p.PktWrites = memo(d, d.pktWrites, 4, d.pktWriteList)
	}
	d.expect(`}`)
	return p
}

// pktWriteList reads the elements of a raw path's packet-write list,
// objects at nesting level 5, and its closing bracket.
func (d *decoder) pktWriteList() map[uint64]nfir.PktWrite {
	w := make(map[uint64]nfir.PktWrite)
	prev := uint64(0)
	d.list(``, func() {
		off := d.u64(`{"off":`)
		if len(w) > 0 && off <= prev {
			d.fail("packet writes not in strictly ascending offset order")
		}
		prev = off
		size := d.int(`,"size":`)
		d.expect(`,"val":`)
		w[off] = nfir.PktWrite{Size: size, Val: d.expr(6)}
		d.expect(`}`)
	})
	return w
}

// events reads a list of call events, objects at nesting level lvl.
func (d *decoder) events(field string, lvl int) (out []nfir.CallEvent) {
	d.list(field, func() {
		ev := nfir.CallEvent{DS: d.str(`{"ds":`), Method: d.str(`,"method":`)}
		if ev.DS == "" || ev.Method == "" {
			d.fail("call event has an empty data-structure or method name")
		}
		o := &ev.Outcome
		o.Label = d.str(`,"outcome":{"label":`)
		o.Results = d.exprList(`,"results":[`, lvl+3)
		o.Constraints = d.exprList(`,"constraints":[`, lvl+3)
		o.Domains = parseRanges(d, `,"domains":{`, lvl+2, d.domains)
		o.Cost = d.cost()
		d.list(`,"pcvs":[`, func() {
			pcv := nfir.PCV{Name: d.str(`{"name":`)}
			if pcv.Name == "" {
				d.fail("PCV with an empty name")
			}
			d.expect(`,"range":`)
			pcv.Range.Lo, pcv.Range.Hi = d.lohi()
			d.expect(`}`)
			o.PCVs = append(o.PCVs, pcv)
		})
		d.expect(`}`)
		d.list(`,"result_syms":[`, func() { ev.ResultSyms = append(ev.ResultSyms, d.str(``)) })
		ev.Args = d.exprList(`,"args":[`, lvl+2)
		if s := d.optStr(`,"sharing":`); s != "" {
			var ok bool
			if ev.Sharing.Class, ok = nfir.ParseSharingClass(s); !ok {
				d.fail("unknown sharing class %q", s)
			}
		}
		ev.Sharing.Reason = d.optStr(`,"sharing_reason":`)
		if ev.Sharing.Class == nfir.SharingUnknown && ev.Sharing.Reason != "" {
			d.fail("sharing reason without a sharing class")
		}
		d.expect(`}`)
		out = append(out, ev)
	})
	return out
}

func (d *decoder) action(field string) nfir.ActionKind {
	s := d.str(field)
	k, ok := nfir.ParseActionKind(s)
	if !ok {
		d.fail("unknown action %q", s)
	}
	return k
}

// members reads an object opened by the literal open, its values by val,
// into scratch the next call reuses. encoding/json sorted map keys, so
// keys must be strictly ascending: a repeated or out-of-order key is not
// canonical.
func (d *decoder) members(open string, val func() (uint64, uint64), allowEmpty bool) []member {
	d.expect(open)
	d.kvs = d.kvs[:0]
	if allowEmpty && d.lit(`}`) {
		return d.kvs
	}
	for more := true; more; more = d.lit(`,`) {
		k := d.str(``)
		if n := len(d.kvs); n > 0 && k <= d.kvs[n-1].k {
			d.fail("object keys not strictly ascending at %q", k)
		}
		d.expect(`:`)
		a, b := val()
		d.kvs = append(d.kvs, member{k, a, b})
	}
	d.expect(`}`)
	return d.kvs
}

func (d *decoder) u64Pair() (uint64, uint64) { return d.u64(``), 0 }

func (d *decoder) lohi() (lo, hi uint64) {
	lo, hi = d.u64(`{"lo":`), d.u64(`,"hi":`)
	d.expect(`}`)
	return lo, hi
}

// parseRanges reads an optional symbol→interval object at nesting level
// lvl, never empty when present, memoised in seen.
func parseRanges[V symb.Domain | expr.Range](d *decoder, field string, lvl int, seen spanMemo[map[string]V]) map[string]V {
	if !d.lit(field) {
		return nil
	}
	return memo(d, seen, lvl, func() map[string]V {
		kvs := d.members(``, d.lohi, false)
		m := make(map[string]V, len(kvs))
		for _, kv := range kvs {
			m[kv.k] = V(expr.Range{Lo: kv.a, Hi: kv.b})
		}
		return m
	})
}

func (d *decoder) cost() map[perf.Metric]expr.Poly {
	if !d.lit(`,"cost":{`) {
		return nil
	}
	m := make(map[perf.Metric]expr.Poly, len(metricKeys))
	next := 0 // metricKeys is sorted, so ascending keys only move forward
	for more := true; more; more = d.lit(`,`) {
		k := d.str(``)
		for next < len(metricKeys) && metricKeys[next].key != k {
			next++
		}
		if next == len(metricKeys) {
			d.fail("unknown, repeated or out-of-order metric %q", k)
			return nil
		}
		d.expect(`:`)
		m[metricKeys[next].m] = d.poly()
		next++
	}
	d.expect(`}`)
	return m
}

// poly reads a polynomial object, monomial → non-zero coefficient.
func (d *decoder) poly() expr.Poly {
	kvs := d.members(`{`, d.u64Pair, true)
	terms := make(map[expr.Mono]uint64, len(kvs))
	for _, kv := range kvs {
		if !d.monos[kv.k] {
			if _, err := expr.ParseMono(kv.k); err != nil {
				d.fail("%v", err)
			} else {
				d.monos[kv.k] = true
			}
		}
		if kv.a == 0 {
			d.fail("zero coefficient for monomial %q", kv.k)
		}
		terms[expr.Mono(kv.k)] = kv.a
	}
	return expr.OwnTerms(terms)
}

// exprList reads an optional, never-empty list of expressions, objects
// at nesting level lvl.
func (d *decoder) exprList(field string, lvl int) []symb.Expr {
	if !d.lit(field) {
		return nil
	}
	return memo(d, d.exprLists, lvl, func() []symb.Expr {
		d.exprs = d.exprs[:0]
		d.list(``, func() { d.exprs = append(d.exprs, d.expr(lvl)) })
		// Clipped, so that appending to one path's list never writes into
		// another's.
		return slices.Clip(slices.Clone(d.exprs))
	})
}

// memo reads the value that starts at the cursor with read, lvl being
// the nesting level read starts at. Its span is everything read
// consumes. If the input continues with a span m has accepted before at
// the same level, read is skipped: the cursor moves past the span and
// the value stored with it is returned. Otherwise a span read accepts
// is stored.
//
// Skipping changes neither what is accepted nor what it decodes to. read
// is deterministic and looks at nothing past the span's last byte (only
// a number reads one byte ahead, and no span ends in one), so on a span
// it once accepted it would accept again, building an equal value; the
// level is in the key, so the depth limit applies as it would have; and
// a failed span is never stored. The candidate span ends at the first
// m.end, which an accepted span ends with and does not contain earlier,
// so on input read accepts, finding and hashing the candidate costs no
// more bytes than read consumes; the memo keeps decoding linear.
func memo[V any](d *decoder, m spanMemo[V], lvl int, read func() V) V {
	if d.err == nil {
		rest := d.b[d.i:]
		if n := bytes.Index(rest, m.end); n >= 0 {
			n += len(m.end)
			if v, ok := m.seen[spanKey{lvl, string(rest[:n])}]; ok {
				d.i += n
				return v
			}
		}
	}
	start := d.i
	v := read()
	if d.err == nil {
		m.seen[spanKey{lvl, string(d.b[start:d.i])}] = v
	}
	return v
}

func (d *decoder) expr(lvl int) symb.Expr { return d.nodes[d.node(lvl)] }

// node reads one expression object at nesting level lvl and returns its
// index in d.nodes. It rebuilds the tree EXACTLY as stored — raw node
// constructors, never symb.B, whose constant folding would rewrite it —
// but allocates a node only the first time its kind, fields and children
// occur together.
func (d *decoder) node(lvl int) uint32 {
	if lvl > maxExprDepth {
		d.fail("nesting exceeds %d", maxExprDepth)
	}
	var k exprKey
	switch {
	case d.lit(`{"k":"c"`):
		k.kind, k.v = 'c', d.optU64(`,"v":`)
	case d.lit(`{"k":"s","n":`):
		if k.kind, k.name = 's', d.str(``); k.name == "" {
			d.fail("symbol node with empty name")
		}
	case d.lit(`{"k":"b","op":`):
		s := d.str(``)
		op, ok := symb.ParseOp(s)
		if k.kind, k.op = 'b', op; !ok {
			d.fail("unknown operator %q", s)
		}
		d.expect(`,"l":`)
		k.l = d.node(lvl + 1)
		d.expect(`,"r":`)
		k.r = d.node(lvl + 1)
	case d.lit(`{"k":"n","x":`):
		k.kind, k.l = 'n', d.node(lvl+1)
	default:
		d.fail("expected an expression node")
	}
	if d.expect(`}`); d.err != nil {
		return 0
	}
	id, ok := d.ids[k]
	if !ok {
		var e symb.Expr
		switch k.kind {
		case 'c':
			e = symb.Const{V: k.v}
		case 's':
			e = symb.Sym{Name: k.name}
		case 'b':
			e = symb.Bin{Op: k.op, L: d.nodes[k.l], R: d.nodes[k.r]}
		case 'n':
			e = symb.Not{X: d.nodes[k.l]}
		}
		id = uint32(len(d.nodes))
		d.nodes, d.ids[k] = append(d.nodes, e), id
	}
	return id
}

// optStr and optU64 read a field that is omitted at its zero value.
func (d *decoder) optStr(field string) string {
	if !d.lit(field) {
		return ""
	}
	s := d.str(``)
	if s == "" {
		d.fail("empty %s must be omitted", field[1:])
	}
	return s
}

func (d *decoder) optU64(field string) uint64 {
	if !d.lit(field) {
		return 0
	}
	return d.nonZero()
}

func (d *decoder) nonZero() uint64 {
	v := d.u64(``)
	if v == 0 {
		d.fail("zero field must be omitted")
	}
	return v
}
