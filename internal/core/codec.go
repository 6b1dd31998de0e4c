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
//   - Each value a contract repeats is spelled once. Version 3 carries
//     six per-kind tables ahead of the paths: monomials, expression lists
//     (constraints, results, arguments), domain maps, PCV-range maps,
//     shared-MA polynomials and packet-write maps. A path names an entry
//     by its index ("constraints":3), so a raw path names its contract
//     path's constraint list and domain map instead of copying them. A
//     cost polynomial is a list of [monomial-index, coefficient] pairs.
//     Table entries are spelled as version 2 spelled the value inline.
//     On the 4-chain composite this takes 3.26 MB down to 0.56 MB:
//     its 582 paths hold 14 distinct constraint lists and 104 distinct
//     domain maps, and its 1,746 cost polynomials use 19 monomials.
//   - Encoding appends straight from the structures: object fields in
//     one fixed order, zero-valued optional fields and empty tables
//     omitted, map keys sorted bytewise, integers in shortest decimal,
//     strings escaped the way encoding/json escapes them (appendString).
//     Each table lists its entries in the order the paths first name
//     them, so indices follow from the paths alone.
//   - Decoding is one recursive-descent pass over the byte slice along
//     the same schema: the tables first, then the paths, which resolve
//     each index as they read it. A field unknown, repeated or out of
//     order, an optional field present with its zero value, map keys or
//     polynomial terms not strictly ascending, "01", "1e3", "\u0041"
//     for "A", whitespace, trailing bytes, nesting beyond maxExprDepth, an
//     unknown operator, action, metric or op-class name, a non-canonical
//     monomial, raw paths misaligned with contract paths: each is a
//     syntax error where it occurs. So are the tables' own rules: an
//     index out of range, an index that skips ahead of first-use order
//     (a reference may introduce at most the next unused entry), a
//     duplicate entry, an entry no path names, and references that
//     stand for more than maxExpansion times the artifact's own bytes.
//     decode∘encode is the identity on every accepted input without
//     re-encoding it; `boltctl verify` and FuzzContractCodec check that
//     identity from outside.
//   - Decoded values share structure. Strings are interned per artifact
//     and expression nodes are hash-consed (identical subtrees are one
//     node). Every reference to a table entry returns the one slice, map
//     or Poly the entry decoded to, so a contract path and its raw path
//     share their constraints and domains. Shared slices are clipped, so
//     an append reallocates, and cached contracts are read-only anyway
//     (see ContractCache), so sharing shows only in the cost.
//
// Version 2 spelled every value inline, and its decoder found repeats by
// memoising byte spans. The tables make that sharing part of the format,
// so the decoder hashes no spans and the store reads and checksums a
// sixth of the bytes.
//
// Integrity is not this file's job: the on-disk store (internal/store)
// frames these bytes with a SHA-256 checksum that Store.Get verifies.

import (
	"bytes"
	"cmp"
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
// Version 3 spells each repeated value once, in per-kind tables. Objects
// of versions 1 (no shard dimension) and 2 (every value inline) are
// rejected as unsupported; a content-addressed store overwrites them the
// next time their key is generated (see ContractCache).
const ArtifactVersion = 3

// artifactFormat tags encoded artifacts; it never changes (the version
// number does).
const artifactFormat = "gobolt-contract"

// maxExprDepth bounds JSON nesting (objects plus arrays, the outermost
// brace being level 1) during decoding. Only expression trees nest
// without a schema bound; deeper inputs are corrupt or hostile, not
// contracts.
const maxExprDepth = 10000

// maxExpansion bounds how much the table references of one artifact may
// stand for: the bytes of the entries they name, summed over every
// reference, may be at most maxExpansion times the artifact's length.
// The version-2 spelling of what an artifact decodes to, which is what a
// consumer walking every path pays for, is therefore at most
// maxExpansion+1 times the bytes read, where tables alone would let it
// grow with the square of them. The stored objects of the quick-scale
// chains stand at up to 6.7 (the uncoalesced 6-chain's composite), the
// 4-chain's composite at 5.1.
const maxExpansion = 12

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
	m     perf.Metric
	field string
}{{perf.Cycles, `"cycles":`}, {perf.Instructions, `"ic":`}, {perf.MemAccesses, `"ma":`}}

// tableFields are the tables' field names in the order an artifact lists
// them. The first table present drops the leading comma.
var tableFields = [...]string{`,"monos":[`, `,"exprs":[`, `,"domains":[`, `,"ranges":[`, `,"polys":[`, `,"writes":[`}

// --- encoding -------------------------------------------------------

// encoder appends an artifact's canonical bytes to buf. Its writers take
// the literal that precedes the value (a field name, or "" in lists).
// The first value it cannot spell is recorded in err and encoding
// carries on; EncodeArtifact checks err once per path.
type encoder struct {
	buf    []byte
	err    error
	tables [len(tableFields)]etable
	// expanded sums the entry bytes every reference stands for, which
	// the decoder holds to its budget.
	expanded int

	spelt []byte   // scratch: the table entry being spelled
	keys  []string // scratch: a map's keys, sorted
	offs  []uint64 // scratch: packet-write offsets, sorted
}

// etable is one table as the encoder builds it: its entries' spellings,
// comma-separated in first-use order, and each spelling's index.
type etable struct {
	idx map[string]int
	buf []byte
}

// The tables, by their index in tableFields.
const (
	tabMonos = iota
	tabExprs
	tabDomains
	tabRanges
	tabPolys
	tabWrites
)

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
	// The paths are written first, into what becomes the tail of the
	// artifact, and fill the tables as they name entries; the envelope
	// and the tables then go in front.
	e := &encoder{}
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

	paths, size := e.buf, len(e.buf)+len(a.Key)+64
	for i := range e.tables {
		size += len(tableFields[i]) + len(e.tables[i].buf) + 2
	}
	e.buf = make([]byte, 0, size)
	e.int(`{"format":"`+artifactFormat+`","version":`, ArtifactVersion)
	e.optStr(`,"key":`, a.Key)
	e.writeTables()
	out := append(e.buf, paths...)
	if e.expanded > maxExpansion*len(out) {
		return nil, fmt.Errorf("core: table references stand for more than %d times the artifact's %d bytes", maxExpansion, len(out))
	}
	return out, nil
}

// writeTables writes the tables object, omitted when every table is
// empty, and each table in it omitted when empty.
func (e *encoder) writeTables() {
	start := len(e.buf)
	for i, t := range e.tables {
		if len(t.buf) == 0 {
			continue
		}
		if f := tableFields[i]; len(e.buf) == start {
			e.lit(`,"tables":{`)
			e.lit(f[1:])
		} else {
			e.lit(f)
		}
		e.buf = append(e.buf, t.buf...)
		e.lit(`]`)
	}
	if len(e.buf) > start {
		e.lit(`}`)
	}
}

// ref writes field and the index of the entry spelt in table tab, adding
// the entry if this is its first use.
func (e *encoder) ref(field string, tab int, spelt []byte) {
	t := &e.tables[tab]
	i, ok := t.idx[string(spelt)]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[string]int)
		}
		i = len(t.idx)
		t.idx[string(spelt)] = i
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = append(t.buf, spelt...)
	}
	e.expanded += len(spelt)
	e.int(field, i)
}

// spell runs write against the scratch buffer instead of buf and returns
// what it wrote, which the next call overwrites.
func (e *encoder) spell(write func()) []byte {
	out := e.buf
	e.buf = e.spelt[:0]
	write()
	e.spelt, e.buf = e.buf, out
	return e.spelt
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

// ranges writes a reference to a symbol→interval map in table tab
// (symb.Domain and expr.Range are both inclusive uint64 intervals),
// omitted when the map is empty.
func ranges[V symb.Domain | expr.Range](e *encoder, field string, tab int, m map[string]V) {
	if len(m) > 0 {
		e.ref(field, tab, e.spell(func() {
			object(e, `{`, m, func(v V) { e.lohi(``, expr.Range(v)) })
		}))
	}
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
	e.exprs(`,"constraints":`, p.Constraints)
	ranges(e, `,"domains":`, tabDomains, p.Domains)
	e.optStr(`,"events":`, p.Events)
	e.events(`,"trace":[`, p.Trace)
	e.cost(p.Cost)
	ranges(e, `,"pcv_ranges":`, tabRanges, p.PCVRanges)
	if !p.SharedMA.IsZero() {
		e.ref(`,"shared_ma":`, tabPolys, e.spell(func() { e.polyObject(p.SharedMA) }))
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
	e.exprs(`,"constraints":`, rp.Constraints)
	ranges(e, `,"domains":`, tabDomains, rp.Domains)
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
	ranges(e, `,"pcv_ranges":`, tabRanges, rp.PCVRanges)
	if len(rp.PktWrites) > 0 {
		e.offs = e.offs[:0]
		for off := range rp.PktWrites {
			e.offs = append(e.offs, off)
		}
		slices.Sort(e.offs)
		e.ref(`,"pkt_writes":`, tabWrites, e.spell(func() {
			e.list(`[`, len(e.offs), func(i int) {
				w := rp.PktWrites[e.offs[i]]
				e.u64(`{"off":`, e.offs[i])
				e.int(`,"size":`, w.Size)
				e.expr(`,"val":`, w.Val)
				e.lit(`}`)
			})
		}))
	}
	e.lit(`}`)
}

func (e *encoder) events(field string, evs []nfir.CallEvent) {
	e.list(field, len(evs), func(i int) {
		ev, o := &evs[i], &evs[i].Outcome
		e.str(`{"ds":`, ev.DS)
		e.str(`,"method":`, ev.Method)
		e.str(`,"outcome":{"label":`, o.Label)
		e.exprs(`,"results":`, o.Results)
		e.exprs(`,"constraints":`, o.Constraints)
		ranges(e, `,"domains":`, tabDomains, o.Domains)
		e.cost(o.Cost)
		e.list(`,"pcvs":[`, len(o.PCVs), func(j int) {
			e.str(`{"name":`, o.PCVs[j].Name)
			e.lohi(`,"range":`, o.PCVs[j].Range)
			e.lit(`}`)
		})
		e.lit(`}`)
		e.list(`,"result_syms":[`, len(ev.ResultSyms), func(j int) { e.str(``, ev.ResultSyms[j]) })
		e.exprs(`,"args":`, ev.Args)
		e.optStr(`,"sharing":`, ev.Sharing.Class.String())
		e.optStr(`,"sharing_reason":`, ev.Sharing.Reason)
		e.lit(`}`)
	})
}

// cost writes a metric → polynomial object, each polynomial a list of
// [monomial-index, coefficient] pairs in bytewise monomial order. The
// empty monomial "" is the constant term; zero coefficients never occur.
func (e *encoder) cost(cost map[perf.Metric]expr.Poly) {
	if len(cost) == 0 {
		return
	}
	e.lit(`,"cost":{`)
	n := 0
	for _, mk := range metricKeys {
		p, ok := cost[mk.m]
		if !ok {
			continue
		}
		e.sep(n)
		n++
		e.lit(mk.field)
		e.lit(`[`)
		i := 0
		for m, c := range p.All() {
			e.sep(i)
			i++
			e.ref(`[`, tabMonos, appendString(e.spelt[:0], string(m)))
			e.u64(`,`, c)
			e.lit(`]`)
		}
		e.lit(`]`)
	}
	if n != len(cost) {
		e.fail("unencodable metric in %v", cost)
	}
	e.lit(`}`)
}

// polyObject writes a polynomial the way the polynomial table spells
// one: canonical monomial → coefficient, in bytewise monomial order.
func (e *encoder) polyObject(p expr.Poly) {
	e.lit(`{`)
	i := 0
	for m, c := range p.All() {
		e.sep(i)
		i++
		e.str(``, string(m))
		e.u64(`:`, c)
	}
	e.lit(`}`)
}

// exprs writes a reference to a non-empty expression list, omitted when
// the list is empty.
func (e *encoder) exprs(field string, es []symb.Expr) {
	if len(es) > 0 {
		e.ref(field, tabExprs, e.spell(func() {
			e.list(`[`, len(es), func(i int) { e.expr(``, es[i]) })
		}))
	}
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

	monos   table[expr.Mono]
	rank    []int // rank[i]: monos[i]'s position in bytewise order
	exprs   table[[]symb.Expr]
	domains table[map[string]symb.Domain]
	ranges  table[map[string]expr.Range]
	polys   table[expr.Poly]
	writes  table[map[uint64]nfir.PktWrite]

	// expanded sums the entry bytes every reference so far stands for;
	// it may not pass budget.
	expanded, budget int

	// arena holds the terms of every polynomial read so far, each
	// polynomial a capacity-capped subslice of it (decoder.poly).
	arena []expr.MonoCoef

	sbuf  []byte          // scratch: an escaped string, unescaped
	kvs   []member        // scratch: the members of the object being read
	elems []symb.Expr     // scratch: the expression list being read
	terms []expr.MonoCoef // scratch: the terms of the polynomial being read
}

// uses is what the decoder tracks of a table's references: each entry's
// spelled length and how many entries paths have named so far.
type uses struct {
	name  string
	sizes []int
	used  int
}

// table is one decoded table: its entries' values beside their uses.
type table[V any] struct {
	uses
	vals []V
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
		b:      data,
		strs:   make(map[string]string, 64),
		ids:    make(map[exprKey]uint32, 64),
		nodes:  []symb.Expr{nil},
		budget: maxExpansion * len(data),
	}
	d.monos.name, d.exprs.name, d.domains.name = "monomial", "expression list", "domain map"
	d.ranges.name, d.polys.name, d.writes.name = "PCV-range map", "polynomial", "packet-write map"
	if f := d.str(`{"format":`); f != artifactFormat {
		d.fail("not a contract artifact (format %q, want %q)", f, artifactFormat)
	}
	if v := d.int(`,"version":`); v != ArtifactVersion {
		d.fail("unsupported artifact version %d (this build reads version %d)", v, ArtifactVersion)
	}
	ct := &Contract{Paths: []*PathContract{}}
	a := &Artifact{Key: d.optStr(`,"key":`), Contract: ct, Version: ArtifactVersion}
	d.tables()
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
	for _, t := range []*uses{&d.monos.uses, &d.exprs.uses, &d.domains.uses, &d.ranges.uses, &d.polys.uses, &d.writes.uses} {
		if t.used < len(t.sizes) {
			d.fail("%s entry %d is never referenced", t.name, t.used)
		}
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

// tables reads the optional tables object, never empty when present.
// Its fields are optional too, so the first one present has no comma.
func (d *decoder) tables() {
	if !d.lit(`,"tables":{`) {
		return
	}
	start := d.i
	field := func(i int) bool {
		f := tableFields[i]
		if d.i == start {
			f = f[1:]
		}
		return d.lit(f)
	}
	if field(tabMonos) {
		readTable(d, &d.monos, func() expr.Mono {
			at := d.i
			m, err := expr.ParseMono(d.str(``))
			if err != nil {
				d.i = at
				d.fail("%v", err)
			}
			return m
		})
		order := make([]int, len(d.monos.vals))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return cmp.Compare(d.monos.vals[i], d.monos.vals[j]) })
		d.rank = make([]int, len(order))
		for r, i := range order {
			d.rank[i] = r
		}
	}
	if field(tabExprs) {
		readTable(d, &d.exprs, d.exprList)
	}
	if field(tabDomains) {
		readTable(d, &d.domains, func() map[string]symb.Domain { return intervals[symb.Domain](d) })
	}
	if field(tabRanges) {
		readTable(d, &d.ranges, func() map[string]expr.Range { return intervals[expr.Range](d) })
	}
	if field(tabPolys) {
		readTable(d, &d.polys, d.polyObject)
	}
	if field(tabWrites) {
		readTable(d, &d.writes, d.pktWrites)
	}
	if d.i == start {
		d.fail("empty tables object must be omitted")
	}
	d.expect(`}`)
}

// readTable reads a table's entries, each with entry, and its closing
// bracket. Canonical entries are equal exactly when their bytes are, so
// a repeated span is a duplicate entry.
func readTable[V any](d *decoder, t *table[V], entry func() V) {
	seen := make(map[string]struct{})
	for more := true; more && d.err == nil; more = d.lit(`,`) {
		start := d.i
		v := entry()
		if d.err != nil {
			return
		}
		span := d.b[start:d.i]
		if _, dup := seen[string(span)]; dup {
			d.i = start
			d.fail("duplicate %s entry", t.name)
			return
		}
		seen[string(span)] = struct{}{}
		t.vals = append(t.vals, v)
		t.sizes = append(t.sizes, len(span))
	}
	d.expect(`]`)
}

// index resolves index i into t, read at offset at. It must name an
// entry some earlier reference named, or the next one no reference has
// named yet; what the entry stands for counts against the expansion
// budget. It returns -1 on failure.
func (d *decoder) index(t *uses, i uint64, at int) int {
	switch {
	case i >= uint64(len(t.sizes)):
		d.i = at
		d.fail("%s index %d out of range (%d entries)", t.name, i, len(t.sizes))
		return -1
	case i > uint64(t.used):
		d.i = at
		d.fail("%s index %d skips ahead of first use (the next new entry is %d)", t.name, i, t.used)
		return -1
	case i == uint64(t.used):
		t.used++
	}
	if d.expanded += t.sizes[i]; d.expanded > d.budget {
		d.i = at
		d.fail("table references stand for more than %d times the artifact's %d bytes", maxExpansion, len(d.b))
		return -1
	}
	return int(i)
}

// optRef reads an optional index into t under field and returns the
// entry it names.
func optRef[V any](d *decoder, field string, t *table[V]) (v V) {
	if !d.lit(field) {
		return v
	}
	at := d.i
	if i := d.u64(``); d.err == nil {
		if j := d.index(&t.uses, i, at); j >= 0 {
			v = t.vals[j]
		}
	}
	return v
}

// path reads one contract path.
func (d *decoder) path() *PathContract {
	p := &PathContract{ID: d.int(`{"id":`), Action: d.action(`,"action":`)}
	p.Constraints = optRef(d, `,"constraints":`, &d.exprs)
	p.Domains = optRef(d, `,"domains":`, &d.domains)
	p.Events = d.optStr(`,"events":`)
	p.Trace = d.events(`,"trace":[`)
	p.Cost = d.cost()
	p.PCVRanges = optRef(d, `,"pcv_ranges":`, &d.ranges)
	p.SharedMA = optRef(d, `,"shared_ma":`, &d.polys)
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
	p.Constraints = optRef(d, `,"constraints":`, &d.exprs)
	p.Domains = optRef(d, `,"domains":`, &d.domains)
	p.Events = d.events(`,"events":[`)
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
	p.PCVRanges = optRef(d, `,"pcv_ranges":`, &d.ranges)
	p.PktWrites = optRef(d, `,"pkt_writes":`, &d.writes)
	d.expect(`}`)
	return p
}

// events reads a list of call events.
func (d *decoder) events(field string) (out []nfir.CallEvent) {
	d.list(field, func() {
		ev := nfir.CallEvent{DS: d.str(`{"ds":`), Method: d.str(`,"method":`)}
		if ev.DS == "" || ev.Method == "" {
			d.fail("call event has an empty data-structure or method name")
		}
		o := &ev.Outcome
		o.Label = d.str(`,"outcome":{"label":`)
		o.Results = optRef(d, `,"results":`, &d.exprs)
		o.Constraints = optRef(d, `,"constraints":`, &d.exprs)
		o.Domains = optRef(d, `,"domains":`, &d.domains)
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
		ev.Args = optRef(d, `,"args":`, &d.exprs)
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

// intervals reads a domain or PCV-range table entry: a non-empty
// symbol→interval object.
func intervals[V symb.Domain | expr.Range](d *decoder) map[string]V {
	kvs := d.members(`{`, d.lohi, false)
	m := make(map[string]V, len(kvs))
	for _, kv := range kvs {
		m[kv.k] = V(expr.Range{Lo: kv.a, Hi: kv.b})
	}
	return m
}

// cost reads an optional metric → polynomial object, never empty when
// present.
func (d *decoder) cost() map[perf.Metric]expr.Poly {
	if !d.lit(`,"cost":{`) {
		return nil
	}
	m := make(map[perf.Metric]expr.Poly, len(metricKeys))
	for _, mk := range metricKeys { // sorted, so ascending keys only move forward
		at := d.i
		if len(m) > 0 && !d.lit(`,`) {
			break
		}
		if !d.lit(mk.field) {
			d.i = at
			continue
		}
		m[mk.m] = d.costPoly()
	}
	if len(m) == 0 {
		d.fail("unknown metric or empty cost")
	}
	d.expect(`}`)
	return m
}

// costPoly reads a cost polynomial: a list of [monomial-index,
// coefficient] pairs in strictly ascending monomial order, empty for the
// zero polynomial. It scans each pair's bytes itself: a composite holds
// some 28,000 of them, more than any other kind of value.
func (d *decoder) costPoly() expr.Poly {
	d.expect(`[`)
	if d.lit(`]`) {
		return expr.Poly{}
	}
	d.terms = d.terms[:0]
	b, prev := d.b, -1 // prev: the last term's monomial rank
	for d.err == nil {
		at := d.i
		idx, j := digits(b, at+1)
		if at >= len(b) || b[at] != '[' || j <= at+1 || j >= len(b) || b[j] != ',' {
			d.fail("expected a [monomial-index, coefficient] pair")
			break
		}
		c, k := digits(b, j+1)
		if k <= j+1 || k >= len(b) || b[k] != ']' {
			d.i = j + 1
			d.fail("expected a [monomial-index, coefficient] pair")
			break
		}
		i := d.index(&d.monos.uses, idx, at+1)
		switch {
		case i < 0:
		case d.rank[i] <= prev:
			d.i = at + 1
			d.fail("polynomial terms not in strictly ascending monomial order")
		case c == 0:
			d.i = j + 1
			d.fail("zero coefficient for monomial %q", d.monos.vals[i])
		default:
			prev = d.rank[i]
			d.terms = append(d.terms, expr.MonoCoef{Mono: d.monos.vals[i], Coef: c})
			d.i = k + 1
		}
		if !d.lit(`,`) {
			break
		}
	}
	d.expect(`]`)
	return d.poly()
}

// polyObject reads a polynomial table entry: a non-empty object,
// canonical monomial → non-zero coefficient. Its keys are strictly
// ascending, so its terms are already in a polynomial's order.
func (d *decoder) polyObject() expr.Poly {
	kvs := d.members(`{`, d.u64Pair, false)
	d.terms = d.terms[:0]
	for _, kv := range kvs {
		m, err := expr.ParseMono(kv.k)
		if err != nil {
			d.fail("%v", err)
		}
		if kv.a == 0 {
			d.fail("zero coefficient for monomial %q", kv.k)
		}
		d.terms = append(d.terms, expr.MonoCoef{Mono: m, Coef: kv.a})
	}
	return d.poly()
}

// poly returns the polynomial whose terms d.terms holds, strictly
// ascending and non-zero, after copying them to the end of the arena.
// The subslice it hands out has its capacity capped, so no polynomial
// reaches into the next one's terms (see expr.Poly).
//
// Every cost-polynomial term is spelled "[index,coefficient]", so the
// '['s still ahead bound the cost terms left to read, and one array
// sized by them holds every polynomial of the artifact. Only the terms
// of polynomial-table entries, object members, can overflow it; the
// next array is then at least twice as large, and the polynomials
// already read keep the old one.
func (d *decoder) poly() expr.Poly {
	n := len(d.terms)
	if d.err != nil || n == 0 {
		return expr.Poly{}
	}
	if n > cap(d.arena)-len(d.arena) {
		ahead := bytes.Count(d.b[d.i:], []byte(`[`))
		d.arena = make([]expr.MonoCoef, 0, max(n, 2*cap(d.arena), ahead))
	}
	at := len(d.arena)
	d.arena = append(d.arena, d.terms...)
	return expr.FromSorted(d.arena[at : at+n : at+n])
}

// exprList reads an expression-list table entry: a non-empty list of
// expressions, objects at nesting level 5.
func (d *decoder) exprList() []symb.Expr {
	d.elems = d.elems[:0]
	if !d.lit(`[`) {
		d.fail("expected an expression list")
		return nil
	}
	for more := true; more; more = d.lit(`,`) {
		d.elems = append(d.elems, d.expr(5))
	}
	d.expect(`]`)
	// Clipped, so that appending to one path's list never writes into
	// another's.
	return slices.Clip(slices.Clone(d.elems))
}

// pktWrites reads a packet-write table entry: a non-empty list of
// writes in strictly ascending offset order, objects at nesting level 5.
func (d *decoder) pktWrites() map[uint64]nfir.PktWrite {
	w := make(map[uint64]nfir.PktWrite)
	if !d.lit(`[`) {
		d.fail("expected a packet-write list")
		return nil
	}
	prev := uint64(0)
	for more := true; more; more = d.lit(`,`) {
		off := d.u64(`{"off":`)
		if len(w) > 0 && off <= prev {
			d.fail("packet writes not in strictly ascending offset order")
		}
		prev = off
		size := d.int(`,"size":`)
		d.expect(`,"val":`)
		w[off] = nfir.PktWrite{Size: size, Val: d.expr(6)}
		d.expect(`}`)
	}
	d.expect(`]`)
	return w
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
