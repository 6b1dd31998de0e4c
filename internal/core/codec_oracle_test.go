package core

// codec_oracle_test.go holds the value oracles of the hand-written codec.
//
// The first is the reflection codec codec.go replaced, kept as it was:
// art* mirror structs encoded with json.Marshal, decoded with
// json.Decoder and gated by re-encode + byte-compare. It reads and
// writes version 2, which spells every value inline, and carries one
// fix: a null element in "paths"/"raw_paths" dereferenced a nil pointer
// and panicked; it now rejects it. What it decodes from an artifact's
// version-2 spelling is what the version-3 decoder must build from the
// artifact's version-3 spelling.
//
// The second, lenientDecode, reads version 3 the reflection way: it
// unmarshals the tables and paths with encoding/json, resolves every
// index, and hands the resolved art* structs to the first oracle's
// decoding. It enforces none of the tables' canonical rules; an input
// is canonical when encoding what it decodes gives the input back.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

// --- wire types -----------------------------------------------------
//
// The art* structs are the exact JSON shape of an encoded artifact.
// Field order is the canonical encoding order; do not reorder without
// changing the version-2 spelling. Fields marked "v2" were added by
// version 2; version-1 artifacts, which lack them, are no longer read.

type artFile struct {
	Format   string        `json:"format"`
	Version  int           `json:"version"`
	Key      string        `json:"key,omitempty"`
	Contract *artContract  `json:"contract"`
	Paths    []*artRawPath `json:"raw_paths,omitempty"`
}

type artContract struct {
	NF         string     `json:"nf"`
	Level      string     `json:"level"`
	Provenance string     `json:"provenance,omitempty"`
	Paths      []*artPath `json:"paths"`
}

type artPath struct {
	ID          int                 `json:"id"`
	Action      string              `json:"action"`
	Constraints []*artExpr          `json:"constraints,omitempty"`
	Domains     map[string]artRange `json:"domains,omitempty"`
	Events      string              `json:"events,omitempty"`
	Trace       []artCallEvent      `json:"trace,omitempty"`
	Cost        map[string]artPoly  `json:"cost,omitempty"`
	PCVRanges   map[string]artRange `json:"pcv_ranges,omitempty"`
	// SharedMA (v2) is the path's shared-access polynomial; an analysed
	// path with nothing shared omits it (the zero polynomial).
	SharedMA artPoly `json:"shared_ma,omitempty"`
	// ShardAnalysed (v2) records whether the sharability analysis ran;
	// false (omitted) for paths that originated in version-1 artifacts.
	ShardAnalysed bool `json:"shard_analysed,omitempty"`
	// Witness distinguishes nil (solver returned Unknown; the path is
	// retained conservatively) from an empty binding, so it is encoded
	// without omitempty: null vs {}.
	Witness map[string]uint64 `json:"witness"`
}

type artRawPath struct {
	ID          int                 `json:"id"`
	Action      string              `json:"action"`
	Constraints []*artExpr          `json:"constraints,omitempty"`
	Domains     map[string]artRange `json:"domains,omitempty"`
	Events      []artCallEvent      `json:"events,omitempty"`
	Port        *artExpr            `json:"port,omitempty"`
	StatelessIC uint64              `json:"stateless_ic,omitempty"`
	StatelessMA uint64              `json:"stateless_ma,omitempty"`
	Ops         map[string]uint64   `json:"ops,omitempty"`
	Accesses    []artAccess         `json:"accesses,omitempty"`
	PCVRanges   map[string]artRange `json:"pcv_ranges,omitempty"`
	PktWrites   []artPktWrite       `json:"pkt_writes,omitempty"`
}

type artCallEvent struct {
	DS         string     `json:"ds"`
	Method     string     `json:"method"`
	Outcome    artOutcome `json:"outcome"`
	ResultSyms []string   `json:"result_syms,omitempty"`
	// Args (v2) are the call's symbolic arguments, kept so cached paths
	// can be re-analysed and inspected without re-exploration.
	Args []*artExpr `json:"args,omitempty"`
	// Sharing/SharingReason (v2) are the sharability verdict.
	Sharing       string `json:"sharing,omitempty"`
	SharingReason string `json:"sharing_reason,omitempty"`
}

type artOutcome struct {
	Label       string              `json:"label"`
	Results     []*artExpr          `json:"results,omitempty"`
	Constraints []*artExpr          `json:"constraints,omitempty"`
	Domains     map[string]artRange `json:"domains,omitempty"`
	Cost        map[string]artPoly  `json:"cost,omitempty"`
	PCVs        []artPCV            `json:"pcvs,omitempty"`
}

type artPCV struct {
	Name  string   `json:"name"`
	Range artRange `json:"range"`
}

type artAccess struct {
	Known bool   `json:"known,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
	Size  uint8  `json:"size,omitempty"`
	Store bool   `json:"store,omitempty"`
}

type artPktWrite struct {
	Off  uint64   `json:"off"`
	Size int      `json:"size"`
	Val  *artExpr `json:"val"`
}

// artRange serializes both symb.Domain and expr.Range (both are
// inclusive uint64 intervals).
type artRange struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// artPoly is a polynomial as canonical-monomial → coefficient. The empty
// monomial "" is the constant term; zero coefficients never appear.
type artPoly map[string]uint64

// artExpr is the tagged union of symbolic expression nodes:
// k = "c" (Const, v), "s" (Sym, n), "b" (Bin, op/l/r), "n" (Not, x).
type artExpr struct {
	K  string   `json:"k"`
	V  uint64   `json:"v,omitempty"`
	N  string   `json:"n,omitempty"`
	Op string   `json:"op,omitempty"`
	L  *artExpr `json:"l,omitempty"`
	R  *artExpr `json:"r,omitempty"`
	X  *artExpr `json:"x,omitempty"`
}

// --- encoding -------------------------------------------------------

// oracleVersion is the one version the reflection oracle reads and
// writes: every value spelled inline.
const oracleVersion = 2

// oracleEncode is the old EncodeArtifact: an artifact's version-2
// spelling.
func oracleEncode(a *Artifact) ([]byte, error) { return oracleEncodeAt(a, oracleVersion) }

// oracleEncodeAt serializes at a specific codec version.
func oracleEncodeAt(a *Artifact, version int) ([]byte, error) {
	if version != oracleVersion {
		return nil, fmt.Errorf("core: cannot encode artifact version %d (the oracle writes %d)", version, oracleVersion)
	}
	if a == nil || a.Contract == nil {
		return nil, fmt.Errorf("core: cannot encode a nil contract")
	}
	if a.Paths != nil && len(a.Paths) != len(a.Contract.Paths) {
		return nil, fmt.Errorf("core: artifact raw paths (%d) do not align with contract paths (%d)",
			len(a.Paths), len(a.Contract.Paths))
	}
	f := &artFile{Format: artifactFormat, Version: version, Key: a.Key}
	ac, err := encContract(a.Contract, version)
	if err != nil {
		return nil, err
	}
	f.Contract = ac
	for i, rp := range a.Paths {
		arp, err := encRawPath(rp, version)
		if err != nil {
			return nil, fmt.Errorf("core: raw path %d: %w", i, err)
		}
		f.Paths = append(f.Paths, arp)
	}
	return json.Marshal(f)
}

func encContract(ct *Contract, version int) (*artContract, error) {
	if ct.NF == "" {
		return nil, fmt.Errorf("core: contract has no NF name")
	}
	ac := &artContract{NF: ct.NF, Level: ct.Level, Provenance: ct.Provenance, Paths: make([]*artPath, 0, len(ct.Paths))}
	for i, p := range ct.Paths {
		ap, err := encPath(p, version)
		if err != nil {
			return nil, fmt.Errorf("core: path %d: %w", i, err)
		}
		ac.Paths = append(ac.Paths, ap)
	}
	return ac, nil
}

func encPath(p *PathContract, version int) (*artPath, error) {
	cons, err := encExprs(p.Constraints)
	if err != nil {
		return nil, err
	}
	trace, err := encEvents(p.Trace, version)
	if err != nil {
		return nil, err
	}
	cost, err := encCost(p.Cost)
	if err != nil {
		return nil, err
	}
	ap := &artPath{
		ID:          p.ID,
		Action:      p.Action.String(),
		Constraints: cons,
		Domains:     encDomains(p.Domains),
		Events:      p.Events,
		Trace:       trace,
		Cost:        cost,
		PCVRanges:   encRanges(p.PCVRanges),
		Witness:     p.Witness,
	}
	if version >= 2 {
		if !p.SharedMA.IsZero() {
			ap.SharedMA = encPoly(p.SharedMA)
		}
		ap.ShardAnalysed = p.ShardAnalysed
	}
	return ap, nil
}

func encRawPath(rp *nfir.Path, version int) (*artRawPath, error) {
	cons, err := encExprs(rp.Constraints)
	if err != nil {
		return nil, err
	}
	events, err := encEvents(rp.Events, version)
	if err != nil {
		return nil, err
	}
	var port *artExpr
	if rp.Port != nil {
		if port, err = encExpr(rp.Port); err != nil {
			return nil, err
		}
	}
	var ops map[string]uint64
	if rp.Ops != nil {
		ops = make(map[string]uint64, len(rp.Ops))
		for c, n := range rp.Ops {
			if _, ok := perf.ParseOpClass(c.String()); !ok {
				return nil, fmt.Errorf("unencodable op class %v", c)
			}
			ops[c.String()] = n
		}
	}
	var accesses []artAccess
	for _, a := range rp.Accesses {
		accesses = append(accesses, artAccess{Known: a.Known, Addr: a.Addr, Size: a.Size, Store: a.Store})
	}
	writes, err := encPktWrites(rp.PktWrites)
	if err != nil {
		return nil, err
	}
	return &artRawPath{
		ID:          rp.ID,
		Action:      rp.Action.String(),
		Constraints: cons,
		Domains:     encDomains(rp.Domains),
		Events:      events,
		Port:        port,
		StatelessIC: rp.StatelessIC,
		StatelessMA: rp.StatelessMA,
		Ops:         ops,
		Accesses:    accesses,
		PCVRanges:   encRanges(rp.PCVRanges),
		PktWrites:   writes,
	}, nil
}

func encPktWrites(w map[uint64]nfir.PktWrite) ([]artPktWrite, error) {
	if len(w) == 0 {
		return nil, nil
	}
	offs := make([]uint64, 0, len(w))
	for off := range w {
		offs = append(offs, off)
	}
	// Numeric sort keeps the slice canonical.
	for i := 1; i < len(offs); i++ {
		for j := i; j > 0 && offs[j-1] > offs[j]; j-- {
			offs[j-1], offs[j] = offs[j], offs[j-1]
		}
	}
	out := make([]artPktWrite, 0, len(offs))
	for _, off := range offs {
		val, err := encExpr(w[off].Val)
		if err != nil {
			return nil, err
		}
		out = append(out, artPktWrite{Off: off, Size: w[off].Size, Val: val})
	}
	return out, nil
}

func encEvents(evs []nfir.CallEvent, version int) ([]artCallEvent, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	out := make([]artCallEvent, 0, len(evs))
	for _, ev := range evs {
		results, err := encExprs(ev.Outcome.Results)
		if err != nil {
			return nil, err
		}
		cons, err := encExprs(ev.Outcome.Constraints)
		if err != nil {
			return nil, err
		}
		cost, err := encCost(ev.Outcome.Cost)
		if err != nil {
			return nil, err
		}
		var pcvs []artPCV
		for _, pcv := range ev.Outcome.PCVs {
			pcvs = append(pcvs, artPCV{Name: pcv.Name, Range: artRange{Lo: pcv.Range.Lo, Hi: pcv.Range.Hi}})
		}
		ae := artCallEvent{
			DS:     ev.DS,
			Method: ev.Method,
			Outcome: artOutcome{
				Label:       ev.Outcome.Label,
				Results:     results,
				Constraints: cons,
				Domains:     encDomains(ev.Outcome.Domains),
				Cost:        cost,
				PCVs:        pcvs,
			},
			ResultSyms: ev.ResultSyms,
		}
		if version >= 2 {
			if ae.Args, err = encExprs(ev.Args); err != nil {
				return nil, err
			}
			ae.Sharing = ev.Sharing.Class.String()
			ae.SharingReason = ev.Sharing.Reason
		}
		out = append(out, ae)
	}
	return out, nil
}

func encCost(cost map[perf.Metric]expr.Poly) (map[string]artPoly, error) {
	if cost == nil {
		return nil, nil
	}
	out := make(map[string]artPoly, len(cost))
	for m, p := range cost {
		key, err := oracleMetricKey(m)
		if err != nil {
			return nil, err
		}
		out[key] = encPoly(p)
	}
	return out, nil
}

// oracleMetricKey names a metric in the wire format with the lowercase
// spelling perf.ParseMetric reads back.
func oracleMetricKey(m perf.Metric) (string, error) {
	switch m {
	case perf.Instructions:
		return "ic", nil
	case perf.MemAccesses:
		return "ma", nil
	case perf.Cycles:
		return "cycles", nil
	}
	return "", fmt.Errorf("unencodable metric %v", m)
}

func encPoly(p expr.Poly) artPoly {
	out := make(artPoly, 8)
	for _, m := range p.Monos() {
		if c := p.Coef(m); c != 0 {
			out[string(m)] = c
		}
	}
	return out
}

func encDomains(d map[string]symb.Domain) map[string]artRange {
	if d == nil {
		return nil
	}
	out := make(map[string]artRange, len(d))
	for s, dom := range d {
		out[s] = artRange{Lo: dom.Lo, Hi: dom.Hi}
	}
	return out
}

func encRanges(r map[string]expr.Range) map[string]artRange {
	if r == nil {
		return nil
	}
	out := make(map[string]artRange, len(r))
	for s, rng := range r {
		out[s] = artRange{Lo: rng.Lo, Hi: rng.Hi}
	}
	return out
}

func encExprs(es []symb.Expr) ([]*artExpr, error) {
	if len(es) == 0 {
		return nil, nil
	}
	out := make([]*artExpr, 0, len(es))
	for _, e := range es {
		ae, err := encExpr(e)
		if err != nil {
			return nil, err
		}
		out = append(out, ae)
	}
	return out, nil
}

func encExpr(e symb.Expr) (*artExpr, error) {
	switch x := e.(type) {
	case symb.Const:
		return &artExpr{K: "c", V: x.V}, nil
	case symb.Sym:
		if x.Name == "" {
			return nil, fmt.Errorf("unencodable empty symbol name")
		}
		return &artExpr{K: "s", N: x.Name}, nil
	case symb.Bin:
		if _, ok := symb.ParseOp(x.Op.String()); !ok {
			return nil, fmt.Errorf("unencodable operator %v", x.Op)
		}
		l, err := encExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &artExpr{K: "b", Op: x.Op.String(), L: l, R: r}, nil
	case symb.Not:
		sub, err := encExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &artExpr{K: "n", X: sub}, nil
	case nil:
		return nil, fmt.Errorf("unencodable nil expression")
	default:
		return nil, fmt.Errorf("unencodable expression type %T", e)
	}
}

// --- decoding -------------------------------------------------------

// oracleDecode parses and validates canonical version-2 artifact bytes.
// It rejects unknown formats and versions, unknown fields, malformed
// operator/action/metric/monomial names, misaligned raw paths, and any
// input that is not byte-for-byte the version-2 encoding of its own
// content, so oracleEncode(oracleDecode(b)) == b for every accepted b.
func oracleDecode(data []byte) (*Artifact, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f artFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding artifact: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("core: trailing data after artifact")
	}
	if f.Format != artifactFormat {
		return nil, fmt.Errorf("core: not a contract artifact (format %q, want %q)", f.Format, artifactFormat)
	}
	if f.Version != oracleVersion {
		return nil, fmt.Errorf("core: unsupported artifact version %d (the oracle reads %d)", f.Version, oracleVersion)
	}
	if f.Contract == nil {
		return nil, fmt.Errorf("core: artifact has no contract")
	}
	ct, err := decContract(f.Contract, f.Version)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Key: f.Key, Contract: ct, Version: f.Version}
	if f.Paths != nil {
		if len(f.Paths) != len(ct.Paths) {
			return nil, fmt.Errorf("core: artifact raw paths (%d) do not align with contract paths (%d)",
				len(f.Paths), len(ct.Paths))
		}
		a.Paths = make([]*nfir.Path, 0, len(f.Paths))
		for i, arp := range f.Paths {
			rp, err := decRawPath(arp, f.Version)
			if err != nil {
				return nil, fmt.Errorf("core: raw path %d: %w", i, err)
			}
			a.Paths = append(a.Paths, rp)
		}
	}
	// Canonicality gate: the input must be exactly what this decoder's
	// inverse produces at the input's own version. This catches
	// duplicate keys, reordered fields, whitespace, every non-canonical
	// spelling structural decoding tolerates, and version-1 inputs
	// carrying fields their version does not define — and makes
	// decode∘encode the identity by construction.
	re, err := oracleEncodeAt(a, f.Version)
	if err != nil {
		return nil, fmt.Errorf("core: re-encoding decoded artifact: %w", err)
	}
	if !bytes.Equal(re, data) {
		return nil, fmt.Errorf("core: artifact is not in canonical encoding")
	}
	return a, nil
}

func decContract(ac *artContract, version int) (*Contract, error) {
	if ac.NF == "" {
		return nil, fmt.Errorf("core: artifact contract has no NF name")
	}
	ct := &Contract{NF: ac.NF, Level: ac.Level, Provenance: ac.Provenance}
	if ac.Paths != nil {
		ct.Paths = make([]*PathContract, 0, len(ac.Paths))
	}
	for i, ap := range ac.Paths {
		p, err := decPath(ap, version)
		if err != nil {
			return nil, fmt.Errorf("core: path %d: %w", i, err)
		}
		ct.Paths = append(ct.Paths, p)
	}
	return ct, nil
}

func decPath(ap *artPath, version int) (*PathContract, error) {
	if ap == nil {
		return nil, fmt.Errorf("null path") // the fix: this used to panic
	}
	action, ok := nfir.ParseActionKind(ap.Action)
	if !ok {
		return nil, fmt.Errorf("unknown action %q", ap.Action)
	}
	cons, err := decExprs(ap.Constraints)
	if err != nil {
		return nil, err
	}
	trace, err := decEvents(ap.Trace)
	if err != nil {
		return nil, err
	}
	cost, err := decCost(ap.Cost)
	if err != nil {
		return nil, err
	}
	p := &PathContract{
		ID:          ap.ID,
		Action:      action,
		Constraints: cons,
		Domains:     decDomains(ap.Domains),
		Events:      ap.Events,
		Trace:       trace,
		Cost:        cost,
		PCVRanges:   decRanges(ap.PCVRanges),
		Witness:     ap.Witness,
	}
	if version >= 2 {
		if p.SharedMA, err = decPoly(ap.SharedMA); err != nil {
			return nil, err
		}
		p.ShardAnalysed = ap.ShardAnalysed
	}
	return p, nil
}

func decRawPath(arp *artRawPath, version int) (*nfir.Path, error) {
	if arp == nil {
		return nil, fmt.Errorf("null raw path") // the fix: this used to panic
	}
	_ = version // raw-path v2 additions live inside the shared call events
	action, ok := nfir.ParseActionKind(arp.Action)
	if !ok {
		return nil, fmt.Errorf("unknown action %q", arp.Action)
	}
	cons, err := decExprs(arp.Constraints)
	if err != nil {
		return nil, err
	}
	events, err := decEvents(arp.Events)
	if err != nil {
		return nil, err
	}
	var port symb.Expr
	if arp.Port != nil {
		if port, err = decExpr(arp.Port, 0); err != nil {
			return nil, err
		}
	}
	var ops map[perf.OpClass]uint64
	if arp.Ops != nil {
		ops = make(map[perf.OpClass]uint64, len(arp.Ops))
		for name, n := range arp.Ops {
			c, ok := perf.ParseOpClass(name)
			if !ok {
				return nil, fmt.Errorf("unknown op class %q", name)
			}
			ops[c] = n
		}
	}
	var accesses []nfir.SymAccess
	for _, a := range arp.Accesses {
		accesses = append(accesses, nfir.SymAccess{Known: a.Known, Addr: a.Addr, Size: a.Size, Store: a.Store})
	}
	var writes map[uint64]nfir.PktWrite
	if arp.PktWrites != nil {
		writes = make(map[uint64]nfir.PktWrite, len(arp.PktWrites))
		for _, w := range arp.PktWrites {
			if w.Val == nil {
				return nil, fmt.Errorf("packet write at offset %d has no value", w.Off)
			}
			if _, dup := writes[w.Off]; dup {
				return nil, fmt.Errorf("duplicate packet write at offset %d", w.Off)
			}
			val, err := decExpr(w.Val, 0)
			if err != nil {
				return nil, err
			}
			writes[w.Off] = nfir.PktWrite{Size: w.Size, Val: val}
		}
	}
	return &nfir.Path{
		ID:          arp.ID,
		Constraints: cons,
		Domains:     decDomains(arp.Domains),
		Events:      events,
		Action:      action,
		Port:        port,
		StatelessIC: arp.StatelessIC,
		StatelessMA: arp.StatelessMA,
		Ops:         ops,
		Accesses:    accesses,
		PCVRanges:   decRanges(arp.PCVRanges),
		PktWrites:   writes,
	}, nil
}

func decEvents(aes []artCallEvent) ([]nfir.CallEvent, error) {
	if aes == nil {
		return nil, nil
	}
	out := make([]nfir.CallEvent, 0, len(aes))
	for i, ae := range aes {
		if ae.DS == "" || ae.Method == "" {
			return nil, fmt.Errorf("call event %d has an empty data-structure or method name", i)
		}
		results, err := decExprs(ae.Outcome.Results)
		if err != nil {
			return nil, err
		}
		cons, err := decExprs(ae.Outcome.Constraints)
		if err != nil {
			return nil, err
		}
		cost, err := decCost(ae.Outcome.Cost)
		if err != nil {
			return nil, err
		}
		var pcvs []nfir.PCV
		for _, pcv := range ae.Outcome.PCVs {
			if pcv.Name == "" {
				return nil, fmt.Errorf("call event %d has a PCV with an empty name", i)
			}
			pcvs = append(pcvs, nfir.PCV{Name: pcv.Name, Range: expr.Range{Lo: pcv.Range.Lo, Hi: pcv.Range.Hi}})
		}
		args, err := decExprs(ae.Args)
		if err != nil {
			return nil, err
		}
		class, ok := nfir.ParseSharingClass(ae.Sharing)
		if !ok {
			return nil, fmt.Errorf("call event %d has an unknown sharing class %q", i, ae.Sharing)
		}
		if class == nfir.SharingUnknown && ae.SharingReason != "" {
			return nil, fmt.Errorf("call event %d has a sharing reason without a sharing class", i)
		}
		out = append(out, nfir.CallEvent{
			DS:     ae.DS,
			Method: ae.Method,
			Outcome: nfir.Outcome{
				Label:       ae.Outcome.Label,
				Results:     results,
				Constraints: cons,
				Domains:     decDomains(ae.Outcome.Domains),
				Cost:        cost,
				PCVs:        pcvs,
			},
			ResultSyms: ae.ResultSyms,
			Args:       args,
			Sharing:    nfir.Sharing{Class: class, Reason: ae.SharingReason},
		})
	}
	return out, nil
}

func decCost(ac map[string]artPoly) (map[perf.Metric]expr.Poly, error) {
	if ac == nil {
		return nil, nil
	}
	out := make(map[perf.Metric]expr.Poly, len(ac))
	for name, ap := range ac {
		m, err := perf.ParseMetric(name)
		if err != nil {
			return nil, err
		}
		if key, _ := oracleMetricKey(m); key != name {
			return nil, fmt.Errorf("non-canonical metric name %q", name)
		}
		p, err := decPoly(ap)
		if err != nil {
			return nil, err
		}
		out[m] = p
	}
	return out, nil
}

func decPoly(ap artPoly) (expr.Poly, error) {
	terms := make(map[expr.Mono]uint64, len(ap))
	for ms, c := range ap {
		m, err := expr.ParseMono(ms)
		if err != nil {
			return expr.Poly{}, err
		}
		if c == 0 {
			return expr.Poly{}, fmt.Errorf("expr: zero coefficient for monomial %q", ms)
		}
		terms[m] = c
	}
	return expr.FromTerms(terms), nil
}

func decDomains(ad map[string]artRange) map[string]symb.Domain {
	if ad == nil {
		return nil
	}
	out := make(map[string]symb.Domain, len(ad))
	for s, r := range ad {
		out[s] = symb.Domain{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

func decRanges(ar map[string]artRange) map[string]expr.Range {
	if ar == nil {
		return nil
	}
	out := make(map[string]expr.Range, len(ar))
	for s, r := range ar {
		out[s] = expr.Range{Lo: r.Lo, Hi: r.Hi}
	}
	return out
}

func decExprs(aes []*artExpr) ([]symb.Expr, error) {
	if aes == nil {
		return nil, nil
	}
	out := make([]symb.Expr, 0, len(aes))
	for _, ae := range aes {
		e, err := decExpr(ae, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// decExpr rebuilds a symbolic expression EXACTLY as stored: it uses the
// raw node constructors, never symb.B, because B's constant folding
// would rewrite the tree and break losslessness.
func decExpr(ae *artExpr, depth int) (symb.Expr, error) {
	if ae == nil {
		return nil, fmt.Errorf("missing expression node")
	}
	if depth > maxExprDepth {
		return nil, fmt.Errorf("expression nesting exceeds %d", maxExprDepth)
	}
	switch ae.K {
	case "c":
		if ae.N != "" || ae.Op != "" || ae.L != nil || ae.R != nil || ae.X != nil {
			return nil, fmt.Errorf("malformed const node")
		}
		return symb.Const{V: ae.V}, nil
	case "s":
		if ae.N == "" {
			return nil, fmt.Errorf("symbol node with empty name")
		}
		if ae.V != 0 || ae.Op != "" || ae.L != nil || ae.R != nil || ae.X != nil {
			return nil, fmt.Errorf("malformed symbol node")
		}
		return symb.Sym{Name: ae.N}, nil
	case "b":
		op, ok := symb.ParseOp(ae.Op)
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", ae.Op)
		}
		if ae.V != 0 || ae.N != "" || ae.X != nil {
			return nil, fmt.Errorf("malformed binary node")
		}
		l, err := decExpr(ae.L, depth+1)
		if err != nil {
			return nil, err
		}
		r, err := decExpr(ae.R, depth+1)
		if err != nil {
			return nil, err
		}
		return symb.Bin{Op: op, L: l, R: r}, nil
	case "n":
		if ae.V != 0 || ae.N != "" || ae.Op != "" || ae.L != nil || ae.R != nil {
			return nil, fmt.Errorf("malformed not node")
		}
		x, err := decExpr(ae.X, depth+1)
		if err != nil {
			return nil, err
		}
		return symb.Not{X: x}, nil
	}
	return nil, fmt.Errorf("unknown expression kind %q", ae.K)
}

// --- version 3, leniently --------------------------------------------

// The v3* structs are version 3's shape: the same fields as the art*
// structs, with table indices where version 3 references an entry and
// [monomial-index, coefficient] pairs for cost polynomials. Table
// entries stay raw until an index resolves them, so their spelled
// length is known.
type v3File struct {
	Format   string       `json:"format"`
	Version  int          `json:"version"`
	Key      string       `json:"key"`
	Tables   v3Tables     `json:"tables"`
	Contract *v3Contract  `json:"contract"`
	Paths    []*v3RawPath `json:"raw_paths"`
}

type v3Tables struct {
	Monos   []json.RawMessage `json:"monos"`
	Exprs   []json.RawMessage `json:"exprs"`
	Domains []json.RawMessage `json:"domains"`
	Ranges  []json.RawMessage `json:"ranges"`
	Polys   []json.RawMessage `json:"polys"`
	Writes  []json.RawMessage `json:"writes"`
}

type v3Contract struct {
	NF         string    `json:"nf"`
	Level      string    `json:"level"`
	Provenance string    `json:"provenance"`
	Paths      []*v3Path `json:"paths"`
}

type v3Cost map[string][][2]uint64

type v3Path struct {
	ID            int               `json:"id"`
	Action        string            `json:"action"`
	Constraints   *int              `json:"constraints"`
	Domains       *int              `json:"domains"`
	Events        string            `json:"events"`
	Trace         []v3CallEvent     `json:"trace"`
	Cost          v3Cost            `json:"cost"`
	PCVRanges     *int              `json:"pcv_ranges"`
	SharedMA      *int              `json:"shared_ma"`
	ShardAnalysed bool              `json:"shard_analysed"`
	Witness       map[string]uint64 `json:"witness"`
}

type v3RawPath struct {
	ID          int               `json:"id"`
	Action      string            `json:"action"`
	Constraints *int              `json:"constraints"`
	Domains     *int              `json:"domains"`
	Events      []v3CallEvent     `json:"events"`
	Port        *artExpr          `json:"port"`
	StatelessIC uint64            `json:"stateless_ic"`
	StatelessMA uint64            `json:"stateless_ma"`
	Ops         map[string]uint64 `json:"ops"`
	Accesses    []artAccess       `json:"accesses"`
	PCVRanges   *int              `json:"pcv_ranges"`
	PktWrites   *int              `json:"pkt_writes"`
}

type v3CallEvent struct {
	DS      string `json:"ds"`
	Method  string `json:"method"`
	Outcome struct {
		Label       string   `json:"label"`
		Results     *int     `json:"results"`
		Constraints *int     `json:"constraints"`
		Domains     *int     `json:"domains"`
		Cost        v3Cost   `json:"cost"`
		PCVs        []artPCV `json:"pcvs"`
	} `json:"outcome"`
	ResultSyms    []string `json:"result_syms"`
	Args          *int     `json:"args"`
	Sharing       string   `json:"sharing"`
	SharingReason string   `json:"sharing_reason"`
}

// v3Resolver turns indices into art* values. It counts the bytes the
// resolved entries spell against the same budget DecodeArtifact has.
type v3Resolver struct {
	t        *v3Tables
	expanded int
	err      error
}

// entry unmarshals entry *i of table into out, if i is present.
func (r *v3Resolver) entry(table []json.RawMessage, i *int, out any) {
	if i == nil || r.err != nil {
		return
	}
	if *i < 0 || *i >= len(table) {
		r.err = fmt.Errorf("index %d out of range", *i)
		return
	}
	r.expanded += len(table[*i])
	r.err = json.Unmarshal(table[*i], out)
}

func (r *v3Resolver) cost(c v3Cost) map[string]artPoly {
	if c == nil {
		return nil
	}
	out := make(map[string]artPoly, len(c))
	for metric, terms := range c {
		p := artPoly{}
		for _, t := range terms {
			var mono string
			i := int(t[0])
			if r.entry(r.t.Monos, &i, &mono); r.err != nil {
				return nil
			}
			p[mono] = t[1]
		}
		out[metric] = p
	}
	return out
}

func (r *v3Resolver) events(evs []v3CallEvent) []artCallEvent {
	var out []artCallEvent
	for _, ev := range evs {
		ae := artCallEvent{DS: ev.DS, Method: ev.Method, ResultSyms: ev.ResultSyms, Sharing: ev.Sharing, SharingReason: ev.SharingReason}
		o := &ae.Outcome
		o.Label, o.PCVs, o.Cost = ev.Outcome.Label, ev.Outcome.PCVs, r.cost(ev.Outcome.Cost)
		r.entry(r.t.Exprs, ev.Outcome.Results, &o.Results)
		r.entry(r.t.Exprs, ev.Outcome.Constraints, &o.Constraints)
		r.entry(r.t.Domains, ev.Outcome.Domains, &o.Domains)
		r.entry(r.t.Exprs, ev.Args, &ae.Args)
		out = append(out, ae)
	}
	return out
}

// lenientDecode reads version-3 bytes through the reflection oracle. It
// checks the envelope, every index's range and the expansion budget,
// and leaves the rest of canonical form to the caller's re-encode.
func lenientDecode(data []byte) (*Artifact, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f v3File
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data")
	}
	if f.Format != artifactFormat || f.Version != ArtifactVersion || f.Contract == nil {
		return nil, fmt.Errorf("not a version-%d artifact", ArtifactVersion)
	}
	r := &v3Resolver{t: &f.Tables}
	ac := &artContract{NF: f.Contract.NF, Level: f.Contract.Level, Provenance: f.Contract.Provenance, Paths: []*artPath{}}
	for _, p := range f.Contract.Paths {
		if p == nil {
			return nil, fmt.Errorf("null path")
		}
		ap := &artPath{ID: p.ID, Action: p.Action, Events: p.Events, Trace: r.events(p.Trace), Cost: r.cost(p.Cost),
			ShardAnalysed: p.ShardAnalysed, Witness: p.Witness}
		r.entry(r.t.Exprs, p.Constraints, &ap.Constraints)
		r.entry(r.t.Domains, p.Domains, &ap.Domains)
		r.entry(r.t.Ranges, p.PCVRanges, &ap.PCVRanges)
		r.entry(r.t.Polys, p.SharedMA, &ap.SharedMA)
		ac.Paths = append(ac.Paths, ap)
	}
	var raws []*artRawPath
	for _, p := range f.Paths {
		if p == nil {
			return nil, fmt.Errorf("null raw path")
		}
		arp := &artRawPath{ID: p.ID, Action: p.Action, Events: r.events(p.Events), Port: p.Port, StatelessIC: p.StatelessIC,
			StatelessMA: p.StatelessMA, Ops: p.Ops, Accesses: p.Accesses}
		r.entry(r.t.Exprs, p.Constraints, &arp.Constraints)
		r.entry(r.t.Domains, p.Domains, &arp.Domains)
		r.entry(r.t.Ranges, p.PCVRanges, &arp.PCVRanges)
		r.entry(r.t.Writes, p.PktWrites, &arp.PktWrites)
		raws = append(raws, arp)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.expanded > maxExpansion*len(data) {
		return nil, fmt.Errorf("references stand for %d bytes", r.expanded)
	}
	ct, err := decContract(ac, oracleVersion)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Key: f.Key, Contract: ct, Version: ArtifactVersion}
	if f.Paths != nil {
		if len(f.Paths) != len(ct.Paths) {
			return nil, fmt.Errorf("raw paths misaligned")
		}
		a.Paths = []*nfir.Path{}
		for _, arp := range raws {
			rp, err := decRawPath(arp, oracleVersion)
			if err != nil {
				return nil, err
			}
			a.Paths = append(a.Paths, rp)
		}
	}
	return a, nil
}

// canonicalV3 reports whether data is the version-3 encoding of some
// artifact — lenientDecode reads it and encoding the result gives data
// back — and returns that artifact.
func canonicalV3(data []byte) (*Artifact, bool) {
	a, err := lenientDecode(data)
	if err != nil {
		return nil, false
	}
	re, err := EncodeArtifact(a)
	return a, err == nil && bytes.Equal(re, data)
}
