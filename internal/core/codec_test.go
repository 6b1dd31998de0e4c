package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gobolt/internal/expr"
	"gobolt/internal/nfir"
	"gobolt/internal/perf"
	"gobolt/internal/symb"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// richArtifact builds an artifact exercising every wire feature: all four
// expression node kinds, nested operators, traces with PCVs and model
// costs, multi-metric polynomial costs, PCV ranges, a nil witness next to
// a populated one, and raw paths with port expressions, op tallies,
// accesses, and packet writes.
func richArtifact() *Artifact {
	eq := symb.Bin{Op: symb.Eq, L: symb.Sym{Name: "pkt.dst"}, R: symb.Const{V: 0x0A000001}}
	nested := symb.Bin{
		Op: symb.LAnd,
		L:  symb.Not{X: symb.Bin{Op: symb.Ult, L: symb.Sym{Name: "nat.occ"}, R: symb.Const{V: 4096}}},
		R:  symb.Bin{Op: symb.Ne, L: symb.Sym{Name: "pkt.proto"}, R: symb.Const{V: 17}},
	}
	ev := nfir.CallEvent{
		DS:     "flowtable",
		Method: "get",
		Outcome: nfir.Outcome{
			Label:       "absent",
			Results:     []symb.Expr{symb.Sym{Name: "ft.r0"}},
			Constraints: []symb.Expr{symb.Bin{Op: symb.Eq, L: symb.Sym{Name: "ft.r0"}, R: symb.Const{V: 0}}},
			Domains:     map[string]symb.Domain{"ft.r0": {Lo: 0, Hi: 1}},
			Cost: map[perf.Metric]expr.Poly{
				perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 40, "c": 7}),
				perf.MemAccesses:  expr.FromTerms(map[expr.Mono]uint64{"c": 3}),
			},
			PCVs: []nfir.PCV{{Name: "c", Range: expr.Range{Lo: 0, Hi: 6}}},
		},
		ResultSyms: []string{"ft.r0"},
		Args: []symb.Expr{
			symb.Sym{Name: "pkt_26_4"},
			symb.Bin{Op: symb.Or, L: symb.Sym{Name: "pkt_30_4"}, R: symb.Const{V: 0}},
			symb.Sym{Name: "now"},
		},
		Sharing: nfir.Sharing{Class: nfir.SharingLocal, Reason: "key pins the flow-hash fields"},
	}
	ct := &Contract{
		NF:    "test-nf",
		Level: "full",
		Paths: []*PathContract{
			{
				ID:          0,
				Action:      nfir.ActionForward,
				Constraints: []symb.Expr{eq, nested},
				Domains:     map[string]symb.Domain{"pkt.dst": {Lo: 0, Hi: 1<<32 - 1}},
				Events:      "flowtable.get:absent",
				Trace:       []nfir.CallEvent{ev},
				Cost: map[perf.Metric]expr.Poly{
					perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 120, "c": 7, "c^2": 2}),
					perf.MemAccesses:  expr.FromTerms(map[expr.Mono]uint64{"": 30, "c": 3}),
					perf.Cycles:       expr.FromTerms(map[expr.Mono]uint64{"": 4100, "c*m": 11}),
				},
				PCVRanges:     map[string]expr.Range{"c": {Lo: 0, Hi: 6}, "m": {Lo: 1, Hi: 64}},
				SharedMA:      expr.FromTerms(map[expr.Mono]uint64{"": 3, "c": 1}),
				ShardAnalysed: true,
				Witness:       map[string]uint64{"pkt.dst": 0x0A000001, "pkt.proto": 6},
			},
			{
				ID:      1,
				Action:  nfir.ActionDrop,
				Events:  "",
				Cost:    map[perf.Metric]expr.Poly{perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 55})},
				Witness: nil, // solver Unknown: retained conservatively, no witness
			},
		},
	}
	paths := []*nfir.Path{
		{
			ID:          0,
			Constraints: []symb.Expr{eq, nested},
			Domains:     map[string]symb.Domain{"pkt.dst": {Lo: 0, Hi: 1<<32 - 1}},
			Events:      []nfir.CallEvent{ev},
			Action:      nfir.ActionForward,
			Port:        symb.Bin{Op: symb.And, L: symb.Sym{Name: "ft.r0"}, R: symb.Const{V: 3}},
			StatelessIC: 80,
			StatelessMA: 20,
			Ops: map[perf.OpClass]uint64{
				perf.OpALU: 60, perf.OpBranch: 12, perf.OpLoad: 14, perf.OpStore: 6, perf.OpCall: 2,
			},
			Accesses: []nfir.SymAccess{
				{Known: true, Addr: 0x1000, Size: 8, Store: false},
				{Known: false, Size: 4, Store: true},
			},
			PCVRanges: map[string]expr.Range{"c": {Lo: 0, Hi: 6}},
			PktWrites: map[uint64]nfir.PktWrite{
				24: {Size: 4, Val: symb.Const{V: 0xC0A80001}},
				2:  {Size: 2, Val: symb.Sym{Name: "nat.port"}},
			},
		},
		{
			ID:     1,
			Action: nfir.ActionDrop,
		},
	}
	return &Artifact{Key: strings.Repeat("ab", 32), Contract: ct, Paths: paths, Version: ArtifactVersion}
}

// repeatedArtifact is a three-path artifact whose paths repeat one
// another's constraints, domains, PCV ranges, shared-MA polynomials and
// packet writes byte for byte, the way a composite's do, so the decoder
// reads every memoised span once and then finds it again.
func repeatedArtifact() *Artifact {
	a := richArtifact()
	p0, rp0 := a.Contract.Paths[0], a.Paths[0]
	p1 := &PathContract{
		ID:            1,
		Action:        nfir.ActionForward,
		Constraints:   slices.Clone(p0.Constraints),
		Domains:       maps.Clone(p0.Domains),
		Cost:          map[perf.Metric]expr.Poly{perf.Instructions: expr.FromTerms(map[expr.Mono]uint64{"": 101})},
		PCVRanges:     maps.Clone(p0.PCVRanges),
		SharedMA:      p0.SharedMA,
		ShardAnalysed: true,
		Witness:       map[string]uint64{"pkt.dst": 1},
	}
	rp1 := &nfir.Path{
		ID:          1,
		Constraints: slices.Clone(rp0.Constraints),
		Domains:     maps.Clone(rp0.Domains),
		Action:      nfir.ActionForward,
		StatelessIC: 10,
		PCVRanges:   maps.Clone(rp0.PCVRanges),
		PktWrites:   maps.Clone(rp0.PktWrites),
	}
	drop, rdrop := a.Contract.Paths[1], a.Paths[1] // repeats nothing
	drop.ID, rdrop.ID = 2, 2
	a.Contract.Paths = []*PathContract{p0, p1, drop}
	a.Paths = []*nfir.Path{rp0, rp1, rdrop}
	return a
}

// TestCodecRepeatedSpans decodes an artifact whose paths repeat each
// memoised field: the result must equal the input and the oracle's, and
// paths with equal bytes share the decoded value — one map, one slice —
// without one path's append reaching another's.
func TestCodecRepeatedSpans(t *testing.T) {
	in := repeatedArtifact()
	data, err := EncodeArtifact(in)
	if err != nil {
		t.Fatal(err)
	}
	a, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, a) {
		t.Fatalf("repeated-span artifact does not round-trip")
	}
	if oa, err := oracleDecode(data); err != nil || !reflect.DeepEqual(a, oa) {
		t.Fatalf("decoder and oracle disagree on the repeated-span artifact (oracle err %v)", err)
	}
	same := func(x, y any) bool { return reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() }
	p0, p1, p2 := a.Contract.Paths[0], a.Contract.Paths[1], a.Contract.Paths[2]
	rp0, rp1 := a.Paths[0], a.Paths[1]
	shared := map[string]bool{
		"domains":            same(p0.Domains, p1.Domains),
		"pcv_ranges":         same(p0.PCVRanges, p1.PCVRanges),
		"constraints":        same(p0.Constraints, p1.Constraints),
		"raw domains":        same(rp0.Domains, rp1.Domains),
		"raw pcv_ranges":     same(rp0.PCVRanges, rp1.PCVRanges),
		"raw constraints":    same(rp0.Constraints, rp1.Constraints),
		"pkt_writes":         same(rp0.PktWrites, rp1.PktWrites),
		"contract vs raw":    !same(p0.Domains, rp0.Domains), // another nesting level: decoded apart
		"unrepeated witness": !same(p0.Witness, p1.Witness),
	}
	for what, ok := range shared {
		if !ok {
			t.Errorf("%s: sharing is not what the bytes say", what)
		}
	}
	if p2.Domains != nil || p2.Constraints != nil {
		t.Fatalf("the drop path decoded fields it does not have")
	}

	// Each path that shares a list appends its own constraint; with spare
	// capacity in the shared array the later appends would overwrite the
	// earlier ones.
	lists := []*[]symb.Expr{&p0.Constraints, &p1.Constraints, &rp0.Constraints, &rp1.Constraints}
	want := slices.Clone(p0.Constraints)
	for i, l := range lists {
		*l = append(*l, symb.Const{V: uint64(i)})
	}
	for i, l := range lists {
		if !slices.Equal(*l, append(slices.Clone(want), symb.Const{V: uint64(i)})) {
			t.Fatalf("appending to one path's constraints changed another's: list %d is %v", i, *l)
		}
	}
}

// TestCodecSpanAtTwoLevels puts one expression list at two nesting
// levels: a chain of Not nodes exactly as deep as a path's constraints
// allow, then the same bytes again as a trace event's constraints,
// three levels deeper. The first is accepted and memoised; the second
// must still hit the depth limit, in both decoders, as it would if it
// were read from scratch.
func TestCodecSpanAtTwoLevels(t *testing.T) {
	var deep symb.Expr = symb.Const{}
	for range maxExprDepth - 6 { // the root at level 6, the leaf at 10000
		deep = symb.Not{X: deep}
	}
	list := []symb.Expr{deep}
	path := func(trace []nfir.CallEvent) *Artifact {
		return &Artifact{Contract: &Contract{NF: "deep", Level: "full", Paths: []*PathContract{
			{ID: 0, Action: nfir.ActionDrop, Constraints: list, Trace: trace},
			{ID: 1, Action: nfir.ActionDrop, Constraints: list}, // the same level: a memo hit
		}}}
	}
	ev := nfir.CallEvent{DS: "t", Method: "get", Outcome: nfir.Outcome{Label: "ok", Constraints: list}}
	for _, tc := range []struct {
		name   string
		a      *Artifact
		accept bool
	}{
		{"one level", path(nil), true},
		{"two levels", path([]nfir.CallEvent{ev}), false},
	} {
		data, err := EncodeArtifact(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeArtifact(data)
		_, oerr := oracleDecode(data)
		if (err == nil) != tc.accept || (oerr == nil) != tc.accept {
			t.Errorf("%s: decoder says %v, oracle says %v, want accepted = %v", tc.name, err, oerr, tc.accept)
		} else if err != nil && !strings.Contains(err.Error(), "nesting exceeds") {
			t.Errorf("%s: rejected for another reason: %v", tc.name, err)
		}
	}
}

// distinctSpansArtifact has n paths whose domains all differ, but only in
// their last bound: n distinct spans that agree on all but a few of
// their ~400 bytes, the worst case for a memo that compares candidates.
func distinctSpansArtifact(n int) *Artifact {
	ct := &Contract{NF: "spans", Level: "full"}
	for i := range n {
		dom := make(map[string]symb.Domain, 16)
		for k := range 15 {
			dom[fmt.Sprintf("pkt_field_%02d", k)] = symb.Domain{Lo: 0, Hi: 65535}
		}
		dom["zz"] = symb.Domain{Lo: 0, Hi: uint64(i)}
		ct.Paths = append(ct.Paths, &PathContract{ID: i, Action: nfir.ActionDrop, Domains: dom})
	}
	return &Artifact{Contract: ct}
}

// TestCodecDistinctSpansLinear is the memo's cost bound: an artifact with
// 20,000 distinct domain spans must decode in time per span within a
// small factor of one with 2,000. A memo that scanned its stored spans
// would grow the per-span time tenfold from one to the other.
func TestCodecDistinctSpansLinear(t *testing.T) {
	perSpan := func(n int) time.Duration {
		data, err := EncodeArtifact(distinctSpansArtifact(n))
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			if _, err := DecodeArtifact(data); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best / time.Duration(n)
	}
	small, large := perSpan(2_000), perSpan(20_000)
	t.Logf("per distinct span: %v at 2,000, %v at 20,000", small, large)
	if large > 3*small {
		t.Errorf("decoding 20,000 distinct spans takes %v per span, 2,000 take %v: not linear", large, small)
	}
}

func BenchmarkDecodeDistinctSpans(b *testing.B) {
	data, err := EncodeArtifact(distinctSpansArtifact(20_000))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeArtifact(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCodecRoundTripRich(t *testing.T) {
	a := richArtifact()
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("decode is not the inverse of encode:\n  in:  %+v\n  out: %+v", a, got)
	}
	if want, err := oracleEncode(a); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("encoder and oracle disagree on the every-feature artifact (%v)", err)
	}
	re, err := EncodeArtifact(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("encode is not deterministic across a round trip")
	}
	// Witness nil-vs-empty must survive: path 1 has no witness, and the
	// wire bytes must say null (not omit the field, not say {}).
	if !bytes.Contains(data, []byte(`"witness":null`)) {
		t.Fatalf("nil witness not encoded as null:\n%s", data)
	}
}

func TestCodecGolden(t *testing.T) {
	golden := filepath.Join("testdata", "artifact_v2.golden.json")
	data, err := EncodeArtifact(richArtifact())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestCodecGolden -update ./internal/core` after an intentional schema change): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("artifact encoding drifted from the pinned version-%d schema; if intentional, bump ArtifactVersion and regenerate with -update", ArtifactVersion)
	}
	if _, err := DecodeArtifact(want); err != nil {
		t.Fatalf("golden artifact no longer decodes: %v", err)
	}
}

// TestShardFieldsAdditive pins what is left of "version 2 is strictly
// additive over version 1" now that version 1 is retired: the pre-shard
// golden bytes are refused as an unsupported version, and today's
// artifact with its shard annotations stripped still encodes to exactly
// that golden's payload under a version-2 envelope — the shard fields
// added bytes and moved none.
func TestShardFieldsAdditive(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "artifact_v1.golden.json"))
	if err != nil {
		t.Fatalf("reading pre-shard golden file: %v", err)
	}
	if _, err := DecodeArtifact(v1); err == nil || !strings.Contains(err.Error(), "unsupported artifact version 1") {
		t.Fatalf("version-1 golden: err = %v, want unsupported artifact version 1", err)
	}

	a := richArtifact()
	for _, p := range a.Contract.Paths {
		p.SharedMA, p.ShardAnalysed = expr.Poly{}, false
		for i := range p.Trace {
			p.Trace[i].Args, p.Trace[i].Sharing = nil, nfir.Sharing{}
		}
	}
	for _, rp := range a.Paths {
		for i := range rp.Events {
			rp.Events[i].Args, rp.Events[i].Sharing = nil, nfir.Sharing{}
		}
	}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Replace(v1, []byte(`"version":1`), []byte(`"version":2`), 1)
	if !bytes.Equal(data, want) {
		t.Fatalf("shard-less content no longer encodes to the pre-shard payload under a version-2 envelope")
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("shard-less version-2 artifact does not decode: %v", err)
	}
	if got.Version != ArtifactVersion {
		t.Fatalf("decoded version = %d, want %d", got.Version, ArtifactVersion)
	}
	for i, p := range got.Contract.Paths {
		if p.ShardAnalysed || !p.SharedMA.IsZero() {
			t.Fatalf("path %d of a shard-less artifact carries shard analysis", i)
		}
	}
}

func TestCodecContractOnly(t *testing.T) {
	a := &Artifact{Contract: richArtifact().Contract} // no key, no raw paths
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Key != "" || got.Paths != nil {
		t.Fatalf("contract-only artifact grew key %q / %d raw paths", got.Key, len(got.Paths))
	}
	if !reflect.DeepEqual(a.Contract, got.Contract) {
		t.Fatalf("contract-only round trip diverged")
	}
}

func TestCodecEncodeRejects(t *testing.T) {
	if _, err := EncodeArtifact(nil); err == nil {
		t.Errorf("encoded a nil artifact")
	}
	if _, err := EncodeArtifact(&Artifact{}); err == nil {
		t.Errorf("encoded an artifact without a contract")
	}
	ct := &Contract{NF: "x", Paths: []*PathContract{{ID: 0}}}
	if _, err := EncodeArtifact(&Artifact{Contract: ct, Paths: []*nfir.Path{{}, {}}}); err == nil {
		t.Errorf("encoded misaligned raw paths")
	}
	if _, err := EncodeArtifact(&Artifact{Contract: &Contract{NF: "x", Paths: []*PathContract{
		{Constraints: []symb.Expr{nil}},
	}}}); err == nil {
		t.Errorf("encoded a nil expression")
	}
}

func TestCodecDecodeRejects(t *testing.T) {
	valid, err := EncodeArtifact(richArtifact())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(old, new string) []byte {
		s := string(valid)
		if !strings.Contains(s, old) {
			t.Fatalf("mutation anchor %q not present in encoding", old)
		}
		return []byte(strings.Replace(s, old, new, 1))
	}
	cases := map[string][]byte{
		"empty input":       []byte(""),
		"not json":          []byte("boltstore1 junk"),
		"truncated":         valid[:len(valid)/2],
		"trailing data":     append(append([]byte{}, valid...), []byte(" {}")...),
		"wrong format":      mutate(`"format":"gobolt-contract"`, `"format":"gobolt-contrakt"`),
		"future version":    mutate(`"version":2`, `"version":3`),
		"unknown field":     mutate(`"nf":"test-nf"`, `"nf":"test-nf","zzz":1`),
		"unknown action":    mutate(`"action":"drop"`, `"action":"teleport"`),
		"unknown operator":  mutate(`"op":"=="`, `"op":"==="`),
		"unknown metric":    mutate(`"ic":`, `"IC":`),
		"bad monomial":      mutate(`"c^2":2`, `"c^0":2`),
		"zero coefficient":  mutate(`"c^2":2`, `"c^2":0`),
		"whitespace":        mutate(`"version":2`, `"version": 2`),
		"reordered fields":  mutate(`"format":"gobolt-contract","version":2`, `"version":2,"format":"gobolt-contract"`),
		"malformed const":   mutate(`{"k":"c","v":167772161}`, `{"k":"c","v":167772161,"n":"x"}`),
		"empty symbol name": mutate(`{"k":"s","n":"nat.port"}`, `{"k":"s","n":""}`),
		"unknown sharing":   mutate(`"sharing":"local"`, `"sharing":"lokal"`),
		"orphaned reason":   mutate(`"sharing":"local","sharing_reason":"key pins the flow-hash fields"`, `"sharing_reason":"key pins the flow-hash fields"`),
		"retired version":   mutate(`"version":2`, `"version":1`),
		"witness omitted":   mutate(`,"witness":null`, ``),
	}
	for name, data := range cases {
		if _, err := DecodeArtifact(data); err == nil {
			t.Errorf("%s: decode accepted corrupt artifact", name)
		}
	}
	// Misaligned raw paths: drop one raw path from the array.
	var f map[string]json.RawMessage
	if err := json.Unmarshal(valid, &f); err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(f["raw_paths"], &raws); err != nil {
		t.Fatal(err)
	}
	one, _ := json.Marshal(raws[:1])
	misaligned := bytes.Replace(valid, f["raw_paths"], one, 1)
	if _, err := DecodeArtifact(misaligned); err == nil {
		t.Errorf("decode accepted raw paths misaligned with contract paths")
	}
}

// TestCodecDecodeNeverFolds pins that decoding reconstructs expression
// trees verbatim: a stored (3 + 4) must stay Bin{Add,3,4}, not fold to 7
// the way the symb.B constructor would.
func TestCodecDecodeNeverFolds(t *testing.T) {
	a := &Artifact{Contract: &Contract{NF: "x", Paths: []*PathContract{{
		ID:          0,
		Action:      nfir.ActionDrop,
		Constraints: []symb.Expr{symb.Bin{Op: symb.Add, L: symb.Const{V: 3}, R: symb.Const{V: 4}}},
		Witness:     nil,
	}}}}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.Contract.Paths[0].Constraints[0].(symb.Bin)
	if !ok {
		t.Fatalf("constant-foldable expression decoded as %T, want symb.Bin", got.Contract.Paths[0].Constraints[0])
	}
	if b.Op != symb.Add {
		t.Fatalf("operator rewritten to %v", b.Op)
	}
}

func FuzzContractCodec(f *testing.F) {
	valid, err := EncodeArtifact(richArtifact())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	minimal, err := EncodeArtifact(&Artifact{Contract: &Contract{NF: "m", Level: "full"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(minimal)
	// Paths that repeat every memoised field, so mutations land in spans
	// the decoder has already accepted once (the mutator alone rarely
	// writes the same span twice).
	repeated, err := EncodeArtifact(repeatedArtifact())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(repeated)
	f.Add(bytes.Replace(repeated, []byte(`"hi":64`), []byte(`"hi":65`), 1))
	f.Add(bytes.Replace(repeated, []byte(`"op":"=="`), []byte(`"op":"!="`), 1))
	// Version 1 is retired: the pre-shard golden must be refused.
	v1, err := os.ReadFile(filepath.Join("testdata", "artifact_v1.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":1`), 1))
	f.Add([]byte(`{"format":"gobolt-contract","version":1,"contract":{"nf":"m","level":"","paths":[]}}`))
	f.Add([]byte(`{"format":"gobolt-contract","version":9,"contract":null}`))
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.ToUpper(valid))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		// The reflection codec this one replaced accepted exactly the
		// same inputs and built exactly the same structures.
		oa, oerr := oracleDecode(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("accept sets differ: decoder says %v, oracle says %v", err, oerr)
		}
		if err != nil {
			return // rejected is always a fine outcome for fuzz input
		}
		if !reflect.DeepEqual(a, oa) {
			t.Fatalf("decoder and oracle built different artifacts from %q", data)
		}
		// Accepted input must be the canonical encoding of its content:
		// decode ∘ encode is the identity on everything DecodeArtifact
		// lets through.
		re, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical artifact:\n in: %q\nout: %q", data, re)
		}
		b, err := DecodeArtifact(re)
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("decode unstable across round trip")
		}
	})
}

// TestCodecProvenance pins the provenance field's wire behavior: it
// survives a round trip, is omitted entirely when empty (so every
// pre-existing artifact and the golden file are byte-stable), and is
// covered by the canonical re-encode identity.
func TestCodecProvenance(t *testing.T) {
	a := richArtifact()
	a.Contract.Provenance = "bvm:ratelimit.bvm"
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Contains(data, []byte(`"provenance":"bvm:ratelimit.bvm"`)) {
		t.Fatalf("provenance missing from wire bytes:\n%s", data)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Contract.Provenance != "bvm:ratelimit.bvm" {
		t.Fatalf("provenance = %q after round trip", got.Contract.Provenance)
	}

	a.Contract.Provenance = ""
	data, err = EncodeArtifact(a)
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if bytes.Contains(data, []byte("provenance")) {
		t.Fatalf("empty provenance must be omitted from the wire:\n%s", data)
	}
}
