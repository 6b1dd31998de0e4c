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
	"regexp"
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
// packet writes, the way a composite's do, so the encoder names most
// table entries more than once.
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

// sameValue reports whether the decoder built what the value oracle
// did, whatever version each read.
func sameValue(got, want *Artifact) bool {
	if got == nil || want == nil {
		return got == want
	}
	w := *want
	w.Version = got.Version
	return reflect.DeepEqual(got, &w)
}

// oracleValue is what the reflection codec decodes from a's version-2
// spelling: the value DecodeArtifact must build from its version-3 one.
func oracleValue(t testing.TB, a *Artifact) *Artifact {
	t.Helper()
	v2, err := oracleEncode(a)
	if err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	want, err := oracleDecode(v2)
	if err != nil {
		t.Fatalf("oracle decode: %v", err)
	}
	return want
}

// TestCodecRepeatedSpans decodes an artifact whose paths repeat each
// tabled field: the result must equal the input and the oracle's value,
// each table entry is spelled once, and the paths that name one entry
// share the decoded value — one map, one slice — without one path's
// append reaching another's.
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
	if !sameValue(a, oracleValue(t, in)) {
		t.Fatalf("decoder and oracle disagree on the repeated-span artifact")
	}
	if n := bytes.Count(data, []byte(`"nat.occ"`)); n != 1 {
		t.Errorf("the shared constraint list is spelled %d times, want once", n)
	}
	same := func(x, y any) bool { return reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() }
	p0, p1, p2 := a.Contract.Paths[0], a.Contract.Paths[1], a.Contract.Paths[2]
	rp0, rp1 := a.Paths[0], a.Paths[1]
	shared := map[string]bool{
		"domains":               same(p0.Domains, p1.Domains),
		"pcv_ranges":            same(p0.PCVRanges, p1.PCVRanges),
		"constraints":           same(p0.Constraints, p1.Constraints),
		"raw domains":           same(rp0.Domains, rp1.Domains),
		"raw pcv_ranges":        same(rp0.PCVRanges, rp1.PCVRanges),
		"raw constraints":       same(rp0.Constraints, rp1.Constraints),
		"pkt_writes":            same(rp0.PktWrites, rp1.PktWrites),
		"contract vs raw":       same(p0.Constraints, rp0.Constraints) && same(p0.Domains, rp0.Domains),
		"unequal pcv_ranges":    !same(p0.PCVRanges, rp0.PCVRanges),
		"unrepeated witness":    !same(p0.Witness, p1.Witness),
		"trace vs raw events":   same(p0.Trace[0].Args, rp0.Events[0].Args),
		"results vs constraint": !same(p0.Trace[0].Outcome.Results, p0.Trace[0].Outcome.Constraints),
	}
	for what, ok := range shared {
		if !ok {
			t.Errorf("%s: sharing is not what the tables say", what)
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
	if !sameValue(got, oracleValue(t, a)) {
		t.Fatalf("decoder and oracle disagree on the every-feature artifact")
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

// TestCodecGolden pins the every-feature artifact's version-3 bytes, and
// keeps its version-2 bytes as what they now are: an object this build
// refuses by version, whose value (read by the oracle) is still the one
// the version-3 bytes decode to.
func TestCodecGolden(t *testing.T) {
	golden := filepath.Join("testdata", "artifact_v3.golden.json")
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
	got, err := DecodeArtifact(want)
	if err != nil {
		t.Fatalf("golden artifact no longer decodes: %v", err)
	}

	v2, err := os.ReadFile(filepath.Join("testdata", "artifact_v2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(v2); err == nil || !strings.Contains(err.Error(), "unsupported artifact version 2") {
		t.Fatalf("version-2 golden: err = %v, want unsupported artifact version 2", err)
	}
	if o, err := oracleEncode(richArtifact()); err != nil || !bytes.Equal(o, v2) {
		t.Fatalf("the oracle no longer spells the every-feature artifact as the version-2 golden (%v)", err)
	}
	if want, err := oracleDecode(v2); err != nil || !sameValue(got, want) {
		t.Fatalf("the version-3 golden decodes to something other than the version-2 golden's value (oracle err %v)", err)
	}
}

// TestShardFieldsAdditive pins what is left of "version 2 is strictly
// additive over version 1" now that both are retired: the pre-shard
// golden is refused as an unsupported version, today's artifact with its
// shard annotations stripped still has that golden's payload as its
// version-2 spelling (the oracle's), so the shard fields added bytes and
// moved none, and its version-3 round trip carries no shard analysis.
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
	v2, err := oracleEncode(a)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Replace(v1, []byte(`"version":1`), []byte(`"version":2`), 1); !bytes.Equal(v2, want) {
		t.Fatalf("shard-less content no longer has the pre-shard payload as its version-2 spelling")
	}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("shard-less artifact does not decode: %v", err)
	}
	if got.Version != ArtifactVersion || !sameValue(got, oracleValue(t, a)) {
		t.Fatalf("shard-less artifact: version %d, or a value other than the oracle's", got.Version)
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
	// What the decoder would refuse as an expansion bomb, the encoder
	// does not write.
	if _, err := EncodeArtifact(bombArtifact(40)); err == nil || !strings.Contains(err.Error(), "stand for more than") {
		t.Errorf("encoded references beyond the expansion budget (err %v)", err)
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
		"empty input":        []byte(""),
		"not json":           []byte("boltstore1 junk"),
		"truncated":          valid[:len(valid)/2],
		"trailing data":      append(append([]byte{}, valid...), []byte(" {}")...),
		"wrong format":       mutate(`"format":"gobolt-contract"`, `"format":"gobolt-contrakt"`),
		"future version":     mutate(`"version":3`, `"version":4`),
		"unknown field":      mutate(`"nf":"test-nf"`, `"nf":"test-nf","zzz":1`),
		"unknown action":     mutate(`"action":"drop"`, `"action":"teleport"`),
		"unknown operator":   mutate(`"op":"=="`, `"op":"==="`),
		"unknown metric":     mutate(`"ic":`, `"IC":`),
		"bad monomial":       mutate(`"c^2"`, `"c^0"`),
		"zero coefficient":   mutate(`[3,2]`, `[3,0]`),
		"whitespace":         mutate(`"version":3`, `"version": 3`),
		"reordered fields":   mutate(`"format":"gobolt-contract","version":3`, `"version":3,"format":"gobolt-contract"`),
		"malformed const":    mutate(`{"k":"c","v":167772161}`, `{"k":"c","v":167772161,"n":"x"}`),
		"empty symbol name":  mutate(`{"k":"s","n":"nat.port"}`, `{"k":"s","n":""}`),
		"unknown sharing":    mutate(`"sharing":"local"`, `"sharing":"lokal"`),
		"orphaned reason":    mutate(`"sharing":"local","sharing_reason":"key pins the flow-hash fields"`, `"sharing_reason":"key pins the flow-hash fields"`),
		"retired version":    mutate(`"version":3`, `"version":2`),
		"witness omitted":    mutate(`,"witness":null`, ``),
		"inline list":        mutate(`"args":3`, `"args":[{"k":"s","n":"now"}]`),
		"tables reordered":   mutate(`"monos":["","c","c*m","c^2"],"exprs":`, `"exprs":`),
		"empty tables":       []byte(`{"format":"gobolt-contract","version":3,"tables":{},"contract":{"nf":"m","level":"","paths":[]}}`),
		"empty table":        []byte(`{"format":"gobolt-contract","version":3,"tables":{"monos":[]},"contract":{"nf":"m","level":"","paths":[]}}`),
		"index leading zero": mutate(`"pkt_writes":0`, `"pkt_writes":00`),
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

// bombLabel is the one symbol name of bombArtifact's expression list.
var bombLabel = strings.Repeat("x", 680)

// bombArtifact is the densest expansion an artifact can spell: one
// contract path whose trace holds n call events, each naming the same
// long expression list as its results, constraints and arguments. Each
// event costs 81 bytes and stands for three copies of the list's 698.
func bombArtifact(n int) *Artifact {
	list := []symb.Expr{symb.Sym{Name: bombLabel}}
	trace := make([]nfir.CallEvent, n)
	for i := range trace {
		trace[i] = nfir.CallEvent{DS: "a", Method: "b", Outcome: nfir.Outcome{Results: list, Constraints: list}, Args: list}
	}
	return &Artifact{Contract: &Contract{NF: "bomb", Level: "full", Paths: []*PathContract{
		{Action: nfir.ActionDrop, Trace: trace},
	}}}
}

// TestCodecHostileTables feeds the decoder version-3 artifacts that
// break each of the tables' rules, and checks that it rejects each one
// at the offset where the break occurs: an out-of-range index, an index
// that skips ahead of first-use order, a duplicate entry, an entry no
// path names, a duplicate or non-canonical monomial, polynomial terms
// out of order or with a zero coefficient, and an expansion bomb. Then
// it checks that rejecting stays linear in the input's size.
func TestCodecHostileTables(t *testing.T) {
	valid, err := EncodeArtifact(repeatedArtifact())
	if err != nil {
		t.Fatal(err)
	}
	// Each mutation replaces the n-th occurrence (from 1) of old.
	type mutation struct {
		old     string
		n       int
		new     string
		at      int // offset of the break within new, -1 for the input's end
		message string
	}
	cases := map[string]mutation{
		"out-of-range index":          {`"pcv_ranges":1`, 1, `"pcv_ranges":7`, 13, "out of range"},
		"out-of-range monomial":       {`[[0,30],[1,3]]`, 1, `[[0,30],[4,3]]`, 9, "out of range"},
		"index ahead of first use":    {`"domains":0`, 1, `"domains":1`, 10, "skips ahead of first use"},
		"monomial ahead of first use": {`"ic":[[0,40],[1,7]]`, 1, `"ic":[[0,40],[2,7]]`, 14, "skips ahead of first use"},
		"duplicate entry":             {`[{"k":"b","op":"==","l":{"k":"s","n":"ft.r0"},"r":{"k":"c"}}]`, 1, `[{"k":"s","n":"ft.r0"}]`, 0, "duplicate expression list"},
		"duplicate domain map":        {`{"ft.r0":{"lo":0,"hi":1}}]`, 1, `{"pkt.dst":{"lo":0,"hi":4294967295}}]`, 0, "duplicate domain map"},
		"unreferenced entry":          {`{"ft.r0":{"lo":0,"hi":1}}]`, 1, `{"ft.r0":{"lo":0,"hi":1}},{"zz":{"lo":0,"hi":1}}]`, -1, "domain map entry 2 is never referenced"},
		"unreferenced monomial":       {`"c^2"]`, 1, `"c^2","z"]`, -1, "monomial entry 4 is never referenced"},
		"duplicate monomial":          {`"c*m"`, 1, `"c"`, 0, "duplicate monomial"},
		"unordered monomial":          {`"c*m"`, 1, `"m*c"`, 0, "non-canonical monomial"},
		"terms out of order":          {`[[0,4100],[2,11]]`, 1, `[[2,11],[0,4100]]`, 9, "not in strictly ascending monomial order"},
		"repeated term":               {`[[0,120],[1,7],[3,2]]`, 1, `[[0,120],[1,7],[1,2]]`, 16, "not in strictly ascending monomial order"},
		"zero coefficient":            {`[[0,120],[1,7],[3,2]]`, 1, `[[0,120],[1,7],[3,0]]`, 18, "zero coefficient"},
	}
	for name, m := range cases {
		s := string(valid)
		i := -1
		for k := 0; k < m.n; k++ {
			j := strings.Index(s[i+1:], m.old)
			if j < 0 {
				t.Fatalf("%s: anchor %q occurs fewer than %d times", name, m.old, m.n)
			}
			i += 1 + j
		}
		data := []byte(s[:i] + m.new + s[i+len(m.old):])
		want := i + m.at
		if m.at < 0 {
			want = len(data)
		}
		checkRejected(t, name, data, want, m.message)
		if _, ok := canonicalV3(data); ok {
			t.Errorf("%s: the lenient reader takes the mutant for canonical", name)
		}
	}

	// The bomb: 1.7 KB whose references stand for 12.3 times that, the
	// smallest that can pass the budget: no reference site costs fewer
	// than 27 bytes. A shorter trace stays inside the budget and decodes.
	if data := bombBytes(t, 7); len(data) > 1500 {
		t.Fatalf("the small bomb is %d bytes", len(data))
	} else if _, err := DecodeArtifact(data); err != nil {
		t.Fatalf("seven events are inside the budget: %v", err)
	}
	bomb := bombBytes(t, 10)
	if len(bomb) > 1750 {
		t.Fatalf("the bomb is %d bytes, want at most 1.75 KB", len(bomb))
	}
	// The budget runs out at the first reference past budget/entry.
	entry := len(`[{"k":"s","n":""}]`) + len(bombLabel)
	refs := regexp.MustCompile(`"(results|constraints|args)":0`).FindAllIndex(bomb, -1)
	over := maxExpansion * len(bomb) / entry
	if over >= len(refs) {
		t.Fatalf("the bomb's %d references stay inside the budget", len(refs))
	}
	t.Logf("the bomb: %d bytes, references standing for %.1f times that", len(bomb), float64(len(refs)*entry)/float64(len(bomb)))
	checkRejected(t, "expansion bomb", bomb, refs[over][1]-1, "stand for more than 12 times")

	// Rejection is linear: a duplicate entry at the end of a table of
	// 20,000 distinct domain maps costs no more per entry than one at the
	// end of 2,000. A check that compared entries pairwise would cost ten
	// times as much.
	perEntry := func(n int) time.Duration {
		dup := dupTable(t, n)
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			if _, err := DecodeArtifact(dup); err == nil || !strings.Contains(err.Error(), "duplicate domain map") {
				t.Fatalf("%d entries: %v", n, err)
			}
			best = min(best, time.Since(start))
		}
		return best / time.Duration(n)
	}
	small, large := perEntry(2_000), perEntry(20_000)
	t.Logf("per table entry: %v at 2,000, %v at 20,000", small, large)
	if large > 3*small {
		t.Errorf("rejecting a duplicate among 20,000 entries takes %v per entry, among 2,000 %v: not linear", large, small)
	}
}

// checkRejected checks that the decoder rejects data with message at
// offset at.
func checkRejected(t *testing.T, name string, data []byte, at int, message string) {
	t.Helper()
	_, err := DecodeArtifact(data)
	if err == nil {
		t.Errorf("%s: accepted", name)
		return
	}
	if !strings.Contains(err.Error(), message) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d:", at)) {
		t.Errorf("%s: rejected with %q, want %q at offset %d", name, err, message, at)
	}
}

// bombBytes spells bombArtifact(n) with the encoder's own budget out of
// the way: the same bytes with the trace cut to one event, then the
// event repeated.
func bombBytes(t *testing.T, n int) []byte {
	t.Helper()
	one, err := EncodeArtifact(bombArtifact(1))
	if err != nil {
		t.Fatal(err)
	}
	ev := `{"ds":"a","method":"b","outcome":{"label":"","results":0,"constraints":0},"args":0}`
	if !bytes.Contains(one, []byte(ev)) {
		t.Fatalf("bomb event not spelled as expected: %s", one)
	}
	return bytes.Replace(one, []byte(ev), []byte(strings.Repeat(","+ev, n)[1:]), 1)
}

// dupTable is an artifact of n paths with distinct domain maps whose
// last table entry repeats the first.
func dupTable(t *testing.T, n int) []byte {
	t.Helper()
	ct := &Contract{NF: "spans", Level: "full"}
	for i := range n {
		dom := make(map[string]symb.Domain, 16)
		for k := range 15 {
			dom[fmt.Sprintf("pkt_field_%02d", k)] = symb.Domain{Lo: 0, Hi: 65535}
		}
		dom["zz"] = symb.Domain{Lo: 0, Hi: uint64(i)}
		ct.Paths = append(ct.Paths, &PathContract{ID: i, Action: nfir.ActionDrop, Domains: dom})
	}
	data, err := EncodeArtifact(&Artifact{Contract: ct})
	if err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf(`"zz":{"lo":0,"hi":%d}}]`, n-1)
	if !bytes.Contains(data, []byte(last)) {
		t.Fatalf("last domain entry not found")
	}
	return bytes.Replace(data, []byte(last), []byte(`"zz":{"lo":0,"hi":0}}]`), 1)
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
	// Paths that name table entries more than once, so mutations land in
	// entries and indices several paths share.
	repeated, err := EncodeArtifact(repeatedArtifact())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(repeated)
	f.Add(bytes.Replace(repeated, []byte(`"hi":64`), []byte(`"hi":65`), 1))
	f.Add(bytes.Replace(repeated, []byte(`"op":"=="`), []byte(`"op":"!="`), 1))
	// Versions 1 and 2 are retired: their goldens must be refused.
	for _, name := range []string{"artifact_v1.golden.json", "artifact_v2.golden.json"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	f.Add(bytes.Replace(valid, []byte(`"version":3`), []byte(`"version":2`), 1))
	f.Add([]byte(`{"format":"gobolt-contract","version":1,"contract":{"nf":"m","level":"","paths":[]}}`))
	f.Add([]byte(`{"format":"gobolt-contract","version":9,"contract":null}`))
	f.Add(valid[:len(valid)/3])
	f.Add(bytes.ToUpper(valid))
	// Table references: out of range, ahead of first use, an entry
	// repeated, an entry unreferenced, terms reversed, and a bomb.
	for _, m := range [][2]string{
		{`"pcv_ranges":1`, `"pcv_ranges":2`},
		{`"domains":0`, `"domains":1`},
		{`"monos":["","c"`, `"monos":["","",`},
		{`"polys":[{"":3,"c":1}]`, `"polys":[{"":3,"c":1},{"":4}]`},
		{`[[0,4100],[2,11]]`, `[[2,11],[0,4100]]`},
		{`"shared_ma":0`, `"shared_ma":0,"shard_analysed":true,"shared_ma":0`},
	} {
		f.Add(bytes.Replace(repeated, []byte(m[0]), []byte(m[1]), 1))
	}
	bomb, err := EncodeArtifact(bombArtifact(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bomb)
	f.Add(bytes.Replace(bomb, []byte(`"args":0}]`), []byte(`"args":0},{"ds":"a","method":"b","outcome":{"label":"","results":0,"constraints":0},"args":0}]`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data)
		// A version-3 input is accepted exactly when it is the encoding of
		// what the lenient reflection reader makes of it.
		want, canonical := canonicalV3(data)
		if (err == nil) != canonical {
			t.Fatalf("decoder says %v, but canonical = %v", err, canonical)
		}
		if err != nil {
			return // rejected is always a fine outcome for fuzz input
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("decoder and lenient oracle built different artifacts from %q", data)
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
