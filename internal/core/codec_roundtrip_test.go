package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/experiments"
	"gobolt/internal/store"
)

// sameAsOracle checks the hand-written encoder against the reflection
// codec it replaced: identical bytes for the same artifact.
func sameAsOracle(t *testing.T, what string, a *core.Artifact, data []byte) {
	t.Helper()
	want, err := core.OracleEncode(a)
	if err != nil {
		t.Fatalf("%s: oracle encode: %v", what, err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: encoder and oracle disagree (%d vs %d bytes)", what, len(data), len(want))
	}
}

// TestCodecRoundTripFigure1 round-trips every Figure-1 scenario contract
// through the artifact codec: all fourteen classes across NAT, bridge,
// load balancer, and LPM router, at full-stack level with real traces,
// witnesses, and polynomial costs.
func TestCodecRoundTripFigure1(t *testing.T) {
	scens, err := experiments.Scenarios(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 14 {
		t.Fatalf("expected the 14 Figure-1 scenarios, got %d", len(scens))
	}
	for _, s := range scens {
		data, err := core.EncodeArtifact(&core.Artifact{Contract: s.Contract})
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		sameAsOracle(t, s.Name, &core.Artifact{Contract: s.Contract}, data)
		got, err := core.DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		re, err := core.EncodeArtifact(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("%s: decode∘encode is not the identity", s.Name)
		}
		// The decoded contract must be indistinguishable from the
		// original through the legacy summary export too (this is the
		// byte-identity gate chainbench applies to composed contracts).
		want, err := json.Marshal(s.Contract)
		if err != nil {
			t.Fatal(err)
		}
		have, err := json.Marshal(got.Contract)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Fatalf("%s: decoded contract diverges in summary export", s.Name)
		}
	}
}

// TestCodecRoundTripRawPaths regenerates one NF with its raw symbolic
// paths and round-trips contract AND paths — the cache-entry form the
// disk store persists so chain composition can extend stored prefixes.
func TestCodecRoundTripRawPaths(t *testing.T) {
	sc := experiments.QuickScale()
	stages, _, err := experiments.ChainBenchStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Generator()
	for _, stage := range stages[:3] {
		ct, paths, err := g.GenerateWithPaths(stage.Prog, stage.Models)
		if err != nil {
			t.Fatalf("%s: generate: %v", stage.Prog.Name, err)
		}
		data, err := core.EncodeArtifact(&core.Artifact{Key: "", Contract: ct, Paths: paths})
		if err != nil {
			t.Fatalf("%s: encode: %v", stage.Prog.Name, err)
		}
		sameAsOracle(t, stage.Prog.Name, &core.Artifact{Contract: ct, Paths: paths}, data)
		got, err := core.DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", stage.Prog.Name, err)
		}
		if len(got.Paths) != len(paths) {
			t.Fatalf("%s: %d raw paths decoded, want %d", stage.Prog.Name, len(got.Paths), len(paths))
		}
		for i, rp := range got.Paths {
			orig := paths[i]
			if rp.Session != nil {
				t.Fatalf("%s: decoded path %d carries a solver session", stage.Prog.Name, i)
			}
			// Sessions are runtime-only and never serialized, and the
			// codec collapses empty maps to nil on fields only their
			// length is ever observed for — normalize a copy of the
			// original the same way before the deep compare.
			cp := *orig
			cp.Session = nil
			if len(cp.Domains) == 0 {
				cp.Domains = nil
			}
			if len(cp.Ops) == 0 {
				cp.Ops = nil
			}
			if len(cp.PCVRanges) == 0 {
				cp.PCVRanges = nil
			}
			if len(cp.PktWrites) == 0 {
				cp.PktWrites = nil
			}
			if len(cp.Constraints) == 0 {
				cp.Constraints = nil
			}
			if len(cp.Events) == 0 {
				cp.Events = nil
			}
			if len(cp.Accesses) == 0 {
				cp.Accesses = nil
			}
			if !reflect.DeepEqual(&cp, rp) {
				t.Fatalf("%s: raw path %d diverged across round trip:\n  orig: %+v\n  dec:  %+v", stage.Prog.Name, i, &cp, rp)
			}
		}
		re, err := core.EncodeArtifact(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", stage.Prog.Name, err)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("%s: decode∘encode is not the identity", stage.Prog.Name)
		}
	}
}

// TestCodecRoundTripComposedChain round-trips a composed 4-stage chain
// contract — the deepest artifact shape, with namespaced symbols, merged
// traces, and coalesced guards.
func TestCodecRoundTripComposedChain(t *testing.T) {
	sc := experiments.QuickScale()
	stages, _, err := experiments.ChainBenchStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Generator()
	ct, _, err := core.ComposeManyStats(context.Background(), g, stages[:4])
	if err != nil {
		t.Fatal(err)
	}
	data, err := core.EncodeArtifact(&core.Artifact{Contract: ct})
	if err != nil {
		t.Fatalf("encode composed chain: %v", err)
	}
	sameAsOracle(t, "composed chain", &core.Artifact{Contract: ct}, data)
	got, err := core.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode composed chain: %v", err)
	}
	want, _ := json.Marshal(ct)
	have, _ := json.Marshal(got.Contract)
	if !bytes.Equal(want, have) {
		t.Fatalf("composed chain diverges in summary export after round trip")
	}
	re, err := core.EncodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("decode∘encode is not the identity on the composed chain")
	}
}

// composeChain composes the 4-stage chain on a fresh serial generator
// over cache, as a restarted process would.
func composeChain(t testing.TB, stages []core.ChainStage, cache *core.ContractCache) *core.Contract {
	t.Helper()
	g := experiments.QuickScale().Generator()
	g.Parallelism = 1
	g.Cache = cache
	ct, _, err := core.ComposeManyStats(context.Background(), g, stages)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// chainStore composes the 4-stage chain cold over an empty store and
// returns the stages and the populated store: four stage artifacts and
// three fold prefixes, the last of them the 582-path composite with its
// raw paths — the object a warm restart reads.
func chainStore(t testing.TB) ([]core.ChainStage, *store.Store) {
	t.Helper()
	stages, _, err := experiments.ChainBenchStages(experiments.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewContractCache()
	cache.AttachDisk(s)
	composeChain(t, stages[:4], cache)
	if ts := cache.TierStats(); ts.DiskErrs != 0 {
		t.Fatalf("populating the store: %d disk errors", ts.DiskErrs)
	}
	return stages[:4], s
}

// TestCodecStoredChainObjects checks every object a composed chain
// leaves in the store, as stored: both decoders build the same artifact
// from it, and both encoders give the stored bytes back.
func TestCodecStoredChainObjects(t *testing.T) {
	_, s := chainStore(t)
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("store holds %d objects, want 4 stages + 3 fold prefixes", len(entries))
	}
	composite := false
	for _, e := range entries {
		payload, err := s.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.DecodeArtifact(payload)
		if err != nil {
			t.Fatalf("%.12s: %v", e.Key, err)
		}
		want, err := core.OracleDecode(payload)
		if err != nil || !reflect.DeepEqual(a, want) {
			t.Fatalf("%.12s: decoder and oracle disagree (oracle err %v)", e.Key, err)
		}
		re, err := core.EncodeArtifact(a)
		if err != nil || !bytes.Equal(re, payload) {
			t.Fatalf("%.12s: stored bytes are not their own encoding (%v)", e.Key, err)
		}
		sameAsOracle(t, e.Key[:12], a, payload)
		if len(a.Contract.Paths) != 582 {
			continue
		}
		composite = true
		if len(a.Paths) != 582 {
			t.Fatalf("composite carries %d raw paths", len(a.Paths))
		}
	}
	if !composite {
		t.Fatal("no 582-path composite in the store")
	}
}

// TestWarmRestartCheaperThanCold is the point of the store in one
// comparison: composing the chain on a fresh memory tier over a
// populated store must take fewer allocations and fewer bytes than
// composing it from nothing. (Time says the same but does not repeat on
// a shared machine; go run ./bench measures it.)
func TestWarmRestartCheaperThanCold(t *testing.T) {
	stages, s := chainStore(t)
	measure := func(disk *store.Store) (mallocs, bytes uint64, ct *core.Contract) {
		cache := core.NewContractCache()
		cache.AttachDisk(disk)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ct = composeChain(t, stages, cache)
		runtime.ReadMemStats(&after)
		if ts := cache.TierStats(); disk != nil && (ts.Misses != 0 || ts.DiskHits == 0 || ts.DiskErrs != 0) {
			t.Fatalf("warm compose was not served from the store: %+v", ts)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, ct
	}
	coldN, coldB, cold := measure(nil)
	warmN, warmB, warm := measure(s)
	t.Logf("cold: %d allocations, %d bytes; warm: %d allocations, %d bytes", coldN, coldB, warmN, warmB)
	if warmN >= coldN || warmB >= coldB {
		t.Errorf("a warm restart (%d allocations, %d bytes) is not cheaper than a cold compose (%d, %d)", warmN, warmB, coldN, coldB)
	}
	want, _ := json.Marshal(cold)
	have, _ := json.Marshal(warm)
	if !bytes.Equal(want, have) {
		t.Fatal("warm and cold composites differ")
	}
}

// compositePayload returns the stored bytes of the 4-chain's 582-path
// composite, the one object a warm restart decodes (and the largest in
// the store).
func compositePayload(t testing.TB) []byte {
	t.Helper()
	_, s := chainStore(t)
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	largest := entries[0]
	for _, e := range entries {
		if e.Size > largest.Size {
			largest = e
		}
	}
	payload, err := s.Get(largest.Key)
	if err != nil {
		t.Fatal(err)
	}
	if largest.Meta.Paths != 582 {
		t.Fatalf("largest stored object has %d paths, want the 582-path composite", largest.Meta.Paths)
	}
	return payload
}

func BenchmarkDecodeComposite(b *testing.B) {
	payload := compositePayload(b)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.DecodeArtifact(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmDecodeAllocations pins what decoding the composite a warm
// restart reads costs, in a count that repeats where a time does not.
// Interning and hash-consing took it from 1.39 M allocations to 29 k;
// the span memo, which builds each repeated constraint list, domain
// map, PCV-range map, shared-MA polynomial and packet-write map once,
// takes it to about 11.5 k.
func TestWarmDecodeAllocations(t *testing.T) {
	payload := compositePayload(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.DecodeArtifact(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("composite: %d bytes, %.0f allocations to decode", len(payload), allocs)
	if allocs > 18_000 {
		t.Errorf("decoding the composite takes %.0f allocations, want <= 18000", allocs)
	}
}

// fieldSpans maps each field of a canonical artifact, by its path with
// list indices written as "*" (for example "contract.paths.*.domains"),
// to the byte spans of its values, in input order.
func fieldSpans(b []byte) map[string][][2]int {
	out := map[string][][2]int{}
	var walk func(i int, at string) int
	walk = func(i int, at string) int {
		start := i
		switch b[i] {
		case '{':
			for i++; b[i] != '}'; {
				if b[i] == ',' {
					i++
				}
				k := i
				i = walk(i, "") + 1 // the key, then its colon
				i = walk(i, strings.TrimPrefix(at+"."+string(b[k+1:i-2]), "."))
			}
			i++
		case '[':
			for i++; b[i] != ']'; {
				if b[i] == ',' {
					i++
				}
				i = walk(i, at+".*")
			}
			i++
		case '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			i++
		default:
			for strings.IndexByte(",]}", b[i]) < 0 {
				i++
			}
		}
		if at != "" {
			out[at] = append(out[at], [2]int{start, i})
		}
		return i
	}
	walk(0, "")
	return out
}

// spanMutation changes one byte of a memoised field's value v, returning
// the offset and the new byte, or ok == false when v has nothing to
// change of its kind.
type spanMutation func(v []byte) (off int, c byte, ok bool)

// lastAfter returns the offset just after the last marker in v.
func lastAfter(v []byte, marker string) (int, bool) {
	i := bytes.LastIndex(v, []byte(marker))
	return i + len(marker), i >= 0
}

// objectKeys returns the offsets of the first bytes of v's top-level
// object keys (v being a flat object of objects or numbers).
func objectKeys(v []byte) []int {
	var keys []int
	depth := 0
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c == '"':
			if depth == 1 && (v[i-1] == '{' || v[i-1] == ',') {
				keys = append(keys, i+1)
			}
			for i++; v[i] != '"'; i++ {
				if v[i] == '\\' {
					i++
				}
			}
		}
	}
	return keys
}

var hostileMutations = map[string]spanMutation{
	// A field name in the schema, or a monomial that stops being one.
	"changed key": func(v []byte) (int, byte, bool) {
		for _, m := range []string{`"hi":`, `"val":`, `"k":`} {
			if i, ok := lastAfter(v, m); ok {
				return i - 3, 'x', true // the name's last letter
			}
		}
		if keys := objectKeys(v); len(keys) > 0 && v[keys[len(keys)-1]] != '"' { // a monomial
			return keys[len(keys)-1], '*', true
		}
		return 0, 0, false
	},
	// The last multi-digit number, with a leading zero.
	"changed bound": func(v []byte) (int, byte, bool) {
		for i := len(v) - 2; i > 0; i-- {
			if isDigit(v[i]) && isDigit(v[i+1]) && !isDigit(v[i-1]) {
				return i, '0', true
			}
		}
		return 0, 0, false
	},
	// An object's last key moved before the one ahead of it.
	"out-of-order key": func(v []byte) (int, byte, bool) {
		keys := objectKeys(v)
		if n := len(keys); v[0] == '{' && n >= 2 && v[keys[n-2]] > '!' && v[keys[n-2]] != '"' {
			return keys[n-1], '!', true
		}
		return 0, 0, false
	},
	"changed operator": func(v []byte) (int, byte, bool) {
		i, ok := lastAfter(v, `"op":"`)
		return i, '?', ok
	},
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// TestCodecHostileRepeats corrupts one byte inside a later repeat of a
// span the decoder has already accepted and memoised, at every memoised
// field of the composite: a changed key, a bound spelled with a leading
// zero, a key out of order, an unknown operator. Both decoders must
// reject every one; a memo that matched candidates by prefix or by
// length would not. Then it makes the one-byte change valid: both
// decoders must accept it and build the same artifact, so the repeat
// decodes to its own value, not the memoised one.
func TestCodecHostileRepeats(t *testing.T) {
	payload := compositePayload(t)
	fields := fieldSpans(payload)
	sites := []string{
		"contract.paths.*.constraints",
		"contract.paths.*.domains",
		"contract.paths.*.pcv_ranges",
		"contract.paths.*.shared_ma",
		"raw_paths.*.constraints",
		"raw_paths.*.domains",
		"raw_paths.*.pkt_writes",
	}
	kinds := map[string]int{}
	for _, site := range sites {
		spans := fields[site]
		// The span spelled most often: its first occurrence is stored, and
		// its last is a repeat the decoder finds in the memo.
		count := map[string]int{}
		var most string
		for _, sp := range spans {
			v := string(payload[sp[0]:sp[1]])
			if count[v]++; count[v] > count[most] {
				most = v
			}
		}
		if count[most] < 2 {
			t.Fatalf("%s: no span repeats among %d", site, len(spans))
		}
		var last [2]int
		for _, sp := range spans {
			if string(payload[sp[0]:sp[1]]) == most {
				last = sp
			}
		}
		applied := 0
		for kind, mutate := range hostileMutations {
			off, c, ok := mutate([]byte(most))
			if !ok {
				continue
			}
			applied++
			kinds[kind]++
			bad := bytes.Clone(payload)
			bad[last[0]+off] = c
			if _, err := core.DecodeArtifact(bad); err == nil {
				t.Errorf("%s, %s: the decoder accepted a corrupted repeat", site, kind)
			}
			if _, err := core.OracleDecode(bad); err == nil {
				t.Errorf("%s, %s: the oracle accepted a corrupted repeat", site, kind)
			}
		}
		if applied == 0 {
			t.Errorf("%s: no mutation applies to %.80s", site, most)
		}

		// The same repeat with its last digit changed is canonical.
		i := strings.LastIndexFunc(most, func(r rune) bool { return r >= '0' && r <= '9' })
		if i < 0 {
			continue
		}
		edited := bytes.Clone(payload)
		edited[last[0]+i] = '0' + (most[i]-'0'+1)%10
		if edited[last[0]+i] == '0' && !isDigit(edited[last[0]+i-1]) {
			edited[last[0]+i] = '2' // 9 -> 0 would be fine too, unless it is a leading digit
		}
		a, err := core.DecodeArtifact(edited)
		oa, oerr := core.OracleDecode(edited)
		if err != nil || oerr != nil {
			t.Fatalf("%s: a canonical edit of a repeat was rejected: decoder %v, oracle %v", site, err, oerr)
		}
		if !reflect.DeepEqual(a, oa) {
			t.Fatalf("%s: an edited repeat decoded to something other than its own value", site)
		}
	}
	for kind := range hostileMutations {
		if kinds[kind] == 0 {
			t.Errorf("%s: applied at no memoised field", kind)
		}
	}
	t.Logf("mutations applied per kind: %v", kinds)
}
