package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// This file pins the hand-written decoder's accept set: over the golden
// artifacts and some tens of thousands of structured mutations of them,
// it accepts an input exactly when the input is the encoding of what the
// lenient reflection reader (codec_oracle_test.go) makes of it, and then
// builds a reflect.DeepEqual structure.

// jsonSpans indexes a valid JSON document: every value's byte span, and
// for every object the spans of its members (key through value).
type jsonSpans struct {
	values  [][2]int
	objects [][][2]int
}

// scan walks the value starting at b[i] and returns the offset after it.
func (t *jsonSpans) scan(b []byte, i int) int {
	start := i
	switch b[i] {
	case '{':
		var members [][2]int
		for i++; b[i] != '}'; {
			if b[i] == ',' {
				i++
			}
			m := i
			i = t.scan(b, i) // key
			i = t.scan(b, i+1)
			members = append(members, [2]int{m, i})
		}
		i++
		t.objects = append(t.objects, members)
	case '[':
		for i++; b[i] != ']'; {
			if b[i] == ',' {
				i++
			}
			i = t.scan(b, i)
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
	t.values = append(t.values, [2]int{start, i})
	return i
}

func splice(b []byte, s, e int, with string) []byte {
	return append(append(append([]byte{}, b[:s]...), with...), b[e:]...)
}

// byteMutants derives the byte-level mutations of one valid artifact:
// flips, structural bytes in the wrong place, stray whitespace and
// truncation, at every offset.
func byteMutants(doc []byte, emit func(string, []byte)) {
	for i := range doc {
		for _, x := range []byte{0x01, 0x20, 0x80} {
			m := append([]byte{}, doc...)
			m[i] ^= x
			emit("flip", m)
		}
		for _, c := range []string{`"`, `\`, `7`, `,`, `}`} {
			emit("poke", splice(doc, i, i+1, c))
		}
		emit("space", splice(doc, i, i, " "))
		emit("newline", splice(doc, i, i, "\n"))
		emit("truncate", doc[:i])
	}
}

// mutants derives the structured mutations of one valid artifact.
func mutants(doc []byte, emit func(string, []byte)) {
	var t jsonSpans
	t.scan(doc, 0)
	// Object level: swapped, duplicated, dropped and reversed members —
	// which is also how map keys get unsorted and optional fields vanish.
	for _, ms := range t.objects {
		for j, m := range ms {
			member := string(doc[m[0]:m[1]])
			emit("duplicate", splice(doc, m[1], m[1], ","+member))
			switch {
			case len(ms) == 1:
				emit("drop", splice(doc, m[0], m[1], ""))
			case j == 0:
				emit("drop", splice(doc, m[0], ms[1][0], ""))
			default:
				emit("drop", splice(doc, ms[j-1][1], m[1], ""))
			}
			if j > 0 {
				p := ms[j-1]
				emit("swap", splice(doc, p[0], m[1], member+","+string(doc[p[0]:p[1]])))
			}
		}
		if len(ms) > 2 {
			rev := make([]string, len(ms))
			for j, m := range ms {
				rev[len(ms)-1-j] = string(doc[m[0]:m[1]])
			}
			emit("reverse", splice(doc, ms[0][0], ms[len(ms)-1][1], strings.Join(rev, ",")))
		}
	}
	// Value level: zero values where omission is canonical, wrong types,
	// and every non-canonical spelling of a number or a string.
	for _, v := range t.values {
		s, e := v[0], v[1]
		val := string(doc[s:e])
		for _, with := range []string{`null`, `[]`, `{}`, `0`, `""`, `true`, `false`, `[null]`, `{"k":"c","v":0}`} {
			emit("retype", splice(doc, s, e, with))
		}
		switch {
		case val[0] >= '0' && val[0] <= '9':
			for _, with := range []string{"0" + val, val + ".0", val + "e0", "1e3", "-" + val, "+" + val, "-0", val + "0", "18446744073709551616"} {
				emit("number", splice(doc, s, e, with))
			}
		case val[0] == '"' && len(val) > 2:
			c := val[1]
			emit("escape", splice(doc, s+1, s+2, fmt.Sprintf(`\u%04x`, c)))
			emit("escape", splice(doc, s+1, s+2, fmt.Sprintf(`\u%04X`, c)))
			emit("escape", splice(doc, s+1, s+1, `\/`))
			emit("escape", splice(doc, s+1, s+1, "\u2028"))
			emit("escape", splice(doc, s+1, s+1, `\u2028`))
			emit("escape", splice(doc, s+1, s+1, "\xff"))
			emit("escape", splice(doc, s+1, s+1, `\ufffd`))
			emit("escape", splice(doc, s+1, s+1, "\ufffd\t"))
			emit("escape", splice(doc, s+1, s+1, `\t\u001f\u007f<`))
			emit("escape", splice(doc, s+1, s+1, `\t\u001f`+"\x7fé"))
			emit("escape", []byte(strings.Replace(string(doc), `\u003c`, `\u003C`, 1)))
			emit("escape", []byte(strings.Replace(string(doc), `\u003c`, `<`, 1)))
		}
	}
}

func TestCodecDecodeMatchesOracle(t *testing.T) {
	var docs [][]byte
	for _, name := range []string{
		"testdata/artifact_v3.golden.json",
		"testdata/artifact_v2.golden.json",
		"testdata/artifact_v1.golden.json",
		"../../cmd/bolt/testdata/example_lpm_artifact.golden.json",
	} {
		doc, err := os.ReadFile(filepath.FromSlash(name))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	minimal, err := EncodeArtifact(&Artifact{Contract: &Contract{NF: "m", Level: "full", Paths: []*PathContract{{ID: -3}}}})
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, minimal)

	total, accepted := 0, 0
	kinds := map[string]int{}
	check := func(kind string, data []byte) {
		total++
		a, err := DecodeArtifact(data)
		want, canonical := canonicalV3(data)
		if (err == nil) != canonical {
			t.Fatalf("%s: decoder says %v, but canonical = %v, on %q", kind, err, canonical, data)
		}
		if err != nil {
			return
		}
		accepted++
		kinds[kind]++
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("%s: decoder and lenient oracle built different artifacts from %q", kind, data)
		}
		re, err := EncodeArtifact(a)
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("%s: accepted input is not its own encoding (%v): %q", kind, err, data)
		}
	}
	for i, doc := range docs {
		check("golden", doc)
		mutants(doc, check)
		if i == 0 || len(doc) < 200 { // one full artifact, one tiny
			byteMutants(doc, check)
		}
	}
	if total < 10000 || accepted < 500 {
		t.Fatalf("%d mutants, %d accepted: the differential is too thin to mean anything", total, accepted)
	}
	t.Logf("%d inputs, %d accepted (%v), each exactly when canonical", total, accepted, kinds)
}

// TestCodecNestingLimitMatchesOracle walks a chain of Not nodes across
// the nesting limit at every kind of position an expression can occupy
// — an expression-list entry, a packet write's value, a raw path's port
// — at its own nesting level: the decoder counts objects and arrays from
// the outermost brace as encoding/json, under the lenient reader, does.
func TestCodecNestingLimitMatchesOracle(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("testdata", "artifact_v3.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{`"exprs":[[`, `"port":`, `"val":`} {
		at := bytes.Index(doc, []byte(site))
		if at < 0 {
			t.Fatalf("%s: not in the golden", site)
		}
		at += len(site)
		limit := 0
		for depth := maxExprDepth - 12; depth <= maxExprDepth; depth++ {
			deep := strings.Repeat(`{"k":"n","x":`, depth) + `{"k":"c"}` + strings.Repeat(`}`, depth)
			var data []byte
			if strings.HasSuffix(site, "[") {
				data = splice(doc, at, at, deep+",")
			} else {
				var v jsonSpans
				data = splice(doc, at, v.scan(doc, at), deep)
			}
			_, err := DecodeArtifact(data)
			if _, canonical := canonicalV3(data); (err == nil) != canonical {
				t.Fatalf("%s, %d nested nodes: decoder says %v, but canonical = %v", site, depth, err, canonical)
			}
			if err == nil {
				limit = depth
			}
		}
		if limit == 0 || limit == maxExprDepth {
			t.Fatalf("%s: the sweep did not cross the limit (deepest accepted %d)", site, limit)
		}
	}
}

// TestCodecRejectsNullPaths is the regression test for the one bug the
// differential found in the old reflection codec: a null element in
// "paths" or "raw_paths" was a nil-pointer panic, on bytes any store file
// or `boltctl import` argument could carry.
func TestCodecRejectsNullPaths(t *testing.T) {
	for _, data := range []string{
		`{"format":"gobolt-contract","version":3,"contract":{"nf":"m","level":"","paths":[null]}}`,
		`{"format":"gobolt-contract","version":3,"contract":{"nf":"m","level":"","paths":[{"id":0,"action":"drop","witness":null}]},"raw_paths":[null]}`,
	} {
		if _, err := DecodeArtifact([]byte(data)); err == nil {
			t.Errorf("accepted %s", data)
		}
		if _, err := lenientDecode([]byte(data)); err == nil {
			t.Errorf("the lenient reader accepted %s", data)
		}
	}
}
