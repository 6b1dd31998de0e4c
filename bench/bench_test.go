package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestFastestMean(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 100}
	if got := fastestMean(samples, 5); got != 3 {
		t.Errorf("fastest 5 of 1..9,100: got %v, want 3", got)
	}
	if got := fastestMean([]float64{4, 2}, 5); got != 3 {
		t.Errorf("fewer samples than n: got %v, want their mean 3", got)
	}
	if samples[0] != 9 {
		t.Error("fastestMean reordered its input")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	v, p := tail(s)
	if v != 90 || p != 90 {
		t.Errorf("tail of 1..100: got %v at p%v, want 90 at p90 (91..100 lie beyond)", v, p)
	}
	// Too few passes for any percentile above the median to qualify.
	v, p = tail(s[:15])
	if v != median(s[:15]) || p != 50 {
		t.Errorf("tail of 15 samples: got %v at p%v, want the median", v, p)
	}
}

// Passes must continue one another: time strictly increasing across
// and within passes, and on the stream trace nothing ever expires.
func TestPassTimeShift(t *testing.T) {
	r, err := dpShape{}.setup(options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := r.(*dp)
	last := d.warm[len(d.warm)-1].Time
	for pass := 0; pass < 4; pass++ {
		d.Prepare()
		for i, p := range d.meas {
			if p.Time <= last {
				t.Fatalf("pass %d packet %d: time %d after %d", pass, i, p.Time, last)
			}
			last = p.Time
		}
		if ops, failed := d.Check(d.Op()); failed != 0 || ops != len(d.meas) {
			t.Fatalf("pass %d: %d of %d ops failed", pass, failed, ops)
		}
		for i, rec := range d.recs {
			if rec.PCVs["e"] != 0 {
				t.Fatalf("pass %d packet %d expired %d entries", pass, i, rec.PCVs["e"])
			}
		}
	}
}

// The tests run in bench/; the program runs at the repository root.
func TestMain(m *testing.M) {
	var err error
	if cat, err = loadCatalogue(filepath.Join("..", "BENCHMARK.json")); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// BENCHMARK.json has exactly the keys the driver's contract lists, names
// this directory, and carries the four end-to-end metrics of ISSUE 12.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c catalogue
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	var names []string
	for _, d := range c.EndToEnd {
		names = append(names, d.Name)
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if got, want := strings.Join(names, " "), "op_us alloc_bytes_per_op allocs_per_op setup_s"; got != want {
		t.Errorf("end-to-end metrics %q, want %q", got, want)
	}
	for _, w := range c.Workloads {
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// A short traced run of all six workloads prints every metric
// BENCHMARK.json names, with its unit, and fails no operation.
func TestSmokeAllWorkloads(t *testing.T) {
	var out bytes.Buffer
	defer func(n int) { tracePasses = n }(tracePasses)
	tracePasses = 2
	o := options{seed: 42, seconds: 0.2, setupReps: 2, trace: 1, out: t.TempDir()}
	results, err := run(o, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	printed := make(map[string]string) // "workload/metric" → unit
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
			if _, err := strconv.ParseFloat(f[1], 64); err != nil {
				t.Errorf("line %q: value is not a number", line)
			}
			printed[f[0]] = f[2]
		}
	}
	known := make(map[string]bool)
	for _, defs := range [][]metricDef{cat.EndToEnd, cat.PerLayer} {
		for _, d := range defs {
			known[d.Name] = true
		}
	}
	for _, res := range results {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
		for _, d := range cat.EndToEnd {
			if unit, ok := printed[res.Workload+"/"+d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s/%s: printed unit %q (printed: %v), want %q", res.Workload, d.Name, unit, ok, d.Unit)
			}
			if !(res.Metrics[d.Name] > 0) {
				t.Errorf("%s/%s = %v, want a positive number", res.Workload, d.Name, res.Metrics[d.Name])
			}
		}
		for name := range res.Metrics {
			if !known[name] {
				t.Errorf("%s/%s is measured but BENCHMARK.json does not name it, so it is never printed", res.Workload, name)
			}
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", res.Workload, err)
		}
		line, err := contractLine(res, o.trace)
		if err != nil || !json.Valid(line) {
			t.Errorf("%s: result line %q: %v", res.Workload, line, err)
		}
	}
	// A workload lists only the layers on its path; between them the six
	// cover the catalogue.
	for _, m := range cat.PerLayer {
		units := make(map[string]bool)
		for _, res := range results {
			if unit, ok := printed[res.Workload+"/"+m.Name]; ok {
				units[unit] = true
			}
		}
		if len(units) != 1 || !units[m.Unit] {
			t.Errorf("%s: printed with units %v, want %q on at least one workload", m.Name, units, m.Unit)
		}
	}
	if len(results) != len(setups) {
		t.Errorf("ran %d workloads, want %d", len(results), len(setups))
	}
}

// The benchmark must build against the API that survives ROADMAP item 3:
// none of the packages and ablation switches that item deletes.
func TestUsesOnlySurvivingAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "gobolt/internal/experiments" || p == "gobolt/internal/ring" {
				t.Errorf("%s imports %s", name, p)
			}
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, knob := range []string{"NoPool", "NoRing", "NoIncremental", "Reference", "NoJoinIndex", "Coalesce", "EncodeArtifactAt"} {
			if bytes.Contains(src, []byte(knob)) {
				t.Errorf("%s mentions %s", name, knob)
			}
		}
	}
}
