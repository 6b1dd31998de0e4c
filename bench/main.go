// Command bench is GoBolt's benchmark: six workloads over the datapath
// (packets through a bridge, bare and monitored) and the analysis
// pipeline (a four-NF chain composed cold and from a warm store), four
// end-to-end metrics on each, and a traced run that times every layer's
// public entry point from outside. BENCHMARK.json at the repository
// root names this command; README.md in this directory is the
// catalogue.
//
//	go run ./bench                          # all six workloads
//	go run ./bench -workload dp-mon -trace 1
//	go run ./bench -selfcheck               # two sets, must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workloads string
	seed      int64
	seconds   float64
	setupReps int
	trace     int
	jsonFile  string
	out       string
	selfcheck bool
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setups holds each workload's full set-up sequence — what setup_s
// times — from nothing to the live state the passes run against.
// BENCHMARK.json lists the same names, in running order, each with the
// reason it was chosen.
var setups = map[string]func(options) (runner, error){
	"dp-bare":       dpShape{}.setup,
	"dp-mon":        dpShape{monitored: true}.setup,
	"dp-mon-shard2": dpShape{monitored: true, shards: 2}.setup,
	"dp-mon-churn":  dpShape{monitored: true, churn: true}.setup,
	"an-cold":       setupCold,
	"an-warm":       setupWarm,
}

// tracePasses is the length of the traced run. It is fixed: every
// per-layer time is the mean of the fastest five of these, so figures
// taken with another count would not compare. A test shortens it.
var tracePasses = 20

// result is one workload's run.
type result struct {
	Workload       string             `json:"workload"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	TailPercentile float64            `json:"tail_percentile"`
	TraceFile      string             `json:"trace_file,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
}

func runWorkload(name string, o options) (result, error) {
	res := result{Workload: name, Metrics: make(map[string]float64)}
	r, first, setup, err := setUp(name, o)
	if err != nil {
		return res, err
	}
	defer r.Close()
	if err := r.Guard(); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	measure(r, o.window()/10) // caches fill, arenas reach steady size
	runtime.GC()
	win := measure(r, o.window())
	if len(win.perOpUS) == 0 {
		return res, fmt.Errorf("%s: no pass completed", name)
	}
	res.Attempted, res.Failed = win.ops, win.failed+r.Finish()
	passes := len(win.perOpUS)

	m := res.Metrics
	m["op_us"] = fastestMean(win.perOpUS, fastestN)
	m["alloc_bytes_per_op"] = float64(win.allocBytes) / float64(win.ops)
	m["allocs_per_op"] = float64(win.allocObj) / float64(win.ops)
	m["setup_s"] = setup
	m["harness.op_p50_us"] = median(win.perOpUS)
	m["harness.op_tail_us"], res.TailPercentile = tail(win.perOpUS)
	m["harness.passes"] = float64(passes)
	m["harness.setup_first_s"] = first

	if o.trace != 0 {
		tr := newTracer()
		if err := r.Trace(tr, tracePasses, m); err != nil {
			return res, fmt.Errorf("%s: traced run: %w", name, err)
		}
		opsPerPass := float64(win.ops / passes)
		traced, bare := tr.layer("op", tracePasses, 1)/opsPerPass, fastestMean(tr.bareNS, fastestN)/opsPerPass
		m["harness.trace_overhead_frac"] = (traced - bare) / bare
		if res.TraceFile, err = tr.write(o.out, name); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// selected resolves -workload against the catalogue, whose order is the
// running order.
func selected(names string) ([]string, error) {
	var out []string
	if names == "" {
		for _, w := range cat.Workloads {
			out = append(out, w.Name)
		}
		return out, nil
	}
	for _, n := range strings.Split(names, ",") {
		if setups[n] == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// header records where the numbers were taken.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	SetupReps  int     `json:"setup_reps"`
}

func newHeader(o options) header {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.seconds, o.setupReps}
}

// run measures the selected workloads once and prints one line per
// metric, `workload/metric value unit`.
func run(o options, out io.Writer) ([]result, error) {
	ws, err := selected(o.workloads)
	if err != nil {
		return nil, err
	}
	var results []result
	for _, name := range ws {
		res, err := runWorkload(name, o)
		if err != nil {
			return results, err
		}
		results = append(results, res)
		fmt.Fprintf(out, "%s/ops_attempted %d count\n%s/ops_failed %d count\n", name, res.Attempted, name, res.Failed)
		// Layers off this workload's path, and without -trace 1 all but
		// the harness's account of the window, are not listed.
		for _, defs := range [][]metricDef{cat.EndToEnd, cat.PerLayer} {
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; ok {
					fmt.Fprintf(out, "%s/%s %.6g %s\n", name, d.Name, v, d.Unit)
				}
			}
		}
		if res.TraceFile != "" {
			fmt.Fprintf(out, "# %s: op_tail_us is p%.2f of %.0f passes; spans in %s\n", name, res.TailPercentile, res.Metrics["harness.passes"], res.TraceFile)
		}
	}
	return results, nil
}

// contractLine is the driver's result object: the end-to-end metrics of
// an untraced run, every per-layer metric of a traced one — a layer off
// the workload's path reads 0.
func contractLine(res result, trace int) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := cat.EndToEnd
	if trace != 0 {
		defs = cat.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	var err error
	if cat, err = loadCatalogue("BENCHMARK.json"); err != nil {
		fatal(err)
	}
	var o options
	flag.StringVar(&o.workloads, "workload", "", "comma-separated workload names (default: all of BENCHMARK.json's)")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed: feeds the dp-* trace generators; an-* inputs are the fixed roster")
	flag.Float64Var(&o.seconds, "seconds", float64(cat.RunSeconds), "length of each workload's timed window")
	flag.IntVar(&o.setupReps, "setup-reps", 20, "fewest fresh in-process repetitions of each set-up sequence")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.StringVar(&o.jsonFile, "json", "", "also write header and results to this file")
	flag.StringVar(&o.out, "out", "bench/out", "directory for trace files and the an-warm store")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the set twice, traced, and fail if the two disagree beyond the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.setupReps < 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	h := newHeader(o)
	fmt.Printf("# gobolt bench: nproc %d GOMAXPROCS %d %s commit %s seed %d window %gs setup-reps %d\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Seed, h.Seconds, h.SetupReps)
	if o.selfcheck {
		if err := selfcheck(o, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	results, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if o.jsonFile != "" {
		data, err := json.MarshalIndent(struct {
			Header  header   `json:"header"`
			Results []result `json:"results"`
		}{h, results}, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	ok := true
	for _, res := range results {
		ok = ok && res.Correct
	}
	if len(results) == 1 {
		line, err := contractLine(results[0], o.trace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}
