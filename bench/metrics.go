package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// catalogue is BENCHMARK.json, the one place the workloads and metrics
// are written down: names, the reason for each workload, units,
// directions, bounds and the length of a window. The program reads it
// from the working directory, the repository root.
type catalogue struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share by which an end-to-end metric may worsen
	// before a change counts as a regression.
	Bound float64 `json:"bound"`
}

// exact reports whether a per-layer metric is a count the program makes,
// which must repeat bit-for-bit between runs: everything that is not a
// time and not the harness describing its own window.
func (d metricDef) exact() bool {
	return !strings.HasPrefix(d.Name, "harness.") && d.Unit != "ns" && d.Unit != "us" && d.Unit != "s"
}

var cat catalogue

func loadCatalogue(path string) (c catalogue, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("%w (run from the repository root)", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(setups) {
		return c, fmt.Errorf("%s names %d workloads, the benchmark has %d", path, len(c.Workloads), len(setups))
	}
	for _, w := range c.Workloads {
		if setups[w.Name] == nil {
			return c, fmt.Errorf("%s names workload %q, which the benchmark does not have", path, w.Name)
		}
	}
	return c, nil
}

// selfcheck measures the selected workloads twice, traced, and fails
// when the benchmark disagrees with itself: an end-to-end metric apart
// by more than its own bound, or an exact count apart at all. The two
// runs of a workload are taken back to back, as the two sides of a
// comparison should be: the box's slow spells last minutes, and sets
// taken one after the other put each pair three minutes apart.
func selfcheck(o options, out io.Writer) error {
	o.trace = 1
	names, err := selected(o.workloads)
	if err != nil {
		return err
	}
	var sets [2][]result
	for _, name := range names {
		o.workloads = name
		for i := range sets {
			fmt.Fprintf(out, "# selfcheck: %s, run %d\n", name, i+1)
			rs, err := run(o, out)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], rs...)
		}
	}
	bad := 0
	fmt.Fprintf(out, "# selfcheck: run 1 against run 2\n")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Correct || !b.Correct {
			fmt.Fprintf(out, "%s: FAIL %d and %d operations failed\n", a.Workload, a.Failed, b.Failed)
			bad++
		}
		for _, d := range cat.EndToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(out, "%s/%s %.6g vs %.6g %s: %.2f%% apart, bound %.0f%% %s\n",
				a.Workload, d.Name, x, y, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		for _, d := range cat.PerLayer {
			if x, y := a.Metrics[d.Name], b.Metrics[d.Name]; d.exact() && x != y {
				fmt.Fprintf(out, "%s/%s %v vs %v %s: exact count differs FAIL\n", a.Workload, d.Name, x, y, d.Unit)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Fprintf(out, "# selfcheck: ok — every end-to-end metric within its bound, every exact count identical\n")
	return nil
}
