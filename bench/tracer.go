package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A span is one timed call into a layer, recorded from outside: the
// benchmark brackets the public function, nothing inside the program is
// instrumented. Name indexes tracer.names, Parent is the index of the
// span that caused this one (−1 at top level), Pass is the traced pass
// all spans of one repetition share, Start and End are ns since the
// tracer was made.
type span struct {
	Name, Parent, Pass int32
	Start, End         int64
}

type tracer struct {
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
	// bareNS is the wall time of each traced pass's untraced twin.
	bareNS []float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: make(map[string]int32)}
}

// name interns a layer name; hot loops resolve theirs once.
func (t *tracer) name(s string) int32 {
	id, ok := t.index[s]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, s)
		t.index[s] = id
	}
	return id
}

func (t *tracer) begin(name, parent int32, pass int) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: int32(pass)})
	i := len(t.spans) - 1
	t.spans[i].Start = int64(time.Since(t.t0))
	return int32(i)
}

func (t *tracer) end(i int32) { t.spans[i].End = int64(time.Since(t.t0)) }

// time runs f as one top-level span.
func (t *tracer) time(name string, pass int, f func()) {
	s := t.begin(t.name(name), -1, pass)
	f()
	t.end(s)
}

// op runs one pass of r twice, once inside an "op" span and once bare,
// in an order that alternates from pass to pass. The bare twins are what
// harness.trace_overhead_frac compares the traced ops with: both are
// drawn from the same seconds, so the comparison is fair where the mean
// of the fastest five is not — that statistic falls as its samples are
// spread over more time, which made 20 traced ops, each a dozen layer
// calls apart, read 4–9 % faster than 20 back-to-back passes of the
// window (README, "Noise study").
func (t *tracer) op(r runner, pass int) error {
	for k := 0; k < 2; k++ {
		r.Prepare()
		var err error
		if k == pass%2 {
			t0 := time.Now()
			err = r.Op()
			t.bareNS = append(t.bareNS, float64(time.Since(t0)))
		} else {
			t.time("op", pass, func() { err = r.Op() })
		}
		if _, failed := r.Check(err); failed > 0 {
			return fmt.Errorf("traced pass %d: %d operations failed (%v)", pass, failed, err)
		}
	}
	return nil
}

// selfNS sums, per pass, the self time of every span called name: its
// duration minus what its direct children cover.
func (t *tracer) selfNS(name string, passes int) []float64 {
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	out := make([]float64, passes)
	for _, s := range t.spans {
		if s.Name == id {
			out[s.Pass] += float64(s.End - s.Start)
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == id {
			out[s.Pass] -= float64(s.End - s.Start)
		}
	}
	return out
}

// layer is a layer's busy time per op: the mean, over the fastest passes,
// of the layer's self time in the pass ÷ ops in the pass — the same
// statistic op_us uses, so layers and end-to-end figures compare.
func (t *tracer) layer(name string, passes, ops int) (ns float64) {
	per := t.selfNS(name, passes)
	if per == nil {
		return 0
	}
	for i := range per {
		per[i] /= float64(ops)
	}
	return fastestMean(per, fastestN)
}

// MarshalJSON writes a span as the row [name, parent, pass, start, end].
func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal([5]int64{int64(s.Name), int64(s.Parent), int64(s.Pass), s.Start, s.End})
}

// write dumps every span as one JSON object: "names" is the layer table
// and each row of "spans" is [name, parent, pass, start_ns, end_ns].
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string   `json:"workload"`
		TimeUnit string   `json:"time_unit"`
		Columns  []string `json:"columns"`
		Names    []string `json:"names"`
		Spans    []span   `json:"spans"`
	}{workload, "ns", []string{"name", "parent", "pass", "start", "end"}, t.names, t.spans})
	if err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
