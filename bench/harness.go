package main

import (
	"fmt"
	"runtime"
	"time"
)

// runner is one set-up instance of a workload. The harness drives it in
// a closed loop from one goroutine: Prepare, Op, Check, again. Only Op
// is timed; allocations are counted over the whole window.
type runner interface {
	// Prepare readies the next pass: shift timestamps, drop caches.
	Prepare()
	// Op is the timed call — one pass.
	Op() error
	// Check inspects the pass Op just finished and reports how many
	// operations it attempted and how many of those failed.
	Check(opErr error) (ops, failed int)
	// Guard asserts the workload has the shape its name promises, so it
	// cannot silently degenerate into a different workload.
	Guard() error
	// Finish reports failures only visible over the whole run.
	Finish() (failed int)
	// Trace takes the per-layer measurements of the traced run.
	Trace(tr *tracer, passes int, m map[string]float64) error
	// Close releases what setup acquired.
	Close()
}

// window is what the timed window of one workload saw.
type window struct {
	perOpUS              []float64 // one sample per pass: wall µs ÷ ops
	ops, failed          int
	allocBytes, allocObj uint64
}

// measure runs back-to-back passes for d and records each one. The
// allocation counters are read once before and once after the window:
// runtime.ReadMemStats stops the world and empties every P's allocator
// cache, so reading it around each pass made every pass start on cold
// caches and op_us some 5–9 % slower than the same call left alone.
// What Prepare and Check allocate between passes is therefore counted
// too; they are kept allocation-light (README, "How a run goes").
func measure(r runner, d time.Duration) window {
	var w window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for start := time.Now(); time.Since(start) < d; {
		r.Prepare()
		t0 := time.Now()
		err := r.Op()
		el := time.Since(t0)
		ops, failed := r.Check(err)
		w.ops += ops
		w.failed += failed
		if ops > 0 {
			w.perOpUS = append(w.perOpUS, float64(el.Nanoseconds())/1e3/float64(ops))
		}
	}
	runtime.ReadMemStats(&m1)
	w.allocBytes, w.allocObj = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return w
}

// setUp repeats the workload's set-up sequence in this process, each
// time from nothing, and keeps the last instance for the window. It
// stops after o.setupReps repetitions once they have also filled an
// eighth of the window: a 4-ms set-up repeated ten times is 40 ms of
// evidence, and ten such minima disagreed by 30 % on a shared box. A
// forced collection before each repetition, outside the timer, clears
// the previous instance away so every repetition starts on the same
// heap (README, "Noise study"). The first repetition pays one-time
// process costs (page faults, lazy runtime initialisation) up to five
// times the steady figure, so it is reported on its own; setup_s is the
// mean of the fastest five.
func setUp(name string, o options) (r runner, first, fastest float64, err error) {
	var samples []float64
	for start := time.Now(); len(samples) < o.setupReps || time.Since(start) < o.window()/8; {
		if r != nil {
			r.Close()
			r = nil
		}
		runtime.GC()
		t0 := time.Now()
		r, err = setups[name](o)
		samples = append(samples, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	return r, samples[0], fastestMean(samples, fastestN), nil
}
