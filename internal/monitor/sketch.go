// Package monitor is the runtime half of the paper's story (§1, §5.2):
// operators hold a generated performance contract, and this package
// watches live traffic against it — classifying each packet to its
// contract path, checking the observed cost against the bound the
// contract predicts for the observed PCVs, and raising alerts when the
// predicted load approaches provisioned capacity, well before
// throughput collapses.
package monitor

import "sort"

// quantileSketch estimates a single quantile in O(1) space with the P²
// algorithm (Jain & Chlamtac, 1985): five markers track the running
// min, max, target quantile and its two neighbours, nudged towards
// their desired positions with parabolic interpolation. It is exact
// until five observations arrive and fully deterministic — the monitor
// report must be byte-stable across runs.
type quantileSketch struct {
	q     float64
	n     int
	h     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based counts)
	want  [5]float64 // desired positions
	dwant [5]float64 // desired-position increments per observation
}

func newQuantileSketch(q float64) *quantileSketch {
	s := &quantileSketch{q: q}
	s.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	s.dwant = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return s
}

// Add feeds one observation.
func (s *quantileSketch) Add(v float64) {
	if s.n < 5 {
		s.h[s.n] = v
		s.n++
		if s.n == 5 {
			sort.Float64s(s.h[:])
			for i := range s.pos {
				s.pos[i] = float64(i + 1)
			}
		}
		return
	}
	s.n++

	// Find the cell v falls into, stretching the extremes.
	var k int
	switch {
	case v < s.h[0]:
		s.h[0], k = v, 0
	case v >= s.h[4]:
		s.h[4], k = v, 3
	default:
		for k = 0; k < 3; k++ {
			if v < s.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.want {
		s.want[i] += s.dwant[i]
	}

	// Nudge the three interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			step := 1.0
			if d < 0 {
				step = -1.0
			}
			if s.h[i-1] == s.h[i] && s.h[i] == s.h[i+1] {
				// Flat neighbourhood: both interpolations add an exact
				// zero to h[i] (the position gaps are never zero), so only
				// the position moves — the steady state of a class whose
				// packets all cost the same.
				s.pos[i] += step
				continue
			}
			h := s.parabolic(i, step)
			if s.h[i-1] < h && h < s.h[i+1] {
				s.h[i] = h
			} else {
				s.h[i] = s.linear(i, step)
			}
			s.pos[i] += step
		}
	}
}

func (s *quantileSketch) parabolic(i int, d float64) float64 {
	return s.h[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.h[i+1]-s.h[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.h[i]-s.h[i-1])/(s.pos[i]-s.pos[i-1]))
}

func (s *quantileSketch) linear(i int, d float64) float64 {
	j := i + int(d)
	return s.h[i] + d*(s.h[j]-s.h[i])/(s.pos[j]-s.pos[i])
}

// Quantile reports the current estimate (exact below five samples).
func (s *quantileSketch) Quantile() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		tmp := append([]float64(nil), s.h[:s.n]...)
		sort.Float64s(tmp)
		idx := int(s.q * float64(s.n-1))
		return tmp[idx]
	}
	return s.h[2]
}

// Count reports how many observations were fed.
func (s *quantileSketch) Count() int { return s.n }

// window is a fixed-size buffer of the most recent samples, so a fired
// alert can carry the immediate history that led up to it.
type window struct {
	buf  []uint64
	next int
	full bool
}

func newWindow(size int) *window {
	if size <= 0 {
		size = 1
	}
	return &window{buf: make([]uint64, size)}
}

func (r *window) Add(v uint64) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// Snapshot returns the buffered samples oldest-first.
func (r *window) Snapshot() []uint64 {
	if !r.full {
		return append([]uint64(nil), r.buf[:r.next]...)
	}
	out := make([]uint64, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// hysteresis turns a per-packet hot/cool signal into paged/quiet state
// transitions: Trigger consecutive hot packets page, Clear consecutive
// cool packets un-page. One outlier never pages; one lull never clears.
type hysteresis struct {
	Trigger, Clear int
	hotStreak      int
	coolStreak     int
	paged          bool
}

// Observe feeds one signal; fired is true on the cool→paged transition,
// cleared on the paged→cool one.
func (h *hysteresis) Observe(hot bool) (fired, cleared bool) {
	if hot {
		h.hotStreak++
		h.coolStreak = 0
		if !h.paged && h.hotStreak >= h.Trigger {
			h.paged = true
			return true, false
		}
		return false, false
	}
	h.coolStreak++
	h.hotStreak = 0
	if h.paged && h.coolStreak >= h.Clear {
		h.paged = false
		return false, true
	}
	return false, false
}

// Paged reports whether the alert is currently raised.
func (h *hysteresis) Paged() bool { return h.paged }
