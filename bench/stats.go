package main

import (
	"math"
	"sort"
)

// fastestN is how many passes op_us averages. One minimum is lucky
// scheduling on the two-thread workload; the mean of the five fastest
// is the steadiest figure a window yields (README, "Noise study").
const fastestN = 5

// fastestMean is the mean of the n smallest samples (all of them when
// there are fewer). Interference on a shared box only ever adds time,
// so the fast end of the distribution is the part that repeats.
func fastestMean(samples []float64, n int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n > len(s) {
		n = len(s)
	}
	sum := 0.0
	for _, v := range s[:n] {
		sum += v
	}
	return sum / float64(n)
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond
// samples beyond it, and that percentile (0–100). With n samples that
// is the (n−tailBeyond)th smallest, i.e. percentile 100·(n−10)/n; with
// too few samples for any percentile to qualify it is the median.
func tail(samples []float64) (value, percentile float64) {
	n := len(samples)
	if n <= 2*tailBeyond {
		return median(samples), 50
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}
