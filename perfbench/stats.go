package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is one or two unlucky requests, not a
// distribution.
const minBeyond = 10

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	return sortedScaled(ds, time.Millisecond)
}

// sortedScaled converts durations to sorted values in the given unit.
func sortedScaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// rank is the 1-based nearest-rank position of quantile p in n samples:
// the smallest rank whose cumulative share reaches p.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns the p-quantile of sorted samples by nearest rank
// (0 for no samples). Use it for medians and bulk statistics; tails go
// through tailPercentile.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentile returns the nearest-rank p-quantile only when at least
// minBeyond samples lie above its rank: p99 needs 1000 samples.
func tailPercentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := rank(n, p)
	if n-r < minBeyond {
		return 0, false
	}
	return sorted[r-1], true
}

// latencyTail is the highest percentile the sample supports, capped at
// p99: the p99 when there are at least 1000 samples, otherwise the
// sample with exactly minBeyond samples above it. It returns the value
// and the quantile it stands for. With minBeyond or fewer samples it
// falls back to the maximum.
func latencyTail(sorted []float64) (float64, float64) {
	if v, ok := tailPercentile(sorted, 0.99); ok {
		return v, 0.99
	}
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= minBeyond {
		return sorted[n-1], 1
	}
	r := n - minBeyond
	return sorted[r-1], float64(r) / float64(n)
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the nearest-rank median of unsorted values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sliceRates splits [start, start+length) into n equal slices and
// returns each slice's events per second, placing each event at its time
// in times; events outside the interval are dropped.
func sliceRates(times []time.Time, start time.Time, length time.Duration, n int) []float64 {
	counts := make([]int, n)
	for _, t := range times {
		off := t.Sub(start)
		if off < 0 || off >= length {
			continue
		}
		counts[int(int64(off)*int64(n)/int64(length))]++
	}
	per := length.Seconds() / float64(n)
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / per
	}
	return rates
}
