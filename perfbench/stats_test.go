package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
}

// p99 needs ten samples beyond its rank: 1000 samples is the least.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 reported from 999 samples")
	}
	v, ok := tailPercentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := tailPercentile(seq(100), 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tailPercentile(seq(99), 0.9); ok {
		t.Error("p90 reported from 99 samples")
	}
}

func TestLatencyTail(t *testing.T) {
	if v, q := latencyTail(seq(2000)); v != 1980 || q != 0.99 {
		t.Errorf("tail of 2000 = %v at %v, want 1980 at 0.99", v, q)
	}
	// Below 1000 samples: the sample with exactly ten above it.
	v, q := latencyTail(seq(200))
	if v != 190 || math.Abs(q-0.95) > 1e-12 {
		t.Errorf("tail of 200 = %v at %v, want 190 at 0.95", v, q)
	}
	if v, q := latencyTail(seq(5)); v != 5 || q != 1 {
		t.Errorf("tail of 5 = %v at %v, want the maximum", v, q)
	}
}

func TestSortedScaled(t *testing.T) {
	got := sortedScaled([]time.Duration{3 * time.Millisecond, time.Millisecond}, time.Microsecond)
	if got[0] != 1000 || got[1] != 3000 {
		t.Errorf("sortedScaled = %v", got)
	}
}

func TestSliceRates(t *testing.T) {
	start := time.Unix(50, 0)
	var ev []time.Time
	// 1s window in 4 slices: 2, 0, 1 and 3 events; one before and one
	// at the end are dropped.
	for _, ms := range []int{0, 100, 600, 750, 800, 999, -1, 1000} {
		ev = append(ev, start.Add(time.Duration(ms)*time.Millisecond))
	}
	got := sliceRates(ev, start, time.Second, 4)
	want := []float64{8, 0, 4, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sliceRates = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 4 {
		t.Errorf("median %v, want 4 (nearest rank of 0,4,8,12)", m)
	}
}

func TestThroughputCountsCompletions(t *testing.T) {
	// Ten requests due in the first half of a 1 s window. The first five
	// are answered at once; the rest only after the window has ended, so
	// they do not count in it although they were all due inside it.
	start := time.Unix(50, 0)
	var o outcome
	for i := 0; i < 10; i++ {
		d := time.Millisecond
		if i >= 5 {
			d = time.Second
		}
		o.success(start.Add(time.Duration(i)*50*time.Millisecond), d)
	}
	got := sliceRates(o.doneAt, start, time.Second, 2)
	if got[0] != 10 || got[1] != 0 {
		t.Errorf("sliceRates over completions = %v, want [10 0]", got)
	}
}
