package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestArrivalsSeeded(t *testing.T) {
	a := newArrivals(rand.New(rand.NewSource(7)), 1500)
	b := newArrivals(rand.New(rand.NewSource(7)), 1500)
	c := newArrivals(rand.New(rand.NewSource(8)), 1500)
	same := true
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("arrival %d: %v vs %v with the same seed", i, x, y)
		}
		same = same && x == z
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestArrivalsRateAndOrder(t *testing.T) {
	const rate, n = 1500.0, 200000
	a := newArrivals(rand.New(rand.NewSource(1)), rate)
	prev := time.Duration(0)
	for i := 0; i < n; i++ {
		at := a.next()
		if at < prev {
			t.Fatalf("arrival %d at %v before %v", i, at, prev)
		}
		prev = at
	}
	// Mean gap 1/rate; the sum of n exponential gaps has relative sd
	// 1/sqrt(n) ≈ 0.2%, so 1% is a loose bound.
	got := float64(n) / prev.Seconds()
	if math.Abs(got-rate)/rate > 0.01 {
		t.Errorf("realized rate %.1f/s, want %.0f/s", got, rate)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("late send: %v", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send: %v, want 0", got)
	}
}
