package main

import (
	"math/rand"
	"time"
)

// arrivals is a seeded Poisson arrival process: exponential gaps of mean
// 1/rate. Offsets are from the start of the window, so the schedule is a
// pure function of the seed and the rate.
type arrivals struct {
	rng  *rand.Rand
	rate float64 // per second
	at   time.Duration
}

func newArrivals(rng *rand.Rand, ratePerSec float64) *arrivals {
	return &arrivals{rng: rng, rate: ratePerSec}
}

// next returns the due offset of the next arrival.
func (a *arrivals) next() time.Duration {
	a.at += time.Duration(a.rng.ExpFloat64() / a.rate * float64(time.Second))
	return a.at
}

// lateness is how far past its due time a request was sent; a generator
// that sends early (it cannot, it sleeps until due) counts as on time.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// sleepUntil blocks until t (returns at once when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
