package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// liveHeapMetric is the heap marked live by the last completed GC cycle:
// what the program holds, without the garbage awaiting collection.
const liveHeapMetric = "/gc/heap/live:bytes"

// windowSlices is how many equal slices of the window the throughput and
// latency levels are taken over.
const windowSlices = 10

// window is one measured interval: it bounds the run, samples the live
// heap while open and, on a traced run, holds the CPU profile. Only
// operations started inside it count.
//
// The heap peak is the p99 of the live-heap samples: a level the program
// reaches for a hundredth of the window, not the one highest sample,
// which depends on where one GC cycle happened to fall.
type window struct {
	length time.Duration
	traced bool

	start, end time.Time
	elapsed    time.Duration
	// cpu is the process's user+system CPU time spent inside the window.
	cpu time.Duration

	prof    bytes.Buffer
	profErr error
	stop    chan struct{}
	sampler sync.WaitGroup
	heap    []float64 // live-heap samples, bytes
}

func newWindow(length time.Duration, traced bool) *window {
	return &window{length: length, traced: traced}
}

// open starts the clock, the heap sampler and (traced) the CPU profile.
func (w *window) open() {
	w.stop = make(chan struct{})
	// Room for the whole window's samples, so the sampler does not grow
	// the heap it measures.
	w.heap = make([]float64, 0, int(w.length/(10*time.Millisecond))+1000)
	if w.traced {
		w.profErr = pprof.StartCPUProfile(&w.prof)
	}
	w.cpu = -processCPU()
	w.start = time.Now()
	w.end = w.start.Add(w.length)
	w.sampler.Add(1)
	go w.sampleHeap()
}

// close records the elapsed time (the caller closes once the operations
// started before the deadline have finished) and stops sampling.
func (w *window) close() {
	w.elapsed = time.Since(w.start)
	w.cpu += processCPU()
	if w.traced && w.profErr == nil {
		pprof.StopCPUProfile()
	}
	close(w.stop)
	w.sampler.Wait()
}

// sampleHeap polls the live heap every 10ms until the window closes,
// including while the operations started before the deadline finish.
func (w *window) sampleHeap() {
	defer w.sampler.Done()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			w.heap = append(w.heap, float64(s[0].Value.Uint64()))
		}
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// heapPeak is the p99 of the live-heap samples, in bytes.
func (w *window) heapPeak() float64 {
	s := append([]float64(nil), w.heap...)
	sort.Float64s(s)
	return nearestRank(s, 0.99)
}

// cpuShares buckets the window's CPU profile (traced runs only).
func (w *window) cpuShares() (map[string]float64, int, error) {
	if w.profErr != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", w.profErr)
	}
	return bucketProfile(w.prof.Bytes())
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
