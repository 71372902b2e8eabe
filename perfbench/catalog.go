package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/bwrtl"
	"mlvfpga/internal/core"
	"mlvfpga/internal/decompose"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/parpool"
	"mlvfpga/internal/partition"
	"mlvfpga/internal/rtl"
)

const (
	// catalogIterations is the partition ladder depth of every design.
	catalogIterations = 2
	// catalogChecks is how many compiled designs the output check
	// recompiles with Parallelism 1.
	catalogChecks = 8
	// catalogStageSample caps how many designs the traced pass re-runs
	// stage by stage.
	catalogStageSample = 100
	// catalogCallers is how many designs compile at once. One caller
	// leaves a CPU idle at each hand-off between its stage workers (it
	// used 1.5 of 2 CPUs), so its rate followed how fast the host woke
	// that CPU; two keep both busy.
	catalogCallers = 2
)

// catalogBench compiles distinct designs cold into one memory artifact
// store: the instance catalog's tile counts x consecutive decomposer
// seeds. No serving code runs. The store has the default capacity, as in
// mlv-serve and mlv-compile; a run compiles more designs than that, so
// the store evicts and the live heap stops growing with the run's
// progress.
type catalogBench struct {
	seed  int64
	store *artifactstore.Store
}

// catalogOptions is design i of a run: tile counts cycle fastest, so any
// prefix of the sequence is balanced across instance sizes.
func catalogOptions(base int64, i int) core.Options {
	tiles := core.DefaultTileCounts()
	return core.Options{
		Tiles:               tiles[i%len(tiles)],
		PartitionIterations: catalogIterations,
		Seed:                base + int64(i/len(tiles)),
		PatternAware:        true,
	}
}

// catalogBase spaces runs' seed ranges far apart so no two runs with
// nearby seeds compile the same design.
func catalogBase(seed int64) int64 { return seed * 1_000_000 }

func setupCatalog(seed int64) (*catalogBench, error) {
	store := artifactstore.NewMemory(artifactstore.Options{})
	// One compile outside the run's designs fills the flow's lazily built
	// tables (device calibration) before timing starts.
	warm := catalogOptions(catalogBase(seed)-1, 0)
	if _, _, _, err := core.CompileAcceleratorCached(warm, store); err != nil {
		return nil, fmt.Errorf("warm-up compile: %w", err)
	}
	return &catalogBench{seed: seed, store: store}, nil
}

func (b *catalogBench) close() {}

// residentDesign is one slot of the run's ring of recent artifacts.
type residentDesign struct {
	i int
	c *core.Compiled
}

func (b *catalogBench) run(w *window, tr *tracer) (*outcome, error) {
	base := catalogBase(b.seed)
	// record is one cold design; it holds no pointers, so it is kept off
	// the heap (see offHeap). failed is 1 + the index of the design's
	// error in its caller's error list, or 0; start and end are offsets
	// from the window's start.
	type record struct {
		i          int64
		start, end time.Duration
		failed     int64
	}
	var (
		next atomic.Int64 // the next design to compile
		per  = make([]*offHeap[record], catalogCallers)
		errs = make([][]string, catalogCallers)
		full = make([]bool, catalogCallers)
		// resident holds the newest design compiled into slot i % capacity:
		// the designs the store can still hold. Keeping every artifact
		// would grow the live heap with the run's progress.
		capacity = artifactstore.DefaultMaxMemEntries
		mu       sync.Mutex
		resident = make([]residentDesign, capacity)
		wg       sync.WaitGroup
	)
	for k := range per {
		r, err := newOffHeap[record](recordsPerCallerSecond * int(w.length.Seconds()+1))
		if err != nil {
			return nil, err
		}
		defer r.free()
		per[k] = r
	}
	st0 := b.store.Stats()
	eq0 := metrics.EquivQueries.Value()
	w.open()
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(w.end) {
				i := int(next.Add(1) - 1)
				r := record{i: int64(i), start: time.Since(w.start)}
				c, _, warm, err := core.CompileAcceleratorCached(catalogOptions(base, i), b.store)
				r.end = time.Since(w.start)
				if err == nil && warm {
					err = fmt.Errorf("design %d was not cold", i)
				}
				if err != nil {
					errs[k] = append(errs[k], err.Error())
					r.failed = int64(len(errs[k]))
				}
				if !per[k].add(r) {
					full[k] = true
					return
				}
				mu.Lock()
				if r := &resident[i%capacity]; r.c == nil || r.i < i {
					*r = residentDesign{i, c}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.close()
	st1 := b.store.Stats()
	eq1 := metrics.EquivQueries.Value()

	// Every design claimed was compiled, so the records cover 0..n-1.
	recs := make([]record, next.Load())
	caller := make([]int, len(recs))
	for k, p := range per {
		if full[k] {
			return nil, fmt.Errorf("caller %d compiled more than %d designs", k, cap(p.recs))
		}
		for _, r := range p.recs {
			recs[r.i] = r
			caller[r.i] = k
		}
	}
	// stored returns design i's artifact if the ring still holds it.
	stored := func(i int) *core.Compiled {
		if r := resident[i%capacity]; r.i == i {
			return r.c
		}
		return nil
	}

	// The store holds the capacity designs inserted last. After design
	// i, the designs above it were inserted, and at most one design per
	// other caller below it, so from first on every design is still held.
	n := len(recs)
	first := max(0, n-capacity+catalogCallers-1)

	// Output check: a seeded sample of the resident designs recompiled
	// sequentially must match; a design that does not is a failed cold
	// compile.
	differs := map[int]bool{}
	rng := rand.New(rand.NewSource(b.seed))
	for _, off := range rng.Perm(n - first)[:min(catalogChecks, n-first)] {
		i := first + off
		c := stored(i)
		if c == nil {
			continue
		}
		ok, err := sameArtifact(c, catalogOptions(base, i))
		if err != nil {
			return nil, fmt.Errorf("reference compile of design %d: %w", i, err)
		}
		differs[i] = !ok
	}

	out := &outcome{win: w}
	for _, r := range recs {
		out.attempted++
		switch {
		case r.failed > 0:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("design %d: %s", r.i, errs[caller[r.i]][r.failed-1]))
			continue
		case differs[int(r.i)]:
			out.failed++
			out.wrong++
			out.notes = append(out.notes, fmt.Sprintf("design %d differs from its Parallelism 1 compile", r.i))
			continue
		}
		out.success(w.start.Add(r.start), r.end-r.start)
		if tr != nil {
			tr.add(0, r.i+1, "core.compile", w.start.Add(r.start), w.start.Add(r.end))
		}
	}

	// Warm pass: the resident designs again; each is now a lookup, an
	// operation of its own, that must return the stored artifact. Its
	// time is not part of the cold pass's throughput or latency.
	var lookups []time.Duration
	for i := first; i < n; i++ {
		c := stored(i)
		if c == nil {
			continue
		}
		out.attempted++
		t0 := time.Now()
		got, _, warm, err := core.CompileAcceleratorCached(catalogOptions(base, i), b.store)
		lookups = append(lookups, time.Since(t0))
		if err != nil || !warm || got != c {
			out.failed++
			out.wrong++
			out.notes = append(out.notes, fmt.Sprintf("warm lookup of design %d: warm=%v err=%v", i, warm, err))
		}
	}
	if tr == nil {
		return out, nil
	}
	st2 := b.store.Stats()
	m := map[string]float64{}
	hits := float64(st2.Hits - st0.Hits)
	m["artifactstore.hit_ratio"] = ratio(hits, hits+float64(st2.Misses-st0.Misses))
	m["artifactstore.computes"] = float64(st1.Computes - st0.Computes)
	m["artifactstore.lookup_us"] = nearestRank(sortedScaled(lookups, time.Microsecond), 0.5)
	m["rtl.equiv_queries"] = ratio(float64(eq1-eq0), float64(n))
	if err := stageTimes(m, base, min(catalogStageSample, n), tr); err != nil {
		return nil, err
	}
	out.layer = m
	return out, nil
}

// sameArtifact reports whether c equals a Parallelism 1 compile of opts,
// ignoring the two wall-clock measurements and the parallelism setting.
func sameArtifact(c *core.Compiled, opts core.Options) (bool, error) {
	opts.Parallelism = 1
	ref, err := core.CompileAccelerator(opts)
	if err != nil {
		return false, err
	}
	got := *c
	want := *ref
	for _, x := range []*core.Compiled{&got, &want} {
		x.DecomposeTime, x.PartitionTime = 0, 0
		x.Opts.Parallelism = 0
	}
	return reflect.DeepEqual(&got, &want), nil
}

// stageTimes re-runs the first n designs stage by stage with the options
// CompileAccelerator uses, then the whole flow uncached; the HS compile
// is what the whole flow spends beyond the four timed stages.
func stageTimes(m map[string]float64, base int64, n int, tr *tracer) error {
	var gen, parse, dec, part, hs []time.Duration
	workers := parpool.Workers(0)
	for i := 0; i < n; i++ {
		opts := catalogOptions(base, i)
		op := int64(1_000_000 + i)
		t0 := time.Now()
		src, err := bwrtl.Generate(bwrtl.Profile{Tiles: opts.Tiles, UseURAM: true})
		if err != nil {
			return err
		}
		t1 := time.Now()
		design, err := rtl.ParseDesignParallel(src, bwrtl.TopModule, workers)
		if err != nil {
			return err
		}
		t2 := time.Now()
		dres, err := decompose.Decompose(design, bwrtl.TopModule, nil, decompose.Options{
			ControlModules: bwrtl.ControlModules(),
			Seed:           opts.Seed,
			Parallelism:    workers,
		})
		if err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := partition.Partition(dres.Accelerator.Data, opts.PartitionIterations); err != nil {
			return err
		}
		t4 := time.Now()
		if _, err := core.CompileAccelerator(opts); err != nil {
			return err
		}
		t5 := time.Now()
		gen = append(gen, t1.Sub(t0))
		parse = append(parse, t2.Sub(t1))
		dec = append(dec, t3.Sub(t2))
		part = append(part, t4.Sub(t3))
		hs = append(hs, t5.Sub(t4)-t4.Sub(t0))
		root := tr.add(0, op, "offline.stages", t0, t4)
		tr.add(root, op, "bwrtl.generate", t0, t1)
		tr.add(root, op, "rtl.parse", t1, t2)
		tr.add(root, op, "decompose.decompose", t2, t3)
		tr.add(root, op, "partition.partition", t3, t4)
		tr.add(0, op, "core.compile_uncached", t4, t5)
	}
	ms := time.Millisecond
	m["bwrtl.generate_ms"] = mean(sortedScaled(gen, ms))
	m["rtl.parse_ms"] = mean(sortedScaled(parse, ms))
	m["decompose.decompose_ms"] = mean(sortedScaled(dec, ms))
	m["partition.partition_ms"] = mean(sortedScaled(part, ms))
	m["core.hs_compile_ms"] = mean(sortedScaled(hs, ms))
	return nil
}
