package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/parpool"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
)

// coldSpecs is the coldstart mix: {LSTM, GRU} x h in {64, 128, 256}, t=8.
var coldSpecs = func() []kernels.LayerSpec {
	var out []kernels.LayerSpec
	for _, k := range []kernels.RNNKind{kernels.LSTM, kernels.GRU} {
		for _, h := range []int{64, 128, 256} {
			out = append(out, kernels.LayerSpec{Kind: k, Hidden: h, TimeSteps: 8})
		}
	}
	return out
}()

// coldCallers is how many callers cycle at once. Two keep both CPUs of
// the reference host busy: with one, the other CPU idles between the
// hand-offs of each cycle, and waking it under host contention made the
// cycle time follow the host rather than the code.
const coldCallers = 2

// coldBench cycles Deploy -> one 1-step request -> Release against a
// stack whose artifact store was warmed in set-up, so each cycle pays
// engine build, machine allocation and first tile quantization, not the
// offline compile.
type coldBench struct {
	seed  int64
	opts  rms.InferOptions
	store *artifactstore.Store
	svc   *rms.Service
	dp    *rms.DataPlane
}

func setupColdstart(seed int64) (*coldBench, error) {
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.PaperCluster(), db)
	if err != nil {
		return nil, err
	}
	store := artifactstore.NewMemory(artifactstore.Options{})
	svc.SetCompiler(rms.NewCompiler(store, rms.CompilerOptions{}))
	b := &coldBench{seed: seed, opts: rms.DefaultInferOptions(), store: store, svc: svc}
	b.dp = rms.NewDataPlane(svc, b.opts)
	rng := rand.New(rand.NewSource(seed - 1))
	for i, spec := range coldSpecs {
		if _, err := b.cycle(i, coldInput(spec, rng.Int63()), time.Now()); err != nil {
			b.close()
			return nil, fmt.Errorf("warming %v: %w", spec, err)
		}
	}
	return b, nil
}

func (b *coldBench) close() { b.dp.Close() }

// coldInput is the 1-step input of a cycle on spec drawn from seed.
func coldInput(spec kernels.LayerSpec, seed int64) []float64 {
	return randInputs(rand.New(rand.NewSource(seed)), 1, spec.Hidden)[0]
}

// coldCycle is one cycle's record. It holds no pointers, so the run keeps
// it off the heap (see offHeap): the input is regenerated from inSeed for
// the reference, and the output is kept as its length and bitsDigest.
type coldCycle struct {
	spec   int32 // index into coldSpecs
	caller int32
	lease  int32
	outLen int32
	// failed is 1 + the index of the cycle's error in its caller's error
	// list, or 0.
	failed int32
	inSeed int64
	outSum uint64
	// start, deployed, infer and end are offsets from the window's start.
	start, deployed, infer, end time.Duration
	// stats are the answer's instructions, MACs, vector ops, tile cache
	// hits and misses.
	stats [5]int64
}

// cycle runs Deploy -> one 1-step request -> Release on coldSpecs[si],
// stamping times as offsets from base.
func (b *coldBench) cycle(si int, x []float64, base time.Time) (coldCycle, error) {
	spec := coldSpecs[si]
	c := coldCycle{spec: int32(si)}
	c.start = time.Since(base)
	lease, err := b.svc.DeployWith(spec, rms.PlaceOptions{})
	c.deployed = time.Since(base)
	if err != nil {
		return c, fmt.Errorf("deploy: %w", err)
	}
	c.lease = int32(lease.ID)
	res, ierr := b.dp.Infer(lease.ID, [][]float64{x})
	c.infer = time.Since(base)
	rerr := b.dp.Release(lease.ID)
	c.end = time.Since(base)
	switch {
	case ierr != nil:
		return c, fmt.Errorf("infer: %w", ierr)
	case rerr != nil:
		return c, fmt.Errorf("release: %w", rerr)
	case len(res.Outputs) != 1:
		return c, fmt.Errorf("infer: %d outputs for a 1-step request", len(res.Outputs))
	}
	s := res.BatchStats
	c.stats = [5]int64{int64(s.Instructions), int64(s.MACs), int64(s.VectorOps), int64(s.TileCacheHits), int64(s.TileCacheMisses)}
	c.outLen = int32(len(res.Outputs[0]))
	c.outSum = bitsDigest(res.Outputs[0])
	return c, nil
}

// run has each caller cycle until the deadline, then checks every first
// result against the public kernels API's answer for that lease's
// weights.
func (b *coldBench) run(w *window, tr *tracer) (*outcome, error) {
	recs := make([]*offHeap[coldCycle], coldCallers)
	for k := range recs {
		r, err := newOffHeap[coldCycle](recordsPerCallerSecond * int(w.length.Seconds()+1))
		if err != nil {
			return nil, err
		}
		defer r.free()
		recs[k] = r
	}
	errs := make([][]string, coldCallers)
	full := make([]bool, coldCallers)
	st0 := b.store.Stats()
	var wg sync.WaitGroup
	w.open()
	for k := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*1000 + int64(k)))
			var order []int
			for time.Now().Before(w.end) {
				// Balanced seeded mix: every spec once per round, in
				// shuffled order.
				if len(order) == 0 {
					order = rng.Perm(len(coldSpecs))
				}
				si := order[0]
				order = order[1:]
				seed := rng.Int63()
				c, err := b.cycle(si, coldInput(coldSpecs[si], seed), w.start)
				c.caller, c.inSeed = int32(k), seed
				if err != nil {
					errs[k] = append(errs[k], err.Error())
					c.failed = int32(len(errs[k]))
				}
				if !recs[k].add(c) {
					full[k] = true
					return
				}
			}
		}()
	}
	wg.Wait()
	w.close()
	st1 := b.store.Stats()
	var cycles []coldCycle
	for k, r := range recs {
		if full[k] {
			return nil, fmt.Errorf("caller %d ran more than %d cycles", k, cap(r.recs))
		}
		cycles = append(cycles, r.recs...)
	}
	// The references run after the window, as many at once as there were
	// callers, so they time the same contention the cycles ran under.
	type reference struct {
		sum uint64
		n   int
		t   refTimes
	}
	refs, err := parpool.Map(context.Background(), coldCallers, len(cycles),
		func(_ context.Context, i int) (reference, error) {
			c := cycles[i]
			if c.failed > 0 {
				return reference{}, nil
			}
			spec := coldSpecs[c.spec]
			out, t, err := referenceFirstOutput(spec, b.opts, int(c.lease), coldInput(spec, c.inSeed))
			if err != nil {
				return reference{}, fmt.Errorf("reference for cycle %d: %w", i, err)
			}
			return reference{bitsDigest(out), len(out), t}, nil
		})
	if err != nil {
		return nil, err
	}

	out := &outcome{win: w}
	var refBuild, refMachine, refRun []time.Duration
	for i, c := range cycles {
		out.attempted++
		if c.failed > 0 {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("cycle %d %v: %s", i, coldSpecs[c.spec], errs[c.caller][c.failed-1]))
			continue
		}
		ref := refs[i]
		refBuild = append(refBuild, ref.t.build)
		refMachine = append(refMachine, ref.t.machine)
		refRun = append(refRun, ref.t.run)
		if ref.sum != c.outSum || ref.n != int(c.outLen) {
			out.failed++
			out.wrong++
			continue
		}
		out.success(w.start.Add(c.start), c.end-c.start)
		if tr != nil {
			id := int64(i + 1)
			at := w.start.Add
			root := tr.add(0, id, "coldstart.cycle", at(c.start), at(c.end))
			tr.add(root, id, "rms.deploy", at(c.start), at(c.deployed))
			tr.add(root, id, "rms.first_infer", at(c.deployed), at(c.infer))
			tr.add(root, id, "rms.release", at(c.infer), at(c.end))
		}
	}
	if tr == nil {
		return out, nil
	}
	m := map[string]float64{}
	var deploy, infer, release []time.Duration
	var instr, macs, vops, hits, misses []float64
	for _, c := range cycles {
		if c.failed > 0 {
			continue
		}
		deploy = append(deploy, c.deployed-c.start)
		infer = append(infer, c.infer-c.deployed)
		release = append(release, c.end-c.infer)
		instr = append(instr, float64(c.stats[0]))
		macs = append(macs, float64(c.stats[1]))
		vops = append(vops, float64(c.stats[2]))
		hits = append(hits, float64(c.stats[3]))
		misses = append(misses, float64(c.stats[4]))
	}
	us, ms := time.Microsecond, time.Millisecond
	m["rms.deploy_us_p50"] = nearestRank(sortedScaled(deploy, us), 0.5)
	m["rms.first_infer_ms_p50"] = nearestRank(sortedScaled(infer, ms), 0.5)
	m["rms.release_us_p50"] = nearestRank(sortedScaled(release, us), 0.5)
	m["kernels.build_ms"] = nearestRank(sortedScaled(refBuild, ms), 0.5)
	m["accel.machine_new_ms"] = nearestRank(sortedScaled(refMachine, ms), 0.5)
	m["accel.first_run_ms"] = nearestRank(sortedScaled(refRun, ms), 0.5)
	m["accel.instructions_per_req"] = mean(instr)
	m["accel.macs_per_req"] = mean(macs)
	m["accel.vector_ops_per_req"] = mean(vops)
	m["accel.tile_hit_ratio"] = ratio(sum(hits), sum(hits)+sum(misses))
	hitsD := float64(st1.Hits - st0.Hits)
	m["artifactstore.hit_ratio"] = ratio(hitsD, hitsD+float64(st1.Misses-st0.Misses))
	m["artifactstore.computes"] = float64(st1.Computes - st0.Computes)
	out.layer = m
	return out, nil
}

// refTimes are the stages of one reference computation.
type refTimes struct{ build, machine, run time.Duration }

// referenceFirstOutput computes h_1 for input x through the public
// kernels API with the weights the data plane derives for the lease
// (InferOptions.Seed + lease id): build the kernel, load a machine, run
// the whole program and read the first output. The machine is sized as
// the data plane sizes each of a lease's machines (MaxBatch streams), so
// its allocation time is what every cycle pays per machine; the full
// program runs in stream 0's window.
func referenceFirstOutput(spec kernels.LayerSpec, opts rms.InferOptions, lease int, x []float64) ([]float64, refTimes, error) {
	var t refTimes
	t0 := time.Now()
	w := kernels.RandomWeights(spec.Kind, spec.Hidden, opts.Seed+int64(lease))
	k, err := kernels.Build(w, spec.TimeSteps, opts.Tiles)
	if err != nil {
		return nil, t, err
	}
	k.Cfg.MantissaBits = opts.MantissaBits
	t1 := time.Now()
	m, err := k.NewBatchMachine(opts.MaxBatch)
	if err != nil {
		return nil, t, err
	}
	if err := k.SetInput(m, 0, x); err != nil {
		return nil, t, err
	}
	t2 := time.Now()
	if err := m.Run(k.Prog); err != nil {
		return nil, t, err
	}
	t3 := time.Now()
	out, err := k.ReadOutput(m, 0)
	t = refTimes{build: t1.Sub(t0), machine: t2.Sub(t1), run: t3.Sub(t2)}
	return out, t, err
}

// bitsDigest is the FNV-1a hash of v's float64 bit patterns, so two
// vectors with equal length and digest are, but for a 2^-64 chance, equal
// bit for bit.
func bitsDigest(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}
