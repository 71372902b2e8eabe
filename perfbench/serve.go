package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlvfpga/internal/artifactstore"
	"mlvfpga/internal/kernels"
	"mlvfpga/internal/metrics"
	"mlvfpga/internal/perf"
	"mlvfpga/internal/resource"
	"mlvfpga/internal/rms"
	"mlvfpga/internal/scaleout"
	"mlvfpga/internal/tenant"
)

// serveShape is a serving workload: the shared lease, the clients, and
// the open loop's rate of seeded Poisson arrivals, per second.
type serveShape struct {
	spec    kernels.LayerSpec
	rate    float64
	clients []clientShape
}

// clientShape is one tenant's traffic: its class, its share of an open
// loop's arrivals, and the step counts its request bodies take.
type clientShape struct {
	id       string
	class    tenant.Class
	share    float64
	minSteps int
	maxSteps int
	bodies   int
}

// serveMixed is the open-loop mix: a latency-class tenant's short
// requests and a batch-class tenant's long ones share one small lease,
// 4:1 by count, at about half the rate this mix saturates a 2-CPU host
// (README.md gives the measurements).
var serveMixed = serveShape{
	spec: kernels.LayerSpec{Kind: kernels.LSTM, Hidden: 64, TimeSteps: 16},
	rate: 700,
	clients: []clientShape{
		{id: "lat", class: tenant.Latency, share: 0.8, minSteps: 1, maxSteps: 2, bodies: 32},
		{id: "bat", class: tenant.Batch, share: 0.2, minSteps: 16, maxSteps: 16, bodies: 8},
	},
}

// client is a tenant with its pre-encoded request bodies and, per body,
// the outputs JSON its solo answer carried at set-up.
type client struct {
	tenant tenant.Tenant
	bodies [][]byte
	solo   [][]byte
	nonces atomic.Int64
}

// request builds a signed POST /infer for body i with a fresh nonce.
func (c *client) request(i int) *http.Request {
	body := c.bodies[i]
	r, err := http.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
	if err != nil {
		panic(err) // unreachable: constant method and URL
	}
	nonce := c.tenant.ID + "-" + strconv.FormatInt(c.nonces.Add(1), 10)
	tenant.SignRequest(r, c.tenant.ID, []byte(c.tenant.Key), body, time.Now(), nonce)
	return r
}

// serveBench is a serving stack built the way mlv-serve builds it: the
// default inference options, an in-memory compilation cache, and a
// signed-request guard with default options over the data plane's
// handler. Requests go through ServeHTTP in-process.
type serveBench struct {
	shape   serveShape
	seed    int64
	svc     *rms.Service
	dp      *rms.DataPlane
	guard   *tenant.Guard
	inner   http.Handler
	clients []*client
}

func setupServe(shape serveShape, seed int64) (*serveBench, error) {
	db := rms.NewDatabase(rms.Flexible, perf.DefaultParams(), scaleout.DefaultOptions())
	svc, err := rms.NewService(resource.PaperCluster(), db)
	if err != nil {
		return nil, err
	}
	svc.SetCompiler(rms.NewCompiler(artifactstore.NewMemory(artifactstore.Options{}), rms.CompilerOptions{}))
	var ts []tenant.Tenant
	for _, cs := range shape.clients {
		ts = append(ts, tenant.Tenant{ID: cs.id, Key: cs.id + "-key", Class: cs.class})
	}
	reg, err := tenant.NewRegistry(ts...)
	if err != nil {
		return nil, err
	}
	svc.SetTenants(reg)
	dp := rms.NewDataPlane(svc, rms.DefaultInferOptions())
	dp.SetTenants(reg)
	b := &serveBench{
		shape: shape, seed: seed, svc: svc, dp: dp,
		guard: tenant.NewGuard(reg, tenant.GuardOptions{}),
		inner: dp.Handler(),
	}
	lease, err := svc.DeployWith(shape.spec, rms.PlaceOptions{Tenant: shape.clients[0].id})
	if err != nil {
		b.close()
		return nil, fmt.Errorf("deploy %v: %w", shape.spec, err)
	}
	rng := rand.New(rand.NewSource(seed))
	front := b.guard.Wrap(b.inner)
	for i, cs := range shape.clients {
		c := &client{tenant: ts[i]}
		for j := 0; j < cs.bodies; j++ {
			// Step counts cycle through the range, so every seed sends the
			// same mix of request lengths; only the values differ.
			steps := cs.minSteps + j%(cs.maxSteps-cs.minSteps+1)
			body, err := json.Marshal(map[string]any{"id": lease.ID, "inputs": randInputs(rng, steps, shape.spec.Hidden)})
			if err != nil {
				b.close()
				return nil, err
			}
			c.bodies = append(c.bodies, body)
		}
		// Each body's solo answer: sent alone, so the continuous plane's
		// bit-identity contract makes it the answer under any load.
		for j := range c.bodies {
			rec := newRecorder()
			front.ServeHTTP(rec, c.request(j))
			out := outputsOf(rec.body.Bytes())
			if rec.status() != http.StatusOK || out == nil {
				b.close()
				return nil, fmt.Errorf("solo request %s/%d: status %d: %s", c.tenant.ID, j, rec.status(), rec.body.Bytes())
			}
			c.solo = append(c.solo, append([]byte(nil), out...))
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

func (b *serveBench) close() { b.dp.Close() }

// randInputs draws steps input vectors of the given width.
func randInputs(rng *rand.Rand, steps, width int) [][]float64 {
	in := make([][]float64, steps)
	for t := range in {
		in[t] = make([]float64, width)
		for i := range in[t] {
			in[t][i] = rng.NormFloat64()
		}
	}
	return in
}

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{h: http.Header{}} }

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

var (
	outputsOpen  = []byte(`"outputs":`)
	outputsClose = []byte(`,"batch_size"`)
)

// outputsOf returns the raw "outputs" JSON of an /infer answer (nil when
// absent). The answer's other fields describe batching and timing and
// legitimately differ between runs; the outputs must not.
func outputsOf(body []byte) []byte {
	i := bytes.Index(body, outputsOpen)
	if i < 0 {
		return nil
	}
	rest := body[i+len(outputsOpen):]
	j := bytes.Index(rest, outputsClose)
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// sameOutputs is the serving output check: the answer's outputs are
// byte-identical to the solo answer's.
func sameOutputs(body, solo []byte) bool {
	got := outputsOf(body)
	return got != nil && bytes.Equal(got, solo)
}

// serveOp is one request's record.
type serveOp struct {
	c    *client
	body int
	req  *http.Request
	// due is when the open loop scheduled the request; dispatched is when
	// the generator handed it off; sent and done bracket the front door's
	// ServeHTTP.
	due, dispatched, sent, done time.Time
	// innerStart/innerEnd bracket dp.Handler() (traced runs only).
	innerStart, innerEnd time.Time
	code                 int
	wrong                bool
	answer               inferAnswer
}

// inferAnswer is the part of an /infer answer the per-layer metrics read.
type inferAnswer struct {
	BatchSize  int   `json:"batch_size"`
	QueueWait  int64 `json:"queue_wait_ns"`
	BatchStats struct {
		Instructions    int64 `json:"instructions"`
		MACs            int64 `json:"macs"`
		VectorOps       int64 `json:"vector_ops"`
		TileCacheHits   int64 `json:"tile_cache_hits"`
		TileCacheMisses int64 `json:"tile_cache_misses"`
	} `json:"batch_stats"`
}

type opKey struct{}

// spanHandler is the benchmark's span-recording layer between the guard
// and dp.Handler(): it stamps the inner interval onto the request's
// record, so the guard's self time is the outer call minus this span.
func spanHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := r.Context().Value(opKey{}).(*serveOp)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if op != nil {
			op.innerStart, op.innerEnd = t0, time.Now()
		}
	})
}

// do sends one request through the front door and checks the answer.
func (b *serveBench) do(front http.Handler, op *serveOp, traced bool) {
	r := op.req
	if traced {
		r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
	}
	rec := newRecorder()
	op.sent = time.Now()
	front.ServeHTTP(rec, r)
	op.done = time.Now()
	op.req = nil
	op.code = rec.status()
	if op.code != http.StatusOK {
		return
	}
	op.wrong = !sameOutputs(rec.body.Bytes(), op.c.solo[op.body])
	if traced && !op.wrong {
		// The answer was produced by the server's own encoder, so a decode
		// failure would be a wrong answer.
		op.wrong = json.Unmarshal(rec.body.Bytes(), &op.answer) != nil
	}
}

// run measures one open-loop pass.
func (b *serveBench) run(w *window, tr *tracer) (*outcome, error) {
	front := b.guard.Wrap(b.inner)
	if tr != nil {
		front = b.guard.Wrap(spanHandler(b.inner))
	}
	slots0 := metrics.SlotCounters()
	ops := b.openLoop(w, front, tr != nil)
	slots1 := metrics.SlotCounters()

	out := &outcome{win: w}
	late := make([]time.Duration, 0, len(ops))
	for _, op := range ops {
		out.attempted++
		late = append(late, lateness(op.due, op.dispatched))
		switch {
		case op.code != http.StatusOK:
			out.failed++
		case op.wrong:
			out.failed++
			out.wrong++
		default:
			d := op.done.Sub(op.due)
			out.success(op.due, d)
			if b.isInteractive(op.c) {
				out.interactive = append(out.interactive, d)
			}
		}
	}
	codes := map[int]int{}
	for _, op := range ops {
		codes[op.code]++
	}
	for code, n := range codes {
		if code != http.StatusOK {
			out.notes = append(out.notes, fmt.Sprintf("http_%d %d", code, n))
		}
	}
	if tr != nil {
		out.layer = b.layerMetrics(w, ops, late, slots0, slots1)
		for i, op := range ops {
			id := int64(i + 1)
			root := tr.add(0, id, "op", op.due, op.done)
			if !op.dispatched.Equal(op.due) {
				tr.add(root, id, "loadgen.late", op.due, op.dispatched)
			}
			g := tr.add(root, id, "tenant.guard", op.sent, op.done)
			if !op.innerStart.IsZero() {
				tr.add(g, id, "rms.handler", op.innerStart, op.innerEnd)
			}
		}
	}
	return out, nil
}

func (b *serveBench) isInteractive(c *client) bool { return c.tenant.Class == tenant.Latency }

// openLoop sends on a seeded Poisson schedule regardless of completions;
// each request runs on its own goroutine so a slow answer never delays
// the next send. Latency counts from the due time.
func (b *serveBench) openLoop(w *window, front http.Handler, traced bool) []*serveOp {
	rng := rand.New(rand.NewSource(b.seed))
	arr := newArrivals(rng, b.shape.rate)
	var (
		ops []*serveOp
		wg  sync.WaitGroup
	)
	w.open()
	for {
		off := arr.next()
		if off >= w.length {
			break
		}
		c, cs := b.pick(rng)
		op := &serveOp{c: c, body: rng.Intn(cs.bodies), due: w.start.Add(off)}
		op.req = c.request(op.body)
		sleepUntil(op.due)
		op.dispatched = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.do(front, op, traced)
		}()
		ops = append(ops, op)
	}
	wg.Wait()
	w.close()
	return ops
}

// pick draws a client by its share of the arrivals.
func (b *serveBench) pick(rng *rand.Rand) (*client, clientShape) {
	x := rng.Float64()
	for i, cs := range b.shape.clients {
		if x < cs.share || i == len(b.shape.clients)-1 {
			return b.clients[i], cs
		}
		x -= cs.share
	}
	panic("unreachable")
}

// layerMetrics derives the serving per-layer metrics of a traced pass.
func (b *serveBench) layerMetrics(w *window, ops []*serveOp, late []time.Duration, s0, s1 map[string]int64) map[string]float64 {
	m := map[string]float64{
		"loadgen.lateness_p99_ms": nearestRank(sortedMs(late), 0.99),
	}
	var guard, handler, qwait, qwaitInteractive []time.Duration
	var lastTenth []float64
	tail := w.start.Add(w.length * 9 / 10)
	admitted := map[string]int{}
	var authFail, shed int
	var cohort, instr, macs, vops, hits, misses, execNs, macsNs []float64
	for _, op := range ops {
		switch op.code {
		case http.StatusUnauthorized:
			authFail++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed++
		}
		if op.code != http.StatusUnauthorized {
			admitted[op.c.tenant.ID]++
		}
		if op.innerStart.IsZero() {
			continue
		}
		outer := span{Start: op.sent, End: op.done}
		inner := span{Start: op.innerStart, End: op.innerEnd}
		g := selfTime(outer, []span{inner})
		guard = append(guard, g)
		if !op.due.Before(tail) {
			lastTenth = append(lastTenth, float64(g)/float64(time.Microsecond))
		}
		handler = append(handler, inner.dur())
		if op.code != http.StatusOK || op.wrong {
			continue
		}
		a := op.answer
		qw := time.Duration(a.QueueWait)
		qwait = append(qwait, qw)
		if b.isInteractive(op.c) {
			qwaitInteractive = append(qwaitInteractive, qw)
		}
		n := float64(a.BatchSize)
		if n < 1 {
			n = 1
		}
		cohort = append(cohort, float64(a.BatchSize))
		instr = append(instr, float64(a.BatchStats.Instructions)/n)
		macs = append(macs, float64(a.BatchStats.MACs)/n)
		vops = append(vops, float64(a.BatchStats.VectorOps)/n)
		hits = append(hits, float64(a.BatchStats.TileCacheHits))
		misses = append(misses, float64(a.BatchStats.TileCacheMisses))
		if ex := inner.dur() - qw; ex > 0 {
			execNs = append(execNs, float64(ex))
			macsNs = append(macsNs, float64(a.BatchStats.MACs)/n)
		}
	}
	us := time.Microsecond
	m["tenant.guard_us_p50"] = nearestRank(sortedScaled(guard, us), 0.5)
	m["tenant.guard_us_last_tenth"] = mean(lastTenth)
	for _, n := range admitted {
		m["tenant.nonces_peak"] = maxf(m["tenant.nonces_peak"], float64(n))
	}
	m["tenant.auth_failures"] = float64(authFail)
	m["rms.handler_us_p50"] = nearestRank(sortedScaled(handler, us), 0.5)
	m["rms.queue_wait_us_p50"] = nearestRank(sortedScaled(qwait, us), 0.5)
	m["rms.queue_wait_us_p99"] = nearestRank(sortedScaled(qwaitInteractive, us), 0.99)
	m["rms.cohort_mean"] = mean(cohort)
	slotDeltas(m, s0, s1)
	m["rms.shed"] = float64(shed)
	m["accel.instructions_per_req"] = mean(instr)
	m["accel.macs_per_req"] = mean(macs)
	m["accel.vector_ops_per_req"] = mean(vops)
	m["accel.tile_hit_ratio"] = ratio(sum(hits), sum(hits)+sum(misses))
	m["accel.mac_rate_g"] = ratio(sum(macsNs), sum(execNs))
	return m
}

// slotDeltas records the continuous plane's slot counters over a pass.
func slotDeltas(m map[string]float64, s0, s1 map[string]int64) {
	d := func(k string) float64 { return float64(s1[k] - s0[k]) }
	m["rms.slot_occupancy"] = ratio(d("mlv_slot_round_occupancy"), d("mlv_slot_rounds"))
	m["rms.admissions_into_running"] = d("mlv_admissions_into_running")
	m["rms.steals"] = d("mlv_steals")
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
