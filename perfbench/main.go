// Command perfbench is the repository's benchmark. It drives the serving
// stack, the cold-start path and the offline compile flow in-process
// through their public functions, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of an extra traced pass.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//
// See perfbench/README.md for the workloads and how to read a traced run.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlvfpga/internal/benchhost"
)

// metricDef is one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer that does not run on a
// workload reads 0 there; README.md lists which workload measures which.
var perLayer = []metricDef{
	{"loadgen.lateness_p99_ms", "ms"},
	{"tenant.guard_us_p50", "us"},
	{"tenant.guard_us_last_tenth", "us"},
	{"tenant.nonces_peak", "count"},
	{"tenant.auth_failures", "count"},
	{"rms.handler_us_p50", "us"},
	{"rms.queue_wait_us_p50", "us"},
	{"rms.queue_wait_us_p99", "us"},
	{"rms.cohort_mean", "streams"},
	{"rms.slot_occupancy", "streams"},
	{"rms.admissions_into_running", "count"},
	{"rms.steals", "count"},
	{"rms.shed", "count"},
	{"rms.deploy_us_p50", "us"},
	{"rms.first_infer_ms_p50", "ms"},
	{"rms.release_us_p50", "us"},
	{"accel.instructions_per_req", "count"},
	{"accel.macs_per_req", "count"},
	{"accel.vector_ops_per_req", "count"},
	{"accel.tile_hit_ratio", "ratio"},
	{"accel.mac_rate_g", "GMAC/s"},
	{"kernels.build_ms", "ms"},
	{"accel.machine_new_ms", "ms"},
	{"accel.first_run_ms", "ms"},
	{"artifactstore.hit_ratio", "ratio"},
	{"artifactstore.computes", "count"},
	{"artifactstore.lookup_us", "us"},
	{"bwrtl.generate_ms", "ms"},
	{"rtl.parse_ms", "ms"},
	{"decompose.decompose_ms", "ms"},
	{"partition.partition_ms", "ms"},
	{"rtl.equiv_queries", "count"},
	{"core.hs_compile_ms", "ms"},
	{"cpu.bfp", "share"},
	{"cpu.fp16", "share"},
	{"cpu.accel", "share"},
	{"cpu.kernels", "share"},
	{"cpu.rms", "share"},
	{"cpu.tenant", "share"},
	{"cpu.codec", "share"},
	{"cpu.rtl", "share"},
	{"cpu.decompose", "share"},
	{"cpu.gc", "share"},
	{"cpu.other", "share"},
	{"trace.overhead_pct", "%"},
}

// bench is one workload's stack, built by set-up and measured by run.
type bench interface {
	// run measures one pass over the window; tr is nil on untraced passes.
	run(w *window, tr *tracer) (*outcome, error)
	close()
}

// workload names a set-up; the order is the order of --workload all.
type workload struct {
	name  string
	setup func(seed int64) (bench, error)
}

var workloads = []workload{
	{"serve-mixed", func(seed int64) (bench, error) { return setupServe(serveMixed, seed) }},
	{"coldstart", func(seed int64) (bench, error) { return setupColdstart(seed) }},
	{"compile-catalog", func(seed int64) (bench, error) { return setupCatalog(seed) }},
}

// outcome is what one measured pass produced.
type outcome struct {
	attempted int
	// failed counts operations refused, errored or answered wrongly;
	// wrong counts the failed output checks among them.
	failed int
	wrong  int
	// lat is the latency of every successful operation and doneAt its
	// completion; interactive is the latency-class tenant's share of lat
	// (serving mixes only).
	lat         []time.Duration
	doneAt      []time.Time
	interactive []time.Duration
	win         *window
	layer       map[string]float64
	notes       []string
}

// success records a successful operation that started at start (an open
// loop's due time) and took d.
func (o *outcome) success(start time.Time, d time.Duration) {
	o.lat = append(o.lat, d)
	o.doneAt = append(o.doneAt, start.Add(d))
}

// setupProbes is how many fresh processes each build the stack once for
// setup_s, the median of their times. Each pays the process-wide one-time
// work (lazily built tables) that a new server start pays and that a
// second set-up in the same process would skip.
const setupProbes = 11

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload to run: serve-mixed, coldstart, compile-catalog or all")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 30, "length of each measured pass")
	trace := fl.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	root := fl.String("root", ".", "repository root (trace files go to <root>/.bench_build/trace)")
	probe := fl.Bool("setup-probe", false, "build one workload's stack once, print its set-up time in seconds and exit (used for setup_s)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []workload
	for _, wl := range workloads {
		if *name == "all" || *name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *probe {
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "perfbench: --setup-probe takes one workload")
			return 2
		}
		t0 := time.Now()
		b, err := selected[0].setup(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", selected[0].name, err)
			return 2
		}
		d := time.Since(t0)
		b.close()
		fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
		return 0
	}

	prov := provenance(*root, *seed)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range selected {
		res, err := runWorkload(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 2
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = wl.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload times set-up in fresh processes, measures an untraced
// pass and, when traced, a traced pass on a fresh stack, printing one
// line per metric as it goes.
func runWorkload(wl workload, seed int64, length time.Duration, traced bool, root string, stdout io.Writer) (*result, error) {
	setupS, err := probeSetups(wl.name, seed)
	if err != nil {
		return nil, err
	}
	b, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := b.run(newWindow(length, false), nil)
	b.close()
	if err != nil {
		return nil, err
	}

	emit := func(name string, v float64, unit, note string) {
		if note != "" {
			note = "  # " + note
		}
		fmt.Fprintf(stdout, "%-16s %-30s %14.6g %s%s\n", wl.name, name, v, unit, note)
	}
	for _, n := range plain.notes {
		fmt.Fprintf(stdout, "%-16s note %s\n", wl.name, n)
	}
	lat := sortedMs(plain.lat)
	e2e := map[string]float64{
		"setup_s":          median(setupS),
		"throughput_per_s": median(sliceRates(plain.doneAt, plain.win.start, plain.win.length, windowSlices)),
		"latency_p50_ms":   nearestRank(lat, 0.5),
		"heap_peak_mb":     plain.win.heapPeak() / 1e6,
	}
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d fresh-process set-ups", len(setupS))
		case "throughput_per_s":
			note = fmt.Sprintf("median of %d slices; %d ops in %.3gs overall", windowSlices, len(lat), plain.win.elapsed.Seconds())
		}
		emit(d.name, e2e[d.name], d.unit, note)
	}
	tail, q := latencyTail(lat)
	emit("latency_tail_ms", tail, "ms", fmt.Sprintf("p%.4g of %d ops, the highest percentile with 10 slower", q*100, len(lat)))
	if len(plain.interactive) > 0 {
		il := sortedMs(plain.interactive)
		if p99, ok := tailPercentile(il, 0.99); ok {
			emit("interactive_p99_ms", p99, "ms", fmt.Sprintf("latency-class tenant, %d ops", len(il)))
		}
	}
	emit("cpu_util", plain.win.cpu.Seconds()/plain.win.elapsed.Seconds(), "CPUs",
		fmt.Sprintf("process CPU time over the window, GOMAXPROCS %d", runtime.GOMAXPROCS(0)))
	emit("error_rate", ratio(float64(plain.failed), float64(plain.attempted)), "ratio",
		fmt.Sprintf("%d failed (%d wrong answers) of %d attempted", plain.failed, plain.wrong, plain.attempted))

	res := &result{
		Correct:   plain.wrong == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, nil
	}

	tb, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tr := &tracer{}
	tw := newWindow(length, true)
	tout, err := tb.run(tw, tr)
	tb.close()
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && tout.wrong == 0
	res.Attempted += tout.attempted
	res.Failed += tout.failed
	layer := tout.layer
	if layer == nil {
		layer = map[string]float64{}
	}
	shares, samples, err := tw.cpuShares()
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		layer[k] = v
	}
	tracedP50 := nearestRank(sortedMs(tout.lat), 0.5)
	layer["trace.overhead_pct"] = 100 * ratio(tracedP50-e2e["latency_p50_ms"], e2e["latency_p50_ms"])
	path, err := tr.write(filepath.Join(root, ".bench_build", "trace"), fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%-16s traced pass: %d ops, %d spans in %s, %d CPU samples; latency_p50_ms %.6g traced vs %.6g untraced\n",
		wl.name, tout.attempted, len(tr.spans), path, samples, tracedP50, e2e["latency_p50_ms"])
	for _, n := range tout.notes {
		fmt.Fprintf(stdout, "%-16s note (traced) %s\n", wl.name, n)
	}
	for _, d := range perLayer {
		v := layer[d.name]
		note := ""
		if d.name == "tenant.nonces_peak" && v > 0 {
			note = "guard cap 65536 live nonces per tenant"
		}
		emit(d.name, v, d.unit, note)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// probeSetups runs setupProbes fresh copies of this program, one after
// another, each building the workload's stack once, and returns their
// set-up times in seconds.
func probeSetups(name string, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		line, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(line)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", line)
		}
		out = append(out, v)
	}
	return out, nil
}

// provenanceRecord identifies what was measured where.
type provenanceRecord struct {
	Seed         int64  `json:"seed"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

// provenance records the run's seed and host, the commit the launcher
// found (unknown outside a git checkout) and a digest of the Go sources,
// which identifies the code where there is no commit.
func provenance(root string, seed int64) provenanceRecord {
	host := benchhost.Collect("")
	commit := os.Getenv("MLV_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenanceRecord{
		Seed:         seed,
		GOMAXPROCS:   host.GOMAXPROCS,
		NProc:        runtime.NumCPU(),
		GoVersion:    host.GoVersion,
		CPU:          host.CPU,
		Commit:       commit,
		SourceSHA256: sourceDigest(root),
	}
}

// sourceDigest hashes every go.mod and .go file under root, by path and
// content, skipping dot-directories (the build cache lives in one).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
