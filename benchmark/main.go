// Command benchmark is the repository's one benchmark: four workloads
// over the whole stack, from synthesis to the serving front end, each
// checked against the kernels' plaintext reference. README.md says
// who the workloads stand for and how the metrics relate.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the run's
// metrics: the end-to-end metrics untraced, the per-layer metrics
// traced. Everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"porcupine/internal/baseline"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// config is everything that sizes the workloads. The command line
// sets only seconds; the rest is fixed here so that every run of a
// workload measures the same thing. The smoke test shrinks it.
type config struct {
	seconds   time.Duration
	setupReps int    // set-ups per untraced run; setup_s is their median
	procs     int    // GOMAXPROCS, closed-loop clients, serve.Config.Workers
	scratch   string // holds the synthesis caches and the trace file

	compileKernels []string
	shallowPreset  string // for programs of multiplicative depth <= 2
	deepPreset     string

	stencil, deep, burst servingSpec
	// burstRate is the offered load of burst-open in requests per
	// second. It is a constant: see README.md for how it was chosen,
	// and do not derive it from the code under test.
	burstRate float64
	// minSamples is the fewest latency samples a closed loop may
	// collect and still report a p95.
	minSamples int
	// maxLateMs bounds the p95 of how late the open-loop generator
	// released its bursts.
	maxLateMs float64
}

func fullConfig() *config {
	return &config{
		setupReps: 3,
		procs:     min(runtime.NumCPU(), 4),
		scratch:   ".bench_build",
		// The paper's suite less roberts-cross and l2-distance, whose
		// searches alone take minutes and ten seconds.
		compileKernels: []string{
			"box-blur", "dot-product", "hamming-distance", "linear-regression",
			"polynomial-regression", "gx", "gy", "sobel", "harris",
		},
		shallowPreset: "PN4096",
		deepPreset:    "PN8192",
		stencil:       servingSpec{preset: "PN4096", kernels: []string{"box-blur", "gx", "gy"}, mux: true},
		deep:          servingSpec{preset: "PN8192", kernels: []string{"harris", "sobel", "roberts-cross", "polynomial-regression"}},
		burst:         servingSpec{preset: "PN4096", kernels: muxKernels, mux: true},
		burstRate:     64,
		minSamples:    200,
		maxLateMs:     50,
	}
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	firstErr          error
	// invalid lists the validity guards that fired; any entry makes
	// the run incorrect.
	invalid     []string
	lat         map[string][]float64 // latency samples in ms, per kernel
	window, cpu float64              // measured seconds, CPU seconds
	setup       []float64            // seconds per set-up
	static      string               // what must be identical across set-ups
	layer       map[string]float64   // per-layer metrics, traced runs
}

func newResult(traced bool) *result {
	r := &result{lat: map[string][]float64{}}
	if traced {
		r.layer = make(map[string]float64, len(perLayerUnits))
		for name := range perLayerUnits {
			r.layer[name] = 0
		}
	}
	return r
}

// add counts one measured window into the result.
func (r *result) add(kernels []string, out *loopOut) {
	r.attempted += len(out.ops) + out.failed
	r.failed += out.failed
	if r.firstErr == nil {
		r.firstErr = out.firstErr
	}
	for name, xs := range byKernel(kernels, out.ops) {
		r.lat[name] = append(r.lat[name], xs...)
	}
	r.window += out.window
	r.cpu += out.cpu
}

// setStatic records a set-up's static counts and flags a set-up that
// disagrees with the earlier ones.
func (r *result) setStatic(s string) {
	if r.static != "" && r.static != s {
		r.invalid = append(r.invalid, fmt.Sprintf("static counts differ between set-ups: %q then %q", r.static, s))
	}
	r.static = s
}

// latP50 is the geometric mean over kernels of each kernel's median
// latency: it moves when any kernel moves, and does not jump when the
// pooled median sits between two kernels' clusters.
func latP50(lat map[string][]float64) float64 {
	var meds []float64
	for _, xs := range lat {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

func pooled(lat map[string][]float64) []float64 {
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	return all
}

func (r *result) endToEnd() map[string]float64 {
	ok := float64(r.attempted - r.failed)
	return map[string]float64{
		"setup_s":       median(r.setup),
		"rps":           ok / r.window,
		"lat_p50_ms":    latP50(r.lat),
		"lat_p95_ms":    quantile(pooled(r.lat), 0.95),
		"cpu_ms_per_op": r.cpu * 1e3 / ok,
		"peak_rss_mb":   peakRSSMB(),
	}
}

// setUp builds what a workload measures: once with a tracer for a
// traced run, otherwise cfg.setupReps times over, keeping the last
// product and every repetition's time. build also returns the static
// counts that every repetition must reproduce.
func setUp[T interface{ close() }](cfg *config, res *result, traced bool, build func(*tracer) (T, string, error)) (T, *tracer, error) {
	var tr *tracer
	reps := cfg.setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	var last T
	for i := range reps {
		// The earlier product is released first: two registries at once
		// would double the peak memory the run reports.
		if i > 0 {
			last.close()
		}
		start := time.Now()
		built, static, err := build(tr)
		if err != nil {
			return built, nil, err
		}
		last = built
		res.setup = append(res.setup, time.Since(start).Seconds())
		res.setStatic(static)
	}
	return last, tr, nil
}

type workload struct {
	name string
	run  func(cfg *config, seed int64, traced bool) (*result, error)
}

var workloads = []workload{
	{"compile-cold", runCompile},
	{"stencil-closed", func(cfg *config, seed int64, traced bool) (*result, error) {
		return runServing(cfg, "stencil-closed", cfg.stencil, false, seed, traced)
	}},
	{"deep-closed", func(cfg *config, seed int64, traced bool) (*result, error) {
		return runServing(cfg, "deep-closed", cfg.deep, false, seed, traced)
	}},
	{"burst-open", func(cfg *config, seed int64, traced bool) (*result, error) {
		return runServing(cfg, "burst-open", cfg.burst, true, seed, traced)
	}},
}

// alternate is the measured part of a traced run: four windows of a
// quarter of dur each, untraced and traced by turns, so that drift
// over the run falls on both alike. It returns the untraced and the
// traced windows' findings and fills the layer metrics that compare
// the two or come from the Go runtime.
func alternate(dur time.Duration, tr *tracer, kernels []string, layer map[string]float64, run func(time.Duration, *tracer) *loopOut) (plain, spans *loopOut) {
	plain, spans = &loopOut{}, &loopOut{}
	var m0, m1 runtime.MemStats
	var mallocs, bytes, pause uint64
	for range 2 {
		runtime.ReadMemStats(&m0)
		plain.merge(run(dur/4, nil))
		runtime.ReadMemStats(&m1)
		mallocs, bytes, pause = mallocs+m1.Mallocs-m0.Mallocs, bytes+m1.TotalAlloc-m0.TotalAlloc, pause+m1.PauseTotalNs-m0.PauseTotalNs
		spans.merge(run(dur/4, tr))
	}
	n := float64(max(len(plain.ops), 1))
	layer["go.allocs_per_op"] = float64(mallocs) / n
	layer["go.alloc_kb_per_op"] = float64(bytes) / 1024 / n
	layer["go.gc_pause_ms"] = float64(pause) / 1e6
	p50 := latP50(byKernel(kernels, plain.ops))
	layer["trace.overhead_share"] = (latP50(byKernel(kernels, spans.ops)) - p50) / p50
	return plain, spans
}

// byKernel groups operations' latencies by kernel name.
func byKernel(kernels []string, ops []op) map[string][]float64 {
	lat := map[string][]float64{}
	for _, o := range ops {
		lat[kernels[o.kernel]] = append(lat[kernels[o.kernel]], o.ms)
	}
	return lat
}

func opMs(ops []op) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = o.ms
	}
	return xs
}

// runCompile is compile-cold. Set-up synthesizes the suite into an
// empty cache and prepares to run it; the measured window runs the
// synthesized programs.
func runCompile(cfg *config, seed int64, traced bool) (*result, error) {
	res := newResult(traced)
	c, tr, err := setUp(cfg, res, traced, func(tr *tracer) (*compiled, string, error) {
		c, err := setupCompile(cfg, seed, traced, tr)
		if err != nil {
			return nil, "", err
		}
		return c, fmt.Sprintf("cost=%v instrs=%d %s", c.cost, c.instrs, planCounts(c.plans)), nil
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	if !traced {
		res.add(cfg.compileKernels, c.runGenerated(cfg.seconds, nil))
		return res, nil
	}

	layer := res.layer
	plain, spans := alternate(cfg.seconds, tr, cfg.compileKernels, layer, c.runGenerated)
	res.add(cfg.compileKernels, plain)
	res.add(cfg.compileKernels, spans)
	for name, xs := range byKernel(cfg.compileKernels, plain.ops) {
		layer["backend.run_ms."+name] = median(xs)
	}
	// Figure 4: per kernel the median of the paired baseline over
	// synthesized ratios, then the geometric mean over kernels.
	ratios := map[string][]float64{}
	for i, o := range spans.ops {
		name := cfg.compileKernels[o.kernel]
		ratios[name] = append(ratios[name], spans.baseOps[i].ms/o.ms)
	}
	layer["gen.run_ms"] = latP50(byKernel(cfg.compileKernels, spans.ops))
	layer["gen.base_ms"] = latP50(byKernel(cfg.compileKernels, spans.baseOps))
	layer["gen.speedup_geomean"] = latP50(ratios)

	var progs []*quill.Lowered
	for _, name := range cfg.compileKernels {
		progs = append(progs, c.report.Entries[name].Compiled.Lowered)
	}
	ctx := c.ctxs[0]
	err = firstErr(
		c.compileLayers(cfg, tr, layer),
		probePlans(ctx, progs, c.plans, layer),
		probeCrypto(ctx, plan.RotationSet(c.plans...)[0], layer),
	)
	// Planning happened inside NewTestServingContext; what is left of
	// that call is key generation.
	layer["backend.keygen_s"] = c.keygen.Seconds() - layer["plan.compile_ms"]/1e3
	self := finishTrace(cfg, "compile-cold", seed, tr, res, mean(opMs(plain.ops)))
	layer["client.decrypt_ms"] = mean(self["client.decrypt"])
	return res, err
}

// runServing is the three serving workloads: load the registry, then
// drive it closed-loop or, for burst-open, open-loop.
func runServing(cfg *config, name string, spec servingSpec, open bool, seed int64, traced bool) (*result, error) {
	res := newResult(traced)
	s, tr, err := setUp(cfg, res, traced, func(tr *tracer) (*serving, string, error) {
		s, err := setupServing(cfg, spec, seed, open, tr)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("registry=%dB %s", s.registryBytes, planCounts(s.plans)), nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	loop := func(dur time.Duration, tr *tracer) *loopOut {
		if !open {
			return s.closedLoop(cfg.procs, dur, seed, tr)
		}
		out := s.burstLoop(cfg.burstRate, dur, seed, tr)
		if out.backlogEnd > burstSize {
			res.invalid = append(res.invalid, fmt.Sprintf("%d requests outstanding at the end of the window: the offered rate overloads this host", out.backlogEnd))
		}
		if late := quantile(out.lateMs, 0.95); late > cfg.maxLateMs {
			res.invalid = append(res.invalid, fmt.Sprintf("generator ran %.1f ms late at p95 (limit %.0f ms)", late, cfg.maxLateMs))
		}
		return out
	}
	if !traced {
		out := loop(cfg.seconds, nil)
		res.add(spec.kernels, out)
		if !open && len(out.ops) < cfg.minSamples {
			res.invalid = append(res.invalid, fmt.Sprintf("%d latency samples, fewer than %d", len(out.ops), cfg.minSamples))
		}
		return res, nil
	}

	layer := res.layer
	plain, spans := alternate(cfg.seconds, tr, spec.kernels, layer, loop)
	res.add(spec.kernels, plain)
	res.add(spec.kernels, spans)
	layer["gen.late_p95_ms"] = quantile(plain.lateMs, 0.95)
	layer["gen.backlog_end"] = float64(plain.backlogEnd)

	progs := make([]*quill.Lowered, len(spec.kernels))
	for i, k := range spec.kernels {
		progs[i], _ = baseline.Lowered(k)
	}
	err = firstErr(
		probePlans(s.key, progs, s.plans, layer),
		probeCrypto(s.key, plan.RotationSet(s.plans...)[0], layer),
		probeServing(s, layer),
	)
	layer["backend.keygen_s"] = s.phase["backend.context"].Seconds() - layer["plan.compile_ms"]/1e3
	layer["serve.export_s"] = s.phase["serve.export"].Seconds()
	layer["serve.load_ms"] = ms(s.phase["serve.load"])
	layer["wire.registry_encode_ms"] = ms(s.phase["wire.registry_encode"])
	layer["wire.registry_decode_ms"] = ms(s.phase["wire.registry_decode"])
	layer["wire.registry_mb"] = float64(s.registryBytes) / (1 << 20)

	self := finishTrace(cfg, name, seed, tr, res, mean(opMs(plain.ops)))
	layer["client.encrypt_ms"] = mean(self["client.encrypt"])
	layer["client.decrypt_ms"] = mean(self["client.decrypt"])
	st := s.cat.Sched.Stats()
	layer["serve.wait_ms"] = ms(st.AvgWait)
	layer["serve.exec_ms"] = ms(st.AvgLatency - st.AvgWait)
	// What the HTTP handler adds around the scheduler and its two codec
	// calls, which the handler makes itself and the probe timed alone.
	var sched []float64
	for _, o := range spans.ops {
		sched = append(sched, o.schedMs)
	}
	layer["serve.http_self_ms"] = mean(self["serve.http"]) - mean(sched) - layer["wire.req_decode_ms"] - layer["wire.resp_encode_ms"]
	layer["serve.avg_batch"] = st.AvgBatch
	layer["serve.mux_groups"] = float64(st.MuxGroups)
	layer["serve.max_queue_depth"] = float64(st.MaxQueueDepth)
	layer["serve.rejected"] = float64(st.Rejected)
	if st.Served > 0 {
		layer["serve.mux_share"] = float64(st.MuxedRequests) / float64(st.Served)
	}
	if open {
		var packed, total [2]float64
		for _, o := range append(plain.ops, spans.ops...) {
			i := 0
			if o.single {
				i = 1
			}
			total[i]++
			if o.lanes >= 2 {
				packed[i]++
			}
		}
		fmt.Fprintf(os.Stderr, "lane-packed share: single-kernel bursts %.3f, mixed bursts %.3f\n", packed[1]/total[1], packed[0]/total[0])
	}
	return res, err
}

// finishTrace writes the spans to the scratch directory and prints
// each layer's share of the traced operations' time, next to the
// untraced mean latency the self times should add up to. It returns
// the self times by span name.
func finishTrace(cfg *config, name string, seed int64, tr *tracer, res *result, untracedMeanMs float64) map[string][]float64 {
	res.layer["trace.spans"] = float64(tr.count())
	path := filepath.Join(cfg.scratch, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := tr.writeFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "writing trace:", err)
	} else {
		fmt.Fprintln(os.Stderr, "trace:", path)
	}
	self, ops := tr.selfTimes()
	names := make([]string, 0, len(self))
	var total float64
	for spanName, xs := range self {
		names = append(names, spanName)
		total += sum(xs)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-24s %8s %14s %8s\n", "span", "count", "mean self ms", "share")
	for _, spanName := range names {
		xs := self[spanName]
		fmt.Fprintf(os.Stderr, "%-24s %8d %14.4f %8.3f\n", spanName, len(xs), mean(xs), sum(xs)/total)
	}
	fmt.Fprintf(os.Stderr, "self times per traced operation sum to %.4f ms; untraced mean latency %.4f ms\n", total/float64(max(ops, 1)), untracedMeanMs)
	return self
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the inputs, the kernel order and the arrival schedule")
		seconds = flag.Float64("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the selection this many times on successive seeds and summarize")
	)
	flag.Parse()
	cfg := fullConfig()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	runtime.GOMAXPROCS(cfg.procs)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fatal(err)
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	// A hang must not outlive the caller's time limit.
	limit := time.Duration(*repeat*len(selected)) * (cfg.seconds + 150*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog: run exceeded", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	samples := map[string]map[string][]float64{} // workload -> metric -> values
	allCorrect := true
	for i := range *repeat {
		for _, w := range selected {
			resetPeakRSS()
			res, err := w.run(cfg, *seed+int64(i), *trace == 1)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			line := report(w.name, res, *trace == 1)
			allCorrect = allCorrect && line.Correct
			if samples[w.name] == nil {
				samples[w.name] = map[string][]float64{}
			}
			for m, v := range line.Metrics {
				samples[w.name][m] = append(samples[w.name][m], v.Value)
			}
			out, err := json.Marshal(line)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
		}
	}
	if *repeat > 1 {
		summarize(selected, samples)
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// outputLine is the JSON object a run ends with.
type outputLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a run's findings to standard error and builds its
// JSON line.
func report(name string, res *result, traced bool) outputLine {
	values, units := res.endToEnd(), endToEndUnits
	if traced {
		values, units = res.layer, perLayerUnits
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %v\n", name, res.failed, res.attempted, res.firstErr)
	}
	for _, why := range res.invalid {
		fmt.Fprintf(os.Stderr, "%s: invalid run: %s\n", name, why)
	}
	line := outputLine{
		Correct:   res.failed == 0 && res.attempted > 0 && len(res.invalid) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		line.Metrics[m] = metric{Value: values[m], Unit: units[m]}
		fmt.Fprintf(os.Stderr, "%-16s %-34s %14.4f %s\n", name, m, values[m], units[m])
	}
	return line
}

// summarize prints, per workload and metric, the median and quartiles
// over the repeated runs and the quartile distance as a share of the
// median, next to the bound BENCHMARK.json (read from the working
// directory) sets for an end-to-end metric.
func summarize(selected []workload, samples map[string]map[string][]float64) {
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(raw, &decl); err != nil {
			fmt.Fprintln(os.Stderr, "BENCHMARK.json:", err)
		}
	}
	bounds := map[string]float64{}
	for _, d := range decl.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	fmt.Fprintf(os.Stderr, "\n%-16s %-34s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range selected {
		names := make([]string, 0, len(samples[w.name]))
		for m := range samples[w.name] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			xs := samples[w.name][m]
			q1, med, q3 := quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := ""
			if bound, ok := bounds[m]; ok {
				verdict = fmt.Sprintf("%6.2f inside", bound)
				if spread > bound {
					verdict = fmt.Sprintf("%6.2f OUTSIDE", bound)
				}
			}
			fmt.Fprintf(os.Stderr, "%-16s %-34s %12.4f %12.4f %12.4f %8.4f %s\n", w.name, m, q1, med, q3, spread, verdict)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
