// Command benchscale measures how the multi-core execution engine
// scales: for every kernel's hand-written baseline program it sweeps
// the intra-request worker count w ∈ {1, 2, 4, …, NumCPU} (or the
// -workers list) with both parallel layers engaged — ring hot loops
// (NTT, pointwise Barrett, key-switch accumulation, base extension)
// fanned across the persistent worker pool, and independent plan
// steps of each dependency level running concurrently — and reports
// paired per-iteration speedups over the serial schedule.
//
// Methodology is the PR 7 paired-delta discipline: every iteration
// runs every worker count back to back on the same session set, so
// machine drift (thermal, scheduler) hits each configuration equally
// and the reported speedups are medians of per-iteration ratios
// T(1)_i / T(w)_i with min/max spread, not ratios of medians from
// separate blocks. Before any timing, each configuration's output is
// proven bit-identical to the interpreter reference — a run that is
// fast but wrong exits nonzero.
//
// Per kernel the median latencies are fitted to an Amdahl model with
// a linear dispatch-overhead term,
//
//	T(w) ≈ T(1)·(f + (1−f)/w) + o·(w−1)
//
// by grid search over the serial fraction f ∈ [0,1] with a
// least-squares overhead o ≥ 0 per candidate, giving each kernel a
// serial fraction (how much of the schedule is inherently
// sequential: dependency chains, key-switch scratch steps) and a
// per-worker overhead (pool dispatch + chunk bookkeeping). On a
// single-vCPU host the sweep still proves bit-identity and 0.98×
// non-regression at w=1, but the speedups are flat by construction —
// see EXPERIMENTS.md. `make bench-scale` writes BENCH_PR8.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/prof"
)

// scalePoint is one worker count's measurement for one kernel.
type scalePoint struct {
	Workers  int     `json:"workers"`
	MedianMs float64 `json:"median_ms"`
	// Paired speedup over the w=1 configuration: median, min and max
	// of per-iteration ratios T(1)_i / T(w)_i.
	Speedup    float64 `json:"speedup"`
	SpeedupMin float64 `json:"speedup_min"`
	SpeedupMax float64 `json:"speedup_max"`
}

// kernelScale is the per-kernel report: schedule shape, the sweep,
// and the fitted speedup model.
type kernelScale struct {
	Preset string `json:"preset"`
	Steps  int    `json:"steps"`
	Levels int    `json:"levels"`    // dependency-levelized schedule depth
	Width  int    `json:"max_width"` // widest level (step-level parallelism bound)

	Points []scalePoint `json:"points"`

	// Amdahl fit T(w) = T(1)·(f + (1−f)/w) + o·(w−1) over the median
	// latencies: f is the serial fraction, o the per-worker dispatch
	// overhead in milliseconds. FitRMSms is the root-mean-square
	// residual of the fit.
	SerialFraction   float64 `json:"serial_fraction"`
	OverheadMsPerWkr float64 `json:"overhead_ms_per_worker"`
	FitRMSms         float64 `json:"fit_rms_ms"`
}

type report struct {
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`
	// CoresAvailable is the parallelism actually usable by this
	// process: min(NumCPU, GOMAXPROCS). Speedup points beyond it are
	// oversubscription artifacts, not scaling data.
	CoresAvailable int                     `json:"cores_available"`
	Iters          int                     `json:"iters"`
	Workers        []int                   `json:"workers"`
	Kernels        map[string]*kernelScale `json:"kernels"`
}

func main() {
	var (
		iters   = flag.Int("iters", 12, "timed plan executions per worker count (median reported)")
		only    = flag.String("kernels", "", "comma-separated kernel subset (default: all)")
		workers = flag.String("workers", "", "comma-separated worker counts to sweep (default: 1,2,4,…,NumCPU)")
		out     = flag.String("out", "", "write JSON to FILE (default stdout)")
	)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal("%v", err)
	}

	sweep, err := parseWorkers(*workers)
	if err != nil {
		fatal("%v", err)
	}
	names := baseline.Names()
	if *only != "" {
		known := map[string]bool{}
		for _, n := range names {
			known[n] = true
		}
		names = nil
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			if !known[n] {
				fatal("unknown kernel %q", n)
			}
			names = append(names, n)
		}
	}

	cores := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < cores {
		cores = g
	}
	if max := sweep[len(sweep)-1]; max > cores {
		fmt.Fprintf(os.Stderr, "benchscale: warning: sweeping %d workers on %d available cores — points beyond w=%d measure oversubscription, not scaling\n",
			max, cores, cores)
	}
	rep := &report{
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		CoresAvailable: cores,
		Iters:          *iters,
		Workers:        sweep,
		Kernels:        map[string]*kernelScale{},
	}
	for _, name := range names {
		ks, err := measureScale(name, sweep, *iters)
		if err != nil {
			fatal("measuring %s: %v", name, err)
		}
		rep.Kernels[name] = ks
		line := fmt.Sprintf("%-22s %d steps / %d levels (width %d)  w=1 %6.2fms",
			name, ks.Steps, ks.Levels, ks.Width, ks.Points[0].MedianMs)
		for _, pt := range ks.Points[1:] {
			line += fmt.Sprintf("  w=%d %.2fx [%.2f..%.2f]", pt.Workers, pt.Speedup, pt.SpeedupMin, pt.SpeedupMax)
		}
		fmt.Fprintf(os.Stderr, "%s  (serial frac %.3f, overhead %.3fms/w)\n",
			line, ks.SerialFraction, ks.OverheadMsPerWkr)
	}

	if err := stopProf(); err != nil {
		fatal("%v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// parseWorkers returns the sweep list: the -workers flag parsed, or
// the default doubling ladder 1, 2, 4, … capped at NumCPU (always
// including NumCPU itself, and always starting at the serial 1 that
// anchors the paired ratios).
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		ws := []int{1}
		for w := 2; w < runtime.NumCPU(); w *= 2 {
			ws = append(ws, w)
		}
		if n := runtime.NumCPU(); n > 1 {
			ws = append(ws, n)
		}
		return ws, nil
	}
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		ws = append(ws, w)
	}
	sort.Ints(ws)
	if ws[0] != 1 {
		ws = append([]int{1}, ws...)
	}
	return ws, nil
}

// measureScale sweeps one kernel: bit-identity for every worker
// count first, then interleaved paired timing across the whole sweep.
func measureScale(name string, sweep []int, iters int) (*kernelScale, error) {
	spec := kernels.ByName(name)
	l, err := baseline.Lowered(name)
	if err != nil {
		return nil, err
	}
	preset := backend.PresetFor(l)
	rt, err := backend.NewTestRuntime(preset, 7, l)
	if err != nil {
		return nil, err
	}
	p, err := rt.Plan(l)
	if err != nil {
		return nil, err
	}
	if p.Levels == nil {
		return nil, fmt.Errorf("compiled plan has no levelized schedule")
	}
	ks := &kernelScale{Preset: preset, Steps: len(p.Steps)}
	ks.Levels, ks.Width = p.LevelStats()

	rng := rand.New(rand.NewSource(9))
	assign := make([]uint64, spec.NumVars)
	for i := range assign {
		assign[i] = rng.Uint64() % 64
	}
	ex := spec.NewExample(assign)
	cts := make([]*bfv.Ciphertext, len(ex.CtIn))
	for i, v := range ex.CtIn {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			return nil, err
		}
	}
	ref, err := rt.RunInterpreter(l, cts, ex.PtIn)
	if err != nil {
		return nil, err
	}

	// One session per worker count, each pinned to its parallelism;
	// Params.SetWorkers is flipped per run since the rings are shared.
	sessions := make([]*backend.Session, len(sweep))
	for i, w := range sweep {
		sessions[i] = rt.NewSession()
		sessions[i].SetParallelism(w)
	}
	runAt := func(i int) (*bfv.Ciphertext, error) {
		rt.Params.SetWorkers(sweep[i])
		out, err := sessions[i].Run(p, cts, ex.PtIn)
		rt.Params.SetWorkers(0)
		return out, err
	}

	// Bit-identity before any timing: every configuration must
	// reproduce the interpreter exactly.
	for i, w := range sweep {
		out, err := runAt(i)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		if !rt.Params.CiphertextEqual(ref, out) {
			return nil, fmt.Errorf("workers=%d not bit-identical to interpreter", w)
		}
		if w == 1 {
			if got := rt.DecryptVec(out, spec.VecLen); !spec.Matches(got, ex) {
				return nil, fmt.Errorf("output disagrees with the plaintext reference")
			}
		}
	}

	// Interleaved paired timing: every iteration runs the full sweep
	// back to back so drift cancels in the per-iteration ratios.
	samples := make([][]float64, len(sweep))
	for i := range samples {
		samples[i] = make([]float64, iters)
	}
	for it := 0; it < iters; it++ {
		for i := range sweep {
			start := time.Now()
			if _, err := runAt(i); err != nil {
				return nil, err
			}
			samples[i][it] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
	}
	for i, w := range sweep {
		pt := scalePoint{Workers: w, MedianMs: median(samples[i])}
		pt.Speedup, pt.SpeedupMin, pt.SpeedupMax = pairedRatio(samples[0], samples[i])
		ks.Points = append(ks.Points, pt)
	}
	ks.SerialFraction, ks.OverheadMsPerWkr, ks.FitRMSms = fitAmdahl(ks.Points)
	return ks, nil
}

// fitAmdahl fits T(w) = T1·(f + (1−f)/w) + o·(w−1) to the median
// latencies: grid search over the serial fraction f with, per
// candidate, the least-squares overhead o clamped to ≥ 0. With only
// the w=1 point (single-core host sweep) the model is undetermined
// and the fit reports f=1, o=0.
func fitAmdahl(points []scalePoint) (f, o, rms float64) {
	t1 := points[0].MedianMs
	if len(points) < 2 || t1 <= 0 {
		return 1, 0, 0
	}
	// Scan from f=1 downward: when the data cannot distinguish
	// candidates (degenerate two-point sweeps on small hosts), ties
	// resolve to the fully-serial description instead of a spurious
	// zero serial fraction with a large overhead term.
	bestF, bestO, bestSSE := 1.0, 0.0, math.Inf(1)
	for fi := 1000; fi >= 0; fi-- {
		cf := float64(fi) / 1000
		// Residual against the pure-Amdahl curve; o is the slope of
		// that residual in (w−1), clamped to physical (non-negative).
		var num, den float64
		for _, pt := range points {
			w := float64(pt.Workers)
			r := pt.MedianMs - t1*(cf+(1-cf)/w)
			num += r * (w - 1)
			den += (w - 1) * (w - 1)
		}
		co := 0.0
		if den > 0 {
			co = math.Max(0, num/den)
		}
		var sse float64
		for _, pt := range points {
			w := float64(pt.Workers)
			e := pt.MedianMs - (t1*(cf+(1-cf)/w) + co*(w-1))
			sse += e * e
		}
		if sse < bestSSE {
			bestF, bestO, bestSSE = cf, co, sse
		}
	}
	return bestF, bestO, math.Sqrt(bestSSE / float64(len(points)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// pairedRatio reduces two aligned sample vectors to the median,
// minimum and maximum of their per-iteration ratios num_i/den_i.
func pairedRatio(num, den []float64) (med, lo, hi float64) {
	rs := make([]float64, 0, len(num))
	for i := range num {
		if den[i] > 0 {
			rs = append(rs, num[i]/den[i])
		}
	}
	if len(rs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(rs)
	return rs[len(rs)/2], rs[0], rs[len(rs)-1]
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchscale: "+format+"\n", args...)
	os.Exit(1)
}
