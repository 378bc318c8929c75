// Command benchmux measures what slot multiplexing buys the serving
// path: for every mux-eligible kernel it packs a full batch of
// distinct users' requests into disjoint slot lanes of one ciphertext
// (pack rotations, one shared plan evaluation, demux rotations) and
// compares that against serving the same requests one at a time on the
// same session budget.
//
// Methodology is the PR 7/8 paired-delta discipline: every iteration
// times the unmuxed batch and the muxed batch back to back, so machine
// drift hits both configurations equally and the reported speedup is
// the median of per-iteration ratios T(unmuxed)_i / T(muxed)_i with
// min/max spread — not a ratio of medians from separate blocks. Before
// any timing, every user's muxed output and unmuxed output must
// decrypt to exactly the interpreter reference slots — a batch that is
// fast but wrong exits nonzero. (Muxed and unmuxed ciphertext BYTES
// legitimately differ: the muxed row carries the neighbours' lanes;
// equality is per-user decrypted slots [0, VecLen).)
//
// Kernels whose plans refuse lane packing (full-width vectors,
// wraparound rotation reach, degree-2 output) are reported under
// "skipped" with the refusal reason. `make bench-mux` writes
// BENCH_PR9.json; methodology in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/prof"
	"porcupine/internal/quill"
)

// kernelMux is the per-kernel report: lane geometry, paired batch
// latencies, and the throughput both ways.
type kernelMux struct {
	Preset string `json:"preset"`
	VecLen int    `json:"vec_len"`
	Steps  int    `json:"steps"`
	Stride int    `json:"mux_stride"`
	Lanes  int    `json:"mux_lanes"`

	// Median wall time to serve one Lanes-member batch.
	UnmuxedMsPerBatch float64 `json:"unmuxed_ms_per_batch"`
	MuxedMsPerBatch   float64 `json:"muxed_ms_per_batch"`

	// Requests per second at the median batch latency.
	UnmuxedRPS float64 `json:"unmuxed_rps"`
	MuxedRPS   float64 `json:"muxed_rps"`

	// Paired per-iteration ratios T(unmuxed)_i / T(muxed)_i.
	Speedup    float64 `json:"speedup"`
	SpeedupMin float64 `json:"speedup_min"`
	SpeedupMax float64 `json:"speedup_max"`
}

type report struct {
	NumCPU     int                   `json:"num_cpu"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Iters      int                   `json:"iters"`
	Kernels    map[string]*kernelMux `json:"kernels"`
	// Skipped maps ineligible kernels to the analyzer's refusal reason.
	Skipped map[string]string `json:"skipped"`
}

func main() {
	var (
		iters = flag.Int("iters", 12, "timed batch pairs per kernel (median reported)")
		only  = flag.String("kernels", "", "comma-separated kernel subset (default: all)")
		out   = flag.String("out", "", "write JSON to FILE (default stdout)")
	)
	flag.Parse()
	stopProf, err := prof.Start()
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

	rep := &report{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Iters:      *iters,
		Kernels:    map[string]*kernelMux{},
		Skipped:    map[string]string{},
	}
	for _, name := range names {
		km, reason, err := measureMux(name, *iters)
		if err != nil {
			fatal("measuring %s: %v", name, err)
		}
		if km == nil {
			rep.Skipped[name] = reason
			fmt.Fprintf(os.Stderr, "%-22s skipped: %s\n", name, reason)
			continue
		}
		rep.Kernels[name] = km
		fmt.Fprintf(os.Stderr, "%-22s %d lanes x %d-slot stride  unmuxed %6.2fms  muxed %6.2fms  %.2fx [%.2f..%.2f]  (%.0f -> %.0f req/s)\n",
			name, km.Lanes, km.Stride, km.UnmuxedMsPerBatch, km.MuxedMsPerBatch,
			km.Speedup, km.SpeedupMin, km.SpeedupMax, km.UnmuxedRPS, km.MuxedRPS)
	}
	if len(rep.Kernels) == 0 {
		fatal("no mux-eligible kernel in the sweep")
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

// measureMux benchmarks one kernel's lane-packed batch against the
// per-request path. A (nil, reason, nil) return marks an ineligible
// kernel.
func measureMux(name string, iters int) (*kernelMux, string, error) {
	spec := kernels.ByName(name)
	l, err := baseline.Lowered(name)
	if err != nil {
		return nil, "", err
	}
	preset := backend.PresetFor(l)
	ctx, plans, err := backend.NewTestMuxServingContext(preset, 7, 0, l)
	if err != nil {
		return nil, "", err
	}
	p := plans[0]
	if _, lanes, reason := plan.MuxParams(p, ctx.Params.SlotCount(), 0); lanes < 2 {
		return nil, reason, nil
	}
	m, err := plan.BuildMux(ctx.Params, ctx.Encoder, p, 0)
	if err != nil {
		return nil, "", err
	}
	// The exporter's noise-budget proof: a geometry that is statically
	// legal but decrypts wrong lane-packed is demoted to per-request —
	// benchmux mirrors the registry export decision.
	if err := ctx.ProveMux(m, 13, 2); err != nil {
		return nil, fmt.Sprintf("lane packing demoted: %v", err), nil
	}

	// One distinct request per lane.
	rng := rand.New(rand.NewSource(11))
	ctIns := make([][]*bfv.Ciphertext, m.Lanes)
	ptIns := make([][]quill.Vec, m.Lanes)
	wants := make([]quill.Vec, m.Lanes)
	for u := 0; u < m.Lanes; u++ {
		assign := make([]uint64, spec.NumVars)
		for i := range assign {
			assign[i] = rng.Uint64() % 64
		}
		ex := spec.NewExample(assign)
		for _, v := range ex.CtIn {
			ct, err := ctx.EncryptVec(v)
			if err != nil {
				return nil, "", err
			}
			ctIns[u] = append(ctIns[u], ct)
		}
		ptIns[u] = ex.PtIn
		ref, err := backend.RuntimeOver(ctx).RunInterpreter(l, ctIns[u], ptIns[u])
		if err != nil {
			return nil, "", err
		}
		wants[u] = ctx.DecryptVec(ref, l.VecLen)
	}

	sess := ctx.NewSession()
	runner := ctx.NewMuxRunner(m)

	// Bit-identity (per-user decrypted slots) before any timing, both
	// ways.
	for u := 0; u < m.Lanes; u++ {
		out, err := sess.Run(p, ctIns[u], ptIns[u])
		if err != nil {
			return nil, "", err
		}
		if err := checkSlots(ctx, out, wants[u], "unmuxed", u); err != nil {
			return nil, "", err
		}
	}
	outs, err := runner.Run(ctIns, ptIns)
	if err != nil {
		return nil, "", err
	}
	for u, out := range outs {
		if err := checkSlots(ctx, out, wants[u], "muxed", u); err != nil {
			return nil, "", err
		}
	}

	// Interleaved paired timing: each iteration runs both
	// configurations back to back so drift cancels in the ratio.
	unmuxed := make([]float64, iters)
	muxed := make([]float64, iters)
	for it := 0; it < iters; it++ {
		start := time.Now()
		for u := 0; u < m.Lanes; u++ {
			if _, err := sess.Run(p, ctIns[u], ptIns[u]); err != nil {
				return nil, "", err
			}
		}
		unmuxed[it] = float64(time.Since(start).Nanoseconds()) / 1e6

		start = time.Now()
		if _, err := runner.Run(ctIns, ptIns); err != nil {
			return nil, "", err
		}
		muxed[it] = float64(time.Since(start).Nanoseconds()) / 1e6
	}

	km := &kernelMux{
		Preset: preset, VecLen: l.VecLen, Steps: p.InstructionCount(),
		Stride: m.Stride, Lanes: m.Lanes,
		UnmuxedMsPerBatch: median(unmuxed),
		MuxedMsPerBatch:   median(muxed),
	}
	km.UnmuxedRPS = float64(m.Lanes) / (km.UnmuxedMsPerBatch / 1e3)
	km.MuxedRPS = float64(m.Lanes) / (km.MuxedMsPerBatch / 1e3)
	km.Speedup, km.SpeedupMin, km.SpeedupMax = pairedRatio(unmuxed, muxed)
	return km, "", nil
}

// checkSlots compares one user's decrypted output slots [0, VecLen)
// against the interpreter reference.
func checkSlots(ctx *backend.Context, out *bfv.Ciphertext, want quill.Vec, mode string, user int) error {
	got := ctx.DecryptVec(out, len(want))
	for s := range want {
		if got[s] != want[s] {
			return fmt.Errorf("%s user %d slot %d: got %d, want %d", mode, user, s, got[s], want[s])
		}
	}
	return nil
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
	fmt.Fprintf(os.Stderr, "benchmux: "+format+"\n", args...)
	os.Exit(1)
}
