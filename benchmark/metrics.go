package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number; BENCHMARK.json declares the same
// names and units (main_test.go keeps the two in step).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits lists the metrics an untraced run reports, on every
// workload.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"rps":           "1/s",
	"lat_p50_ms":    "ms",
	"lat_p95_ms":    "ms",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
}

// allKernels is the paper's suite in Table 3 / Figure 4 order.
var allKernels = []string{
	"box-blur", "dot-product", "hamming-distance", "l2-distance",
	"linear-regression", "polynomial-regression", "gx", "gy",
	"roberts-cross", "sobel", "harris",
}

// muxKernels are the four kernels burst-open serves.
var muxKernels = []string{"sobel", "roberts-cross", "l2-distance", "hamming-distance"}

// perLayerUnits lists the metrics a traced run reports. A layer that
// does no work in a workload reads 0 there.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		// synth, kernels, quill, compose, codegen: compile-cold only.
		"compile.cold_s":                  "s",
		"compile.warm_s":                  "s",
		"synth.search_s.gx":               "s",
		"synth.search_s.gy":               "s",
		"synth.search_s.hamming-distance": "s",
		"synth.search_s.rest":             "s",
		"synth.nodes":                     "count",
		"synth.examples":                  "count",
		"synth.cache_hit_share":           "share",
		"synth.cache_get_ms":              "ms",
		"synth.cache_put_ms":              "ms",
		"kernels.check_ms":                "ms",
		"quill.lower_ms":                  "ms",
		"quill.optimize_ms":               "ms",
		"compose.sobel_ms":                "ms",
		"compose.harris_ms":               "ms",
		"codegen.emit_ms":                 "ms",
		"codegen.bytes":                   "count",
		"suite.cost":                      "count",
		"suite.instrs":                    "count",
		"gen.run_ms":                      "ms",
		"gen.base_ms":                     "ms",
		"gen.speedup_geomean":             "ratio",
		// plan: static counts over the workload's plans.
		"plan.compile_ms":      "ms",
		"plan.steps":           "count",
		"plan.digit_decomps":   "count",
		"plan.ext_transforms":  "count",
		"plan.shared_replayed": "count",
		"plan.mux_eligible":    "count",
		// backend, bfv, ring: at the workload's preset.
		"backend.keygen_s":        "s",
		"bfv.mul_us":              "us",
		"bfv.relin_us":            "us",
		"bfv.rotate_us":           "us",
		"bfv.add_us":              "us",
		"bfv.mul_plain_us":        "us",
		"bfv.encrypt_us":          "us",
		"bfv.decrypt_us":          "us",
		"ring.ntt_us":             "us",
		"ring.intt_us":            "us",
		"ring.decompose_ntt_us":   "us",
		"ring.mul_accum_us":       "us",
		"ring.automorphism_us":    "us",
		"wire.registry_encode_ms": "ms",
		"wire.registry_decode_ms": "ms",
		"wire.registry_mb":        "MB",
		"wire.req_encode_ms":      "ms",
		"wire.req_decode_ms":      "ms",
		"wire.resp_encode_ms":     "ms",
		"wire.resp_decode_ms":     "ms",
		"wire.req_kb":             "KB",
		"wire.resp_kb":            "KB",
		"serve.export_s":          "s",
		"serve.load_ms":           "ms",
		"serve.wait_ms":           "ms",
		"serve.exec_ms":           "ms",
		"serve.http_self_ms":      "ms",
		"serve.avg_batch":         "count",
		"serve.mux_share":         "share",
		"serve.mux_groups":        "count",
		"serve.max_queue_depth":   "count",
		"serve.rejected":          "count",
		"client.encrypt_ms":       "ms",
		"client.decrypt_ms":       "ms",
		"gen.late_p95_ms":         "ms",
		"gen.backlog_end":         "count",
		"go.allocs_per_op":        "count",
		"go.alloc_kb_per_op":      "KB",
		"go.gc_pause_ms":          "ms",
		"trace.overhead_share":    "share",
		"trace.spans":             "count",
	}
	for _, k := range allKernels {
		m["backend.run_ms."+k] = "ms"
	}
	for _, k := range muxKernels {
		m["backend.mux_run_ms."+k] = "ms"
	}
	return m
}()

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by the nearest-rank rule, or 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark, so that repeated runs in
// one process each report their own peak. Best effort: where the
// kernel refuses, later repeats report the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// cpuSeconds returns the user plus system CPU time of the process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
