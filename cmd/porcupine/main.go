// Command porcupine synthesizes vectorized homomorphic-encryption
// kernels from the bundled kernel suite, prints the optimized Quill
// program, emits SEAL C++, or serves kernels on the pure-Go BFV
// backend.
//
// Usage:
//
//	porcupine -kernel gx [-seal] [-timeout 5m] [-seed 1]
//	porcupine -run gx [-iters 100] [-workers 4] [-ring-workers 2] [-preset PN4096]
//	porcupine -build [-kernels gx,gy,sobel] [-workers 4] [-cache-dir DIR | -no-cache]
//	porcupine -serve ADDR (-kernel NAME | -load-registry FILE)
//	porcupine -export-registry FILE [-kernels gx,gy] [-baseline] [-preset PN4096] [-export-request DIR]
//	porcupine -load-registry FILE [-iters 3] [-run KERNEL]
//	porcupine -list
//
// Batch mode (-build) compiles every registered kernel (or the
// -kernels subset) through a shared work-stealing scheduler with a
// global worker budget, streams per-kernel progress, and prints a
// Table-3-style summary. Synthesized programs are recorded in a
// persistent content-addressed cache, so a warm rebuild of the whole
// suite returns in milliseconds.
//
// Every serving mode serves a registry: a manifest of named execution
// plans sharing one parameter set and one set of evaluation keys. A
// single kernel is a registry of one.
//
// Serving mode (-run KERNEL) compiles the kernel (through the cache)
// and serves it in process as a registry of one: a keyholder context
// with exactly the Galois keys the kernel's execution plan needs, and
// a seeded self-test sample whose decrypted answer must match the
// plaintext reference. It then pushes -iters copies of the sample
// through the batched scheduler across -workers sessions and prints a
// throughput report (runs/sec, latency, batching, queue depth). Every
// per-request response must be bit-identical to the reference
// execution; any failed or mismatched request exits nonzero.
//
// -preset defaults to the smallest preset deep enough for the kernels
// served (PN8192 beyond multiplicative depth 2, else PN4096); an
// explicit -preset wins.
//
// Serving parallelism is two-level: -sched-workers (alias of -workers
// for serving modes) sets batch-level concurrency (independent
// sessions), while -ring-workers sets the intra-request share — ring
// hot loops (NTT, pointwise, key-switch accumulation) and independent
// plan steps fan out across that many pool workers per session.
//
// Multi-process serving splits compilation from execution:
//
//	-export-registry F  compiles every kernel (or the -kernels subset),
//	                    builds one shared context whose Galois keys
//	                    also cover each eligible kernel's slot-
//	                    multiplexing lanes, and writes a wire
//	                    registry: the manifest of named plans, one
//	                    key-material section, and per-kernel self-test
//	                    samples. The secret key never leaves the
//	                    exporting process.
//	-export-request DIR also writes every kernel's wire-encoded sample
//	                    request to DIR/<kernel>.preq (bodies to POST at
//	                    /run/{kernel}).
//	-load-registry F    alone: loads the registry in a fresh process
//	                    (no secret key) and verifies every kernel's
//	                    sample reproduces the exporter's output bit for
//	                    bit — the cross-process differential check, at
//	                    the -ring-workers step parallelism. With -run
//	                    KERNEL: pushes -iters copies of that kernel's
//	                    sample through the catalog scheduler
//	                    (same-kernel bursts lane-pack when the manifest
//	                    carries a mux geometry).
//	-serve ADDR         serves every kernel of the registry over HTTP
//	                    (endpoints: /healthz /kernels /stats
//	                    /selftest/{kernel} /run/{kernel}), either from
//	                    the artifact alone (-load-registry) or from a
//	                    fresh in-process compile of one kernel
//	                    (-kernel).
//	-baseline           uses the hand-written baseline programs instead
//	                    of synthesis — no cache, milliseconds instead
//	                    of minutes; what CI drives.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"porcupine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "porcupine:", err)
		if _, ok := err.(usageError); ok {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks command-line mistakes: they print the usage text
// and exit 2, like flag-parse failures do.
type usageError string

func (e usageError) Error() string { return string(e) }

func run() error {
	var (
		kernel   = flag.String("kernel", "", "kernel to compile and print (see -list); with -serve, the kernel to compile and serve")
		build    = flag.Bool("build", false, "batch-compile the kernel suite")
		run      = flag.String("run", "", "kernel to serve on the BFV backend (throughput mode; see -iters, -workers)")
		iters    = flag.Int("iters", 1, "total plan executions for -run")
		subset   = flag.String("kernels", "", "comma-separated subset for -build or -export-registry (default: all)")
		workers  = flag.Int("workers", 0, "worker budget: synthesis workers for -build, serving sessions for -run (default: GOMAXPROCS / 1)")
		schedW   = flag.Int("sched-workers", 0, "serving sessions (batch-level concurrency) for -run/-serve/-load-registry; overrides -workers there")
		ringW    = flag.Int("ring-workers", 0, "intra-request parallelism per session: ring hot loops and independent plan steps fan out across this many pool workers (0 = serial)")
		cacheDir = flag.String("cache-dir", porcupine.DefaultCacheDir(), "persistent synthesis cache directory")
		cacheMax = flag.Int("cache-max-entries", 0, "max synthesis cache entries, LRU-evicted (0 = unlimited)")
		cacheMB  = flag.Int64("cache-max-mb", 0, "max synthesis cache size in MiB, LRU-evicted (0 = unlimited)")
		noCache  = flag.Bool("no-cache", false, "disable the persistent synthesis cache")
		refresh  = flag.Bool("refresh", false, "re-synthesize cached kernels whose optimization previously timed out (Optimal=no), e.g. with a larger -timeout")
		list     = flag.Bool("list", false, "list available kernels")
		seal     = flag.Bool("seal", false, "emit SEAL C++ for the synthesized kernel")
		expReq   = flag.String("export-request", "", "with -export-registry: write every kernel's sample request to DIR/<kernel>.preq")
		expReg   = flag.String("export-registry", "", "compile the kernel suite (or the -kernels subset) and write the registry artifact to FILE")
		loadReg  = flag.String("load-registry", "", "load a registry FILE: alone, verify every kernel's self-test; with -run KERNEL, push -iters requests at that kernel; with -serve, host every kernel")
		baseLow  = flag.Bool("baseline", false, "use the hand-written baseline programs instead of synthesis (no cache, no timeout; what CI drives)")
		serveAdr = flag.String("serve", "", "serve over HTTP on ADDR (host:port); needs -kernel or -load-registry")
		preset   = flag.String("preset", "", "BFV parameter preset for -run/-export-registry/-serve -kernel (PN2048, PN4096, PN8192; default: PN8192 beyond multiplicative depth 2, else PN4096)")
		timeout  = flag.Duration("timeout", 20*time.Minute, "synthesis time budget (per kernel in -build)")
		seed     = flag.Int64("seed", 1, "synthesis random seed")
		quick    = flag.Bool("quick", false, "stop after the initial (component-minimal) solution")
		infer    = flag.Bool("infer", false, "derive the sketch automatically from the specification instead of using the built-in one")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	compileServe := *serveAdr != "" && *kernel != "" // -serve backed by an in-process compile
	if explicit["preset"] && *run == "" && *expReg == "" && !compileServe {
		if *loadReg != "" {
			return usageError("-preset is ignored with -load-registry (parameters come from the artifact)")
		}
		return usageError("-preset requires -run, -export-registry, or -serve with -kernel")
	}
	if explicit["iters"] && *run == "" && (*loadReg == "" || *serveAdr != "") {
		return usageError("-iters requires -run or -load-registry")
	}
	if *baseLow {
		switch {
		case *build:
			return usageError("-baseline does not combine with -build (batch mode exists to synthesize)")
		case *infer:
			return usageError("-baseline does not combine with -infer")
		case *loadReg != "":
			return usageError("-baseline is ignored with -load-registry (plans come from the artifact)")
		}
	}
	if *list {
		for _, name := range porcupine.Kernels() {
			fmt.Println(name)
		}
		return nil
	}
	if *expReq != "" && *expReg == "" {
		return usageError("-export-request requires -export-registry")
	}
	switch {
	case *expReg != "":
		switch {
		case *build || *run != "" || *serveAdr != "" || *loadReg != "" || *kernel != "":
			return usageError("-export-registry combines only with -kernels (the subset), -baseline and -preset")
		case *seal || *infer:
			return usageError("-seal/-infer do not combine with -export-registry")
		}
	case *serveAdr != "":
		switch {
		case (*kernel != "") == (*loadReg != ""):
			return usageError("-serve needs exactly one source: -kernel NAME (compile here) or -load-registry FILE")
		case *build || *run != "":
			return usageError("-serve does not combine with -build or -run")
		case *seal || *infer:
			return usageError("-seal/-infer do not combine with -serve")
		}
	case *loadReg != "":
		switch {
		case *build || *kernel != "":
			return usageError("-load-registry combines only with -run KERNEL or -serve (or stands alone as the cross-process self-check)")
		case *seal || *infer:
			return usageError("-seal/-infer do not combine with -load-registry")
		}
	default:
		modes := 0
		for _, on := range []bool{*build, *kernel != "", *run != ""} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			return usageError("-build, -kernel and -run are mutually exclusive")
		}
	}
	serving := *run != "" || *serveAdr != "" || *loadReg != ""
	if *build {
		// Reject single-kernel flags that -build would silently ignore.
		switch {
		case *seal:
			return usageError("-seal requires -kernel (batch mode does not emit code)")
		case *infer:
			return usageError("-infer requires -kernel")
		}
	} else {
		if *subset != "" && *expReg == "" {
			return usageError("-kernels requires -build or -export-registry")
		}
		if *workers != 0 && !serving {
			return usageError("-workers requires -build, -run, -serve or -load-registry (single-kernel synthesis uses GOMAXPROCS)")
		}
		if (*schedW != 0 || *ringW != 0) && !serving {
			return usageError("-sched-workers/-ring-workers require -run, -serve or -load-registry")
		}
		if *run != "" {
			switch {
			case *seal:
				return usageError("-seal requires -kernel (serving mode does not emit code)")
			case *infer:
				return usageError("-infer requires -kernel")
			}
		}
	}

	opts := porcupine.Options{Timeout: *timeout, Seed: *seed, SkipOptimize: *quick, RefreshNonOptimal: *refresh}
	if *refresh && *noCache {
		return usageError("-refresh requires the cache (drop -no-cache)")
	}
	if *noCache && (*cacheMax > 0 || *cacheMB > 0) {
		return usageError("-cache-max-entries/-cache-max-mb require the cache (drop -no-cache)")
	}
	if !*noCache {
		cache, err := porcupine.OpenCacheWithLimits(*cacheDir,
			porcupine.CacheLimits{MaxEntries: *cacheMax, MaxBytes: *cacheMB << 20})
		if err != nil {
			return err
		}
		opts.Cache = cache
	}

	baselineMode = *baseLow
	if *build {
		return runBuild(*subset, *workers, opts)
	}
	if *expReg != "" {
		if *subset != "" {
			if err := checkKernelNames(*subset); err != nil {
				return err
			}
		}
		return runExportRegistry(*subset, *preset, *expReg, *expReq, *seed, opts)
	}
	if serving {
		// -sched-workers overrides -workers for the session count;
		// -ring-workers sets the intra-request share.
		sessions := *workers
		if *schedW != 0 {
			sessions = *schedW
		}
		cfg := porcupine.ServeConfig{Sessions: max(sessions, 1), RingWorkers: *ringW}
		name := *run
		if name == "" {
			name = *kernel
		}
		if name != "" {
			if err := checkKernelNames(name); err != nil {
				return err
			}
		}
		return runServing(*loadReg, name, *serveAdr, *preset, *iters, *seed, cfg, opts)
	}
	if *kernel == "" {
		return usageError("no kernel given (use -kernel NAME, -run NAME, -build, or -list)")
	}
	if err := checkKernelNames(*kernel); err != nil {
		return err
	}

	fmt.Printf("synthesizing %s ...\n", *kernel)
	var compiled *porcupine.Compiled
	var err error
	if *infer {
		compiled, err = compileInferred(*kernel, opts)
	} else {
		compiled, err = compileAny(*kernel, opts)
	}
	if err != nil {
		return err
	}
	if compiled.Result != nil {
		r := compiled.Result
		if r.Cached {
			fmt.Printf("cache hit: L=%d cost=%.0f (optimal within sketch: %v, %d examples)\n",
				r.L, r.FinalCost, r.Optimal, r.Examples)
		} else {
			fmt.Printf("initial solution: L=%d cost=%.0f in %v\n", r.L, r.InitialCost, r.InitialTime.Round(time.Millisecond))
			fmt.Printf("final solution:   cost=%.0f in %v (optimal within sketch: %v, %d examples)\n",
				r.FinalCost, r.TotalTime.Round(time.Millisecond), r.Optimal, r.Examples)
		}
	}
	fmt.Printf("\n%s\n", compiled.Lowered)
	fmt.Printf("instructions=%d depth=%d multiplicative-depth=%d\n",
		compiled.Lowered.InstructionCount(), compiled.Lowered.Depth(), compiled.Lowered.MultDepth())

	if *seal {
		src, err := compiled.EmitSEAL()
		if err != nil {
			return err
		}
		fmt.Printf("\n// ---- SEAL C++ ----\n%s", src)
	}
	return nil
}

// checkKernelNames validates a comma-separated kernel list against the
// registry, so typos fail fast with the list of valid names.
func checkKernelNames(csv string) error {
	known := porcupine.Kernels()
	isKnown := map[string]bool{}
	for _, n := range known {
		isKnown[n] = true
	}
	var bad []string
	for _, n := range splitKernels(csv) {
		if !isKnown[n] {
			bad = append(bad, n)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("unknown kernel(s) %s (known: %s)",
			strings.Join(bad, ", "), strings.Join(known, ", "))
	}
	return nil
}

func splitKernels(csv string) []string {
	var out []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runBuild batch-compiles the suite with streamed progress and a
// Table-3-style summary, and exits nonzero if any kernel failed.
func runBuild(subset string, workers int, opts porcupine.Options) error {
	var names []string
	if subset != "" {
		if err := checkKernelNames(subset); err != nil {
			return err
		}
		names = splitKernels(subset)
	}
	bo := porcupine.BuildOptions{
		Opts:    opts,
		Workers: workers,
		Cache:   opts.Cache,
		Progress: func(ev porcupine.BatchEvent) {
			switch {
			case ev.Kind == porcupine.JobStarted:
				fmt.Printf("  %-22s synthesizing...\n", ev.Name)
			case ev.Err != nil:
				fmt.Printf("  %-22s FAILED: %v\n", ev.Name, ev.Err)
			case ev.Result.Cached:
				fmt.Printf("  %-22s cached  L=%d cost=%.0f (%v)\n",
					ev.Name, ev.Result.L, ev.Result.FinalCost, ev.Wall.Round(time.Millisecond))
			default:
				fmt.Printf("  %-22s done    L=%d cost=%.0f (%v)\n",
					ev.Name, ev.Result.L, ev.Result.FinalCost, ev.Wall.Round(time.Millisecond))
			}
		},
	}
	bo.Opts.Cache = nil // the scheduler passes bo.Cache down per job

	if opts.Cache != nil && opts.Cache.Dir() != "" {
		fmt.Printf("cache: %s\n", opts.Cache.Dir())
	}
	rep, err := porcupine.BuildSuite(names, bo)
	if err != nil {
		return err
	}

	fmt.Printf("\n%-22s %3s %7s %6s %9s %10s %9s %8s  %s\n",
		"kernel", "L", "instrs", "depth", "examples", "cost", "optimal", "time", "source")
	// Every kernel lands in exactly one bucket: synthesized cold,
	// served from cache (synthesis or composition hits), composed
	// cold, or failed.
	synthesized, cached, composed, failedN := 0, 0, 0, 0
	for _, n := range rep.Order {
		ent := rep.Entries[n]
		if ent.Err != nil {
			failedN++
			fmt.Printf("%-22s FAILED: %v\n", n, ent.Err)
			continue
		}
		c := ent.Compiled
		if c.Result != nil {
			source := "synth"
			if c.Result.Cached {
				source = "cache"
				cached++
			} else {
				synthesized++
			}
			if ent.DepOnly {
				source += " (dep)"
			}
			opt := "no"
			if c.Result.Optimal {
				opt = "yes"
			}
			fmt.Printf("%-22s %3d %7d %6d %9d %10.0f %9s %8v  %s\n",
				n, c.Result.L, c.Lowered.InstructionCount(), c.Lowered.MultDepth(),
				c.Result.Examples, c.Result.FinalCost, opt,
				ent.Wall.Round(time.Millisecond), source)
		} else {
			source := "compose"
			if ent.FromCache {
				source = "compose (cache)"
				cached++
			} else {
				composed++
			}
			fmt.Printf("%-22s %3s %7d %6d %9s %10s %9s %8v  %s\n",
				n, "-", c.Lowered.InstructionCount(), c.Lowered.MultDepth(),
				"-", "-", "-", ent.Wall.Round(time.Millisecond), source)
		}
	}
	fmt.Printf("\ntotal: %d kernels (%d synthesized, %d cached, %d composed, %d failed), wall %v\n",
		len(rep.Order), synthesized, cached, composed, failedN, rep.Wall.Round(time.Millisecond))
	if failed := rep.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d kernel(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// compileInferred synthesizes from an automatically inferred sketch.
func compileInferred(name string, opts porcupine.Options) (*porcupine.Compiled, error) {
	spec := porcupine.KernelSpec(name)
	if spec == nil {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	sk, err := porcupine.InferSketch(spec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("inferred sketch: %d components, rotations %v, L in [%d,%d]\n",
		len(sk.Components), sk.Rotations, sk.MinL, sk.MaxL)
	res, err := porcupine.Compile(spec, sk, opts)
	if err != nil {
		return nil, err
	}
	return &porcupine.Compiled{Name: name, Spec: spec, Result: res, Lowered: res.Lowered}, nil
}

// baselineMode swaps synthesis for the hand-written baseline programs
// (-baseline): every compileAny call resolves in milliseconds, which is
// what CI's registry/serving smoke jobs drive.
var baselineMode bool

// compileAny compiles direct kernels via synthesis and multi-step
// kernels via suite composition — or, in baseline mode, returns the
// hand-written depth-minimized program.
func compileAny(name string, opts porcupine.Options) (*porcupine.Compiled, error) {
	if baselineMode {
		l, err := porcupine.Baseline(name)
		if err != nil {
			return nil, err
		}
		return &porcupine.Compiled{Name: name, Spec: porcupine.KernelSpec(name), Lowered: l}, nil
	}
	switch name {
	case "sobel", "harris":
		return compileSuiteFor(name, opts)
	default:
		return porcupine.CompileKernel(name, opts)
	}
}

func compileSuiteFor(name string, opts porcupine.Options) (*porcupine.Compiled, error) {
	gx, err := porcupine.CompileKernel("gx", opts)
	if err != nil {
		return nil, err
	}
	gy, err := porcupine.CompileKernel("gy", opts)
	if err != nil {
		return nil, err
	}
	var lowered *porcupine.Lowered
	switch name {
	case "sobel":
		lowered, err = porcupine.ComposeSobel(gx.Result.Program, gy.Result.Program)
	case "harris":
		blur, berr := porcupine.CompileKernel("box-blur", opts)
		if berr != nil {
			return nil, berr
		}
		lowered, err = porcupine.ComposeHarris(gx.Result.Program, gy.Result.Program, blur.Result.Program)
	}
	if err != nil {
		return nil, err
	}
	spec := porcupine.KernelSpec(name)
	ok, err := spec.CheckLowered(lowered)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("composed %s failed verification", name)
	}
	return &porcupine.Compiled{Name: name, Spec: spec, Result: nil, Lowered: lowered}, nil
}

// runServing is every serving mode. With a registry path it serves
// the artifact from a sealed context (no secret key); otherwise it
// compiles kernel and serves it in process as a registry of one. Then
// -serve hosts the catalog over HTTP, -run drives kernel's sample
// through it, and a loaded registry alone runs every kernel's
// self-test.
func runServing(regPath, kernel, addr, preset string, iters int, seed int64, cfg porcupine.ServeConfig, opts porcupine.Options) error {
	var (
		cat *porcupine.Catalog
		err error
	)
	if regPath != "" {
		cat, preset, err = loadCatalog(regPath, cfg)
	} else if cat, err = localCatalog(kernel, preset, seed, cfg, opts); err == nil {
		preset = cat.Ctx.Params.Name()
	}
	if err != nil {
		return err
	}
	defer cat.Close()
	switch {
	case addr != "":
		return serveHTTP(addr, cat, preset)
	case kernel == "":
		return checkCatalog(cat, iters)
	default:
		return driveKernel(cat, kernel, iters)
	}
}

// loadCatalog reads a registry artifact and serves it from a sealed
// execute-only context; it also returns the registry's preset name.
func loadCatalog(path string, cfg porcupine.ServeConfig) (*porcupine.Catalog, string, error) {
	reg, err := porcupine.ReadRegistryFile(path)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("loaded %s: %d kernels (preset %s), fingerprint %s\n",
		path, len(reg.Entries), reg.Preset, reg.Params.FingerprintHex())
	cat, err := porcupine.LoadRegistry(reg, cfg)
	return cat, reg.Preset, err
}

// localCatalog compiles one kernel and serves it in process as a
// registry of one: a keyholder context holding exactly the Galois keys
// the plan needs (preset "" picks the smallest deep enough), the
// seeded self-test sample, and a catalog over that context. The
// exporter's answer to the sample must decrypt to the plaintext
// reference.
func localCatalog(kernel, preset string, seed int64, cfg porcupine.ServeConfig, opts porcupine.Options) (*porcupine.Catalog, error) {
	fmt.Printf("compiling %s ...\n", kernel)
	c, err := compileAny(kernel, opts)
	if err != nil {
		return nil, err
	}
	if preset == "" {
		preset = porcupine.PresetFor(c.Lowered)
	}
	fmt.Printf("building serving context (preset %s) ...\n", preset)
	ctx, plans, err := porcupine.NewServingContext(preset, c.Lowered)
	if err != nil {
		return nil, err
	}
	pl := plans[0]
	fmt.Printf("plan: %d steps over %d ciphertext buffers, %d pre-encoded constants, Galois keys %v\n",
		pl.InstructionCount(), pl.NumRegs, len(pl.Consts), pl.Rotations)
	names := []string{kernel}
	samples, examples, err := encryptSamples(ctx, names, seed)
	if err != nil {
		return nil, err
	}
	reg, err := porcupine.ExportRegistry(ctx, names, plans, samples)
	if err != nil {
		return nil, err
	}
	expected := reg.Entries[0].Expected
	if got := ctx.DecryptVec(expected, c.Spec.VecLen); !c.Spec.Matches(got, examples[0]) {
		return nil, fmt.Errorf("BFV output disagrees with the plaintext reference")
	}
	fmt.Printf("reference answer decrypts to the plaintext reference, noise budget %.0f bits\n", ctx.NoiseBudget(expected))
	return porcupine.NewCatalog(ctx, reg, cfg)
}

// encryptSamples draws one seeded example per kernel from a single
// stream and encrypts its ciphertext inputs under ctx: the self-test
// samples a registry embeds. The plaintext examples stay with the
// keyholder.
func encryptSamples(ctx *porcupine.Context, names []string, seed int64) ([]*porcupine.WireRequest, []*porcupine.Example, error) {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]*porcupine.WireRequest, len(names))
	examples := make([]*porcupine.Example, len(names))
	for i, name := range names {
		spec := porcupine.KernelSpec(name)
		assign := make([]uint64, spec.NumVars)
		for j := range assign {
			assign[j] = rng.Uint64() % 64
		}
		ex := spec.NewExample(assign)
		s := &porcupine.WireRequest{PtIn: ex.PtIn}
		for _, v := range ex.CtIn {
			ct, err := ctx.EncryptVec(v)
			if err != nil {
				return nil, nil, err
			}
			s.CtIn = append(s.CtIn, ct)
		}
		samples[i], examples[i] = s, ex
	}
	return samples, examples, nil
}

// driveKernel pushes iters copies of the kernel's embedded sample
// through the catalog scheduler at once, so same-kernel bursts
// coalesce (and lane-pack when the manifest carries a mux geometry),
// and prints a throughput report. A per-request answer must be
// bit-identical to the exporter's; a lane-packed one carries the same
// answer in different ciphertext bytes and is only counted here (the
// decrypted lane-packed differential lives in the test suite). Any
// failed request fails the run.
func driveKernel(cat *porcupine.Catalog, kernel string, iters int) error {
	iters = max(iters, 1)
	e := cat.Entry(kernel)
	if e == nil {
		return fmt.Errorf("registry carries no kernel %q (kernels: %s)", kernel, strings.Join(cat.Kernels(), ", "))
	}
	if e.Sample == nil {
		return fmt.Errorf("kernel %q carries no self-test sample to run", kernel)
	}
	cfg := cat.Sched.Config()
	lanes := "per-request; not mux-eligible"
	if e.Mux != nil {
		lanes = fmt.Sprintf("lane-packing up to %d per evaluation", e.Mux.Lanes)
	}
	fmt.Printf("running %s: %d requests across %d sessions x %d ring workers (%s) ...\n",
		kernel, iters, cfg.Sessions, max(cfg.RingWorkers, 1), lanes)
	start := time.Now()
	var wg sync.WaitGroup
	fails := &failTally{}
	var muxed atomic.Int64
	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := cat.Do(kernel, e.Sample.CtIn, e.Sample.PtIn)
			switch {
			case res.Err != nil:
				fails.add(res.Err)
			case res.Lanes >= 2:
				muxed.Add(1)
			case !cat.Ctx.Params.CiphertextEqual(res.Out, e.Expected):
				fails.add(fmt.Errorf("response not bit-identical to the exporter's"))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	st := cat.Sched.Stats()
	fmt.Printf("%d runs in %v — %.1f runs/sec (%d sessions), latency avg %v max %v, avg batch %.1f, peak queue %d, %d lane-packed across %d mux groups\n",
		iters, wall.Round(time.Millisecond), float64(iters)/wall.Seconds(), cfg.Sessions,
		st.AvgLatency.Round(time.Microsecond), st.MaxLatency.Round(time.Microsecond),
		st.AvgBatch, st.MaxQueueDepth, muxed.Load(), st.MuxGroups)
	if n, first := fails.snapshot(); n > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %v)", n, iters, first)
	}
	fmt.Println("ok: every per-request response bit-identical to the exporter's")
	return nil
}

// failTally counts request failures across producer goroutines,
// keeping the first error for the report.
type failTally struct {
	mu    sync.Mutex
	n     int
	first error
}

func (f *failTally) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.first == nil {
		f.first = err
	}
}

func (f *failTally) snapshot() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n, f.first
}

// runExportRegistry compiles the kernel suite (or the -kernels
// subset), builds ONE shared serving context whose Galois keys also
// cover every eligible kernel's mux lanes, and writes the wire
// registry artifact: manifest of named plans, one key-material
// section, per-kernel self-test samples. preset "" picks the largest
// preset any listed kernel needs. reqDir, when set, receives each
// kernel's wire-encoded sample request as <kernel>.preq — the bodies
// to POST at /run/{kernel}.
func runExportRegistry(subset, preset, path, reqDir string, seed int64, opts porcupine.Options) error {
	names := splitKernels(subset)
	if len(names) == 0 {
		names = porcupine.Kernels()
	}
	var lowereds []*porcupine.Lowered
	for _, name := range names {
		fmt.Printf("compiling %s ...\n", name)
		c, err := compileAny(name, opts)
		if err != nil {
			return err
		}
		lowereds = append(lowereds, c.Lowered)
	}
	if preset == "" {
		preset = porcupine.PresetFor(lowereds...)
	}
	fmt.Printf("building shared serving context (preset %s, %d kernels) ...\n", preset, len(names))
	ctx, plans, err := porcupine.NewMuxServingContext(preset, 0, lowereds...)
	if err != nil {
		return err
	}
	samples, _, err := encryptSamples(ctx, names, seed)
	if err != nil {
		return err
	}
	reg, err := porcupine.ExportRegistry(ctx, names, plans, samples)
	if err != nil {
		return err
	}
	if err := reg.WriteFile(path); err != nil {
		return err
	}
	if reqDir != "" {
		if err := os.MkdirAll(reqDir, 0o755); err != nil {
			return err
		}
		for i, name := range names {
			data, err := porcupine.EncodeWireRequest(ctx.Params, samples[i])
			if err != nil {
				return err
			}
			rp := filepath.Join(reqDir, name+".preq")
			if err := os.WriteFile(rp, data, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d sample requests to %s/*.preq\n", len(names), reqDir)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	muxable := 0
	for i := range reg.Entries {
		e := &reg.Entries[i]
		if e.MuxLanes >= 2 {
			muxable++
			fmt.Printf("  %-22s %3d steps  mux: %d lanes x %d-slot stride\n",
				e.Name, e.Plan.InstructionCount(), e.MuxLanes, e.MuxStride)
		} else {
			fmt.Printf("  %-22s %3d steps  per-request\n", e.Name, e.Plan.InstructionCount())
		}
	}
	fmt.Printf("exported %s: %d bytes, fingerprint %s (%d kernels, %d mux-eligible, shared relin + Galois keys)\n",
		path, fi.Size(), ctx.Params.FingerprintHex(), len(reg.Entries), muxable)
	return nil
}

// checkCatalog runs every kernel's embedded sample iters times,
// requiring each output bit-identical to the exporter's — the
// cross-process differential check.
func checkCatalog(cat *porcupine.Catalog, iters int) error {
	iters = max(iters, 1)
	start := time.Now()
	for _, name := range cat.Kernels() {
		for i := 0; i < iters; i++ {
			ok, err := cat.SelfTest(name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !ok {
				return fmt.Errorf("%s: output not bit-identical to the exporter's", name)
			}
		}
	}
	fmt.Printf("ok: %d kernels x %d cross-process runs bit-identical in %v\n",
		len(cat.Kernels()), iters, time.Since(start).Round(time.Millisecond))
	return nil
}

// serveHTTP hosts every kernel of the catalog from this process until
// SIGINT or SIGTERM, then drains and shuts down.
func serveHTTP(addr string, cat *porcupine.Catalog, preset string) error {
	srv := &http.Server{Addr: addr, Handler: porcupine.NewRegistryFront(cat, preset)}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("serving %d kernels on http://%s (endpoints: /healthz /kernels /stats /selftest/{kernel} /run/{kernel}; %d sessions)\n",
			len(cat.Kernels()), addr, cat.Sched.Config().Sessions)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("\n%v: draining and shutting down ...\n", s)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return err
		}
		return <-errCh
	}
}
