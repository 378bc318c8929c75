// Benchmarks regenerating the paper's evaluation (one per table and
// figure; see EXPERIMENTS.md for paper-vs-measured):
//
//	BenchmarkTable3Synthesis    Table 3  — synthesis time per kernel
//	BenchmarkFigure4            Figure 4 — baseline vs synthesized HE latency
//	BenchmarkTable2Counts       Table 2  — instruction count / depth (custom metrics)
//	BenchmarkFigure5BoxBlur     Figure 5 — synthesis producing the 4-instr box blur
//	BenchmarkFigure6Gx          Figure 6 — synthesis producing the 7-instr Gx
//	BenchmarkSketchAblation     §7.4     — local-rotate vs explicit-rotation sketches
//
// The interactive harness (cmd/hebench) prints the same data in the
// paper's row/column format.
package porcupine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"porcupine"
	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/synth"
	"porcupine/internal/wire"
)

// benchKernels are the directly synthesized kernels ordered as in
// Table 3. The heavyweight search kernels are skipped in -short mode.
var benchKernels = []string{
	"box-blur", "dot-product", "hamming-distance", "l2-distance",
	"linear-regression", "polynomial-regression", "gx", "gy", "roberts-cross",
}

// heavyKernel marks kernels whose exhaustive optimality proof takes
// minutes; benchmarks use their (already paper-count-matching after
// optimization elsewhere) initial solutions.
func heavyKernel(name string) bool {
	return name == "roberts-cross"
}

// slowSearch marks kernels skipped in -short benchmark runs.
func slowSearch(name string) bool {
	switch name {
	case "l2-distance", "gx", "gy", "roberts-cross":
		return true
	}
	return false
}

// compiledCache shares synthesized programs across benchmarks so
// Figure 4 does not re-run synthesis per sub-benchmark.
var (
	compiledMu    sync.Mutex
	compiledCache = map[string]*porcupine.Compiled{}
)

func compiledKernel(b *testing.B, name string) *porcupine.Compiled {
	b.Helper()
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if c, ok := compiledCache[name]; ok {
		return c
	}
	opts := porcupine.Options{Seed: 1, Timeout: 10 * time.Minute}
	// Initial solutions already have the paper's instruction counts;
	// skipping the optimality proof keeps benchmark setup bounded for
	// the large-search kernels.
	if heavyKernel(name) {
		opts.SkipOptimize = true
	}
	c, err := porcupine.CompileKernel(name, opts)
	if err != nil {
		b.Fatalf("compiling %s: %v", name, err)
	}
	compiledCache[name] = c
	return c
}

// BenchmarkTable3Synthesis measures end-to-end synthesis (CEGIS +
// verification; optimization skipped for the heavyweight kernels) per
// kernel — the "Initial Time" trajectory of Table 3.
func BenchmarkTable3Synthesis(b *testing.B) {
	for _, name := range benchKernels {
		name := name
		if testing.Short() && slowSearch(name) {
			continue
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := synth.Options{Seed: int64(i + 1), Timeout: 10 * time.Minute, SkipOptimize: true}
				res, err := synth.SynthesizeKernel(name, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Lowered.InstructionCount()), "instructions")
					b.ReportMetric(float64(res.Examples), "examples")
				}
			}
		})
	}
}

// BenchmarkFigure4 measures HE execution latency of baseline vs
// synthesized kernels on the BFV backend — the data behind Figure 4's
// speedup bars. Run with -benchtime to control repetitions (paper
// averages 50 runs).
func BenchmarkFigure4(b *testing.B) {
	for _, name := range benchKernels {
		name := name
		if testing.Short() && slowSearch(name) {
			continue
		}
		spec := kernels.ByName(name)
		base, err := baseline.Lowered(name)
		if err != nil {
			b.Fatal(err)
		}
		c := compiledKernel(b, name)
		rt, err := backend.NewTestRuntime(backend.PresetFor(base, c.Lowered), 7, base, c.Lowered)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		assign := make([]uint64, spec.NumVars)
		for i := range assign {
			assign[i] = rng.Uint64() % 64
		}
		ex := spec.NewExample(assign)
		cts := make([]*porcupine.Ciphertext, len(ex.CtIn))
		for i, v := range ex.CtIn {
			if cts[i], err = rt.EncryptVec(v); err != nil {
				b.Fatal(err)
			}
		}
		run := func(b *testing.B, l *quill.Lowered) {
			b.Helper()
			for i := 0; i < b.N; i++ {
				if _, _, err := rt.TimedRun(l, cts, ex.PtIn); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name+"/baseline", func(b *testing.B) { run(b, base) })
		b.Run(name+"/synthesized", func(b *testing.B) { run(b, c.Lowered) })
	}
}

// BenchmarkPlanThroughput measures the serving path: execution-plan
// runs/sec and allocations per run, single- and multi-worker, against
// the instruction-at-a-time interpreter baseline. Sub-benchmarks:
//
//	KERNEL/interpreter   old path (per-instruction allocation)
//	KERNEL/plan          plan path, one session
//	KERNEL/workers-N     plan path, N concurrent sessions, one shared
//	                     context (throughput = runs/sec metric)
//
// Results are recorded in BENCH_PR3.json; note that worker scaling
// needs physical cores (a 1-vCPU container shows flat throughput).
func BenchmarkPlanThroughput(b *testing.B) {
	for _, name := range []string{"box-blur", "hamming-distance"} {
		spec := kernels.ByName(name)
		c := compiledKernel(b, name)
		rt, err := backend.NewTestRuntime(backend.PresetFor(c.Lowered), 7, c.Lowered)
		if err != nil {
			b.Fatal(err)
		}
		p, err := rt.Plan(c.Lowered)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		assign := make([]uint64, spec.NumVars)
		for i := range assign {
			assign[i] = rng.Uint64() % 64
		}
		ex := spec.NewExample(assign)
		cts := make([]*porcupine.Ciphertext, len(ex.CtIn))
		for i, v := range ex.CtIn {
			if cts[i], err = rt.EncryptVec(v); err != nil {
				b.Fatal(err)
			}
		}

		b.Run(name+"/interpreter", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rt.RunInterpreter(c.Lowered, cts, ex.PtIn); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
		b.Run(name+"/plan", func(b *testing.B) {
			s := rt.NewSession()
			if _, err := s.Run(p, cts, ex.PtIn); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(p, cts, ex.PtIn); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
		})
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var wg sync.WaitGroup
				errCh := make(chan error, workers)
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					n := b.N / workers
					if w < b.N%workers {
						n++
					}
					if n == 0 {
						continue
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := rt.NewSession()
						for i := 0; i < n; i++ {
							if _, err := s.Run(p, cts, ex.PtIn); err != nil {
								errCh <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
			})
		}
	}
}

// BenchmarkPlanRun is the allocation canary of the serving path: one
// warm session executing one plan at steady state. CI runs it with
// -benchtime=1x -benchmem and fails the build if it reports anything
// but "0 B/op, 0 allocs/op" — the PR 3 invariant that keeps concurrent
// serving GC-quiet. It uses a hand-written program on the test-only
// PN2048 preset so the canary needs no synthesis and runs in seconds.
// Its products cover every lift-slot path: two fresh lifts, a square
// (one lift read twice), and a product whose operands both reuse lifts
// earlier products left in the session's slots.
func BenchmarkPlanRun(b *testing.B) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 2, A: 1, B: 0},
			{Op: quill.OpMulCtCt, Dst: 3, A: 2, B: 0},
			{Op: quill.OpRelin, Dst: 4, A: 3},
			{Op: quill.OpMulCtCt, Dst: 5, A: 4, B: 4},
			{Op: quill.OpMulCtCt, Dst: 6, A: 4, B: 0},
			{Op: quill.OpAddCtCt, Dst: 7, A: 5, B: 6},
			{Op: quill.OpRelin, Dst: 8, A: 7},
			{Op: quill.OpMulCtPt, Dst: 9, A: 8, P: quill.PtRef{Input: -1, Const: []int64{3}}},
		},
		Output: 9,
	}
	rt, err := backend.NewTestRuntime("PN2048", 5, l)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		b.Fatal(err)
	}
	if fills, reads := p.LiftCounts(); fills != 3 || reads != 6 {
		b.Fatalf("%d lifts for %d operand reads, want 3 for 6", fills, reads)
	}
	v := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = uint64(j % 61)
	}
	ct, err := rt.EncryptVec(v)
	if err != nil {
		b.Fatal(err)
	}
	s := rt.NewSession()
	// Warm-up: grows the register file and ring pools to steady state,
	// so the measured iterations (even a single one under -benchtime
	// 1x) see the allocation-free path.
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
			b.Fatal(err)
		}
	}
	// A GC cycle drains the ring pools; force the one the setup
	// allocations may have made pending, then refill the pools with a
	// final warm run so it cannot land inside the measured window
	// (-benchtime 1x has a single sample).
	runtime.GC()
	if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDomainAssignedPlanRun is the allocation canary of
// NTT-resident plan execution: a rotation fan (shared groups over one
// decomposition slot) feeding pointwise chains,
// a serial NTT-to-NTT rotation, prepared constant and runtime-input
// plaintext products, and the closing conversion back to the
// coefficient domain — every step kind the domain-assignment pass
// introduces, at steady state. Like BenchmarkPlanRun, CI greps for
// "0 allocs/op" (make alloc-canary).
func BenchmarkDomainAssignedPlanRun(b *testing.B) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpRotCt, Dst: 4, A: 3, Rot: 5},
			{Op: quill.OpAddCtCt, Dst: 5, A: 3, B: 4},
			{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpMulCtPt, Dst: 7, A: 6, P: quill.PtRef{Input: 0}},
			{Op: quill.OpAddCtPt, Dst: 8, A: 7, P: quill.PtRef{Input: -1, Const: []int64{11}}},
		},
		Output: 8,
	}
	rt, err := backend.NewTestRuntime("PN2048", 5, l)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		b.Fatal(err)
	}
	nttRegs, convs := p.DomainStats()
	if nttRegs == 0 || convs == 0 {
		b.Fatalf("plan not NTT-resident: %d NTT regs, %d conversions", nttRegs, convs)
	}
	v := make(quill.Vec, l.VecLen)
	pt := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = uint64(j % 61)
		pt[j] = uint64(j%13 + 1)
	}
	ct, err := rt.EncryptVec(v)
	if err != nil {
		b.Fatal(err)
	}
	s := rt.NewSession()
	// Warm-up: grows the register file, prepared plaintext scratch and
	// ring pools to steady state.
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, []quill.Vec{pt}); err != nil {
			b.Fatal(err)
		}
	}
	// See BenchmarkPlanRun: drain-then-refill the pools so a pending GC
	// cannot fire inside the single measured sample.
	runtime.GC()
	if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, []quill.Vec{pt}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, []quill.Vec{pt}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedRotPlanRun is the allocation canary of double-hoisted
// key-switching: one warm session executing a plan whose shared
// rotation groups fill two decomposition slots and replay them across
// amounts. Like BenchmarkPlanRun, CI runs it with -benchtime=1x
// -benchmem and fails the build on anything but "0 B/op, 0 allocs/op"
// — slot fills reuse per-session scratch and replays must allocate
// nothing.
func BenchmarkSharedRotPlanRun(b *testing.B) {
	// Two inputs rotated by the same three amounts: three cross-source
	// shared groups over two slots, with four replayed members.
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 1},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 5, A: 1, Rot: 2},
			{Op: quill.OpRotCt, Dst: 6, A: 0, Rot: 3},
			{Op: quill.OpRotCt, Dst: 7, A: 1, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 8, A: 2, B: 3},
			{Op: quill.OpAddCtCt, Dst: 9, A: 4, B: 5},
			{Op: quill.OpAddCtCt, Dst: 10, A: 6, B: 7},
			{Op: quill.OpAddCtCt, Dst: 11, A: 8, B: 9},
			{Op: quill.OpAddCtCt, Dst: 12, A: 11, B: 10},
		},
		Output: 12,
	}
	rt, err := backend.NewTestRuntime("PN2048", 5, l)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		b.Fatal(err)
	}
	if g, r, rep := p.SharedGroups(); g != 3 || r != 6 || rep != 4 {
		b.Fatalf("shared groups = %d (%d rotations, %d replayed), want 3 (6, 4)", g, r, rep)
	}
	if p.NumDecomps != 2 {
		b.Fatalf("NumDecomps = %d, want 2", p.NumDecomps)
	}
	cts := make([]*porcupine.Ciphertext, 2)
	for i := range cts {
		v := make(quill.Vec, l.VecLen)
		for j := range v {
			v[j] = uint64((j + i) % 61)
		}
		if cts[i], err = rt.EncryptVec(v); err != nil {
			b.Fatal(err)
		}
	}
	s := rt.NewSession()
	// Warm-up: grows the register file, both decomposition slots and
	// the ring pools to steady state.
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p, cts, nil); err != nil {
			b.Fatal(err)
		}
	}
	// See BenchmarkPlanRun: drain-then-refill the pools so a pending GC
	// cannot fire inside the single measured sample.
	runtime.GC()
	if _, err := s.Run(p, cts, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(p, cts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMuxedPlanRun is the allocation canary of slot-multiplexed
// batching: one warm MuxRunner executing a full lane-packed batch —
// pack rotations, the shared plan evaluation over all lanes, demux
// rotations — at steady state. Like BenchmarkPlanRun, CI runs it with
// -benchtime=1x -benchmem and fails the build on anything but
// "0 B/op, 0 allocs/op": packing k users into one ciphertext must not
// cost the serving runtime its GC-quiet invariant (packed/demuxed
// ciphertexts and plaintext lane buffers live in per-runner scratch).
func BenchmarkMuxedPlanRun(b *testing.B) {
	// A small-vector stencil (VecLen 32, reach ±2): stride 64, 8 lanes
	// on PN2048's 1024-slot row.
	l := &quill.Lowered{
		VecLen: 32, NumCtInputs: 1, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: -2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpMulCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpAddCtPt, Dst: 5, A: 4, P: quill.PtRef{Input: 0}},
		},
		Output: 5,
	}
	ctx, plans, err := backend.NewTestMuxServingContext("PN2048", 5, 0, l)
	if err != nil {
		b.Fatal(err)
	}
	m, err := plan.BuildMux(ctx.Params, ctx.Encoder, plans[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	if m.Lanes < 2 {
		b.Fatalf("stencil not mux-eligible: %d lanes", m.Lanes)
	}
	ctIns := make([][]*porcupine.Ciphertext, m.Lanes)
	ptIns := make([][]quill.Vec, m.Lanes)
	for j := range ctIns {
		v := make(quill.Vec, l.VecLen)
		pt := make(quill.Vec, l.VecLen)
		for s := range v {
			v[s] = uint64((s + j) % 61)
			pt[s] = uint64(s%13 + 1)
		}
		ct, err := ctx.EncryptVec(v)
		if err != nil {
			b.Fatal(err)
		}
		ctIns[j] = []*porcupine.Ciphertext{ct}
		ptIns[j] = []quill.Vec{pt}
	}
	r := ctx.NewMuxRunner(m)
	// Warm-up: grows the runner's packed/output scratch, the register
	// file and ring pools to steady state.
	for i := 0; i < 3; i++ {
		if _, err := r.Run(ctIns, ptIns); err != nil {
			b.Fatal(err)
		}
	}
	// See BenchmarkPlanRun: drain-then-refill the pools so a pending GC
	// cannot fire inside the single measured sample.
	runtime.GC()
	if _, err := r.Run(ctIns, ptIns); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctIns, ptIns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Counts reports the lowered instruction counts and
// depths of baseline vs synthesized kernels as custom metrics (the
// content of Table 2); the measured time is the lowering itself.
func BenchmarkTable2Counts(b *testing.B) {
	for _, name := range benchKernels {
		name := name
		if testing.Short() && slowSearch(name) {
			continue
		}
		b.Run(name, func(b *testing.B) {
			base, err := baseline.Lowered(name)
			if err != nil {
				b.Fatal(err)
			}
			c := compiledKernel(b, name)
			for i := 0; i < b.N; i++ {
				if _, err := quill.Lower(c.Result.Program, quill.DefaultLowerOptions()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(base.InstructionCount()), "base-instrs")
			b.ReportMetric(float64(base.Depth()), "base-depth")
			b.ReportMetric(float64(c.Lowered.InstructionCount()), "synth-instrs")
			b.ReportMetric(float64(c.Lowered.Depth()), "synth-depth")
		})
	}
}

// BenchmarkFigure5BoxBlur measures the full synthesis (including the
// optimality proof) that yields Figure 5's 4-instruction box blur.
func BenchmarkFigure5BoxBlur(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := synth.SynthesizeKernel("box-blur", synth.Options{Seed: int64(i + 1), Timeout: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Lowered.InstructionCount(); n != 4 {
			b.Fatalf("box blur instructions = %d, want 4", n)
		}
	}
}

// BenchmarkFigure6Gx measures the synthesis that yields Figure 6's
// separable 7-instruction Gx kernel.
func BenchmarkFigure6Gx(b *testing.B) {
	if testing.Short() {
		b.Skip("gx synthesis takes tens of seconds")
	}
	for i := 0; i < b.N; i++ {
		// Full optimization: the 7-instruction separable form is the
		// cost-optimal solution, not necessarily the first one found.
		res, err := synth.SynthesizeKernel("gx", synth.Options{Seed: int64(i + 1), Timeout: 10 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Lowered.InstructionCount(); n > 8 {
			b.Fatalf("gx instructions = %d, want ≤ 8", n)
		}
	}
}

// BenchmarkSketchAblation compares initial-solution synthesis time
// between the paper's local-rotate sketches and the explicit-rotation
// alternative (§7.4) on box blur.
func BenchmarkSketchAblation(b *testing.B) {
	spec := kernels.ByName("box-blur")
	for _, explicit := range []bool{false, true} {
		name := "local-rotate"
		if explicit {
			name = "explicit-rotation"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sk, err := synth.DefaultSketch("box-blur")
				if err != nil {
					b.Fatal(err)
				}
				opts := synth.Options{Seed: int64(i + 1), Timeout: 5 * time.Minute, SkipOptimize: true}
				if explicit {
					opts.ExplicitRotation = true
					sk.MaxL += 5
				}
				if _, err := synth.Synthesize(spec, sk, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelPlanRun is the allocation canary of the multi-core
// engine: one warm session executing a plan with both parallel layers
// engaged — ring hot loops fanned across the persistent worker pool
// (Params.SetWorkers) and independent steps of each dependency level
// running concurrently (Session.SetParallelism). CI runs it with
// -benchtime=1x -benchmem and fails the build on anything but
// "0 B/op, 0 allocs/op": the pool hands out pre-allocated descriptors
// and the level runner reuses per-session scratch, so parallelism
// must not cost the serving runtime its GC-quiet invariant.
func BenchmarkParallelPlanRun(b *testing.B) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 3, A: 0, Rot: 4},
			{Op: quill.OpAddCtCt, Dst: 4, A: 1, B: 2},
			{Op: quill.OpAddCtCt, Dst: 5, A: 4, B: 3},
			{Op: quill.OpMulCtCt, Dst: 6, A: 5, B: 0},
			{Op: quill.OpRelin, Dst: 7, A: 6},
		},
		Output: 7,
	}
	rt, err := backend.NewTestRuntime("PN2048", 5, l)
	if err != nil {
		b.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		b.Fatal(err)
	}
	if p.Levels == nil {
		b.Fatal("compiled plan has no levelized schedule")
	}
	v := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = uint64(j % 61)
	}
	ct, err := rt.EncryptVec(v)
	if err != nil {
		b.Fatal(err)
	}
	rt.Params.SetWorkers(2)
	defer rt.Params.SetWorkers(0)
	s := rt.NewSession()
	s.SetParallelism(2)
	// Warm-up: spawns the worker pool, grows the register file,
	// decomposition scratch and ring pools to steady state.
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
			b.Fatal(err)
		}
	}
	// See BenchmarkPlanRun: drain-then-refill the pools so a pending GC
	// cannot fire inside the single measured sample.
	runtime.GC()
	if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(p, []*porcupine.Ciphertext{ct}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// clientCryptoContext is the keyholder's context for the client-crypto
// benchmarks: deterministic keys for a one-rotation program (the keys
// are irrelevant to encrypt/decrypt cost; one Galois key keeps set-up
// short), secure encryption randomness as in production.
func clientCryptoContext(b *testing.B, preset string) (*backend.Context, quill.Vec) {
	b.Helper()
	ctx, err := backend.NewTestContext(preset, 7, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	v := make(quill.Vec, 64)
	for j := range v {
		v[j] = uint64(j*j + 1)
	}
	return ctx, v
}

var clientCryptoPresets = []string{"PN4096", "PN8192"}

// BenchmarkEncryptVec is the allocation canary and the timing record
// of the keyholder's send path (encode + encrypt). CI runs it with
// -benchtime=1x -benchmem against a fixed budget of 8 allocs/op: the
// returned ciphertext (polynomials from the ring pool), never anything
// per coefficient.
func BenchmarkEncryptVec(b *testing.B) {
	for _, preset := range clientCryptoPresets {
		b.Run(preset, func(b *testing.B) {
			ctx, v := clientCryptoContext(b, preset)
			// The ciphertext is recycled, as a client does once the
			// request is encoded, so the ring pool reaches steady state.
			encrypt := func() {
				ct, err := ctx.EncryptVec(v)
				if err != nil {
					b.Fatal(err)
				}
				ctx.Params.RecycleCiphertext(ct)
			}
			// Warm-up fills the ring, plaintext and sampler pools. See
			// BenchmarkPlanRun: drain-then-refill them so a pending GC
			// cannot fire inside the single measured sample.
			encrypt()
			runtime.GC()
			encrypt()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encrypt()
			}
		})
	}
}

// BenchmarkDecryptVec is the same canary for the receive path
// (decrypt + decode of the requested slots): budget 8 allocs/op, the
// returned vector only.
func BenchmarkDecryptVec(b *testing.B) {
	for _, preset := range clientCryptoPresets {
		b.Run(preset, func(b *testing.B) {
			ctx, v := clientCryptoContext(b, preset)
			ct, err := ctx.EncryptVec(v)
			if err != nil {
				b.Fatal(err)
			}
			ctx.DecryptVec(ct, len(v))
			runtime.GC()
			ctx.DecryptVec(ct, len(v))
			b.ReportAllocs()
			b.ResetTimer()
			var got quill.Vec
			for i := 0; i < b.N; i++ {
				got = ctx.DecryptVec(ct, len(v))
			}
			b.StopTimer()
			for j := range v {
				if got[j] != v[j] {
					b.Fatalf("slot %d: got %d, want %d", j, got[j], v[j])
				}
			}
		})
	}
}

// BenchmarkWireRoundTrip is the allocation canary and the timing record
// of the four codecs at PN4096: EncodeRequest of a fresh (seeded)
// ciphertext → DecodeRequest → EncodeResponse of an evaluated one →
// DecodeResponse, recycling the decoded ciphertexts as the serving
// process and a client do. It reports the packed sizes (req-B, resp-B);
// CI holds B/op to 1.5× their sum — the two encoded buffers, nothing
// per polynomial.
func BenchmarkWireRoundTrip(b *testing.B) {
	ctx, v := clientCryptoContext(b, "PN4096")
	params := ctx.Params
	in, err := ctx.EncryptVec(v)
	if err != nil {
		b.Fatal(err)
	}
	out, err := ctx.Eval.RotateRows(in, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := &porcupine.WireRequest{CtIn: []*porcupine.Ciphertext{in}}
	var reqLen, respLen int
	roundTrip := func() {
		body, err := wire.EncodeRequest(params, req)
		if err != nil {
			b.Fatal(err)
		}
		got, err := wire.DecodeRequest(params, body)
		if err != nil {
			b.Fatal(err)
		}
		params.RecycleCiphertext(got.CtIn[0])
		resp, err := wire.EncodeResponse(params, out)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := wire.DecodeResponse(params, resp)
		if err != nil {
			b.Fatal(err)
		}
		params.RecycleCiphertext(ct)
		reqLen, respLen = len(body), len(resp)
	}
	roundTrip()
	runtime.GC()
	roundTrip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.ReportMetric(float64(reqLen), "req-B")
	b.ReportMetric(float64(respLen), "resp-B")
}

// BenchmarkKeyGen times a keyholder's full key generation (secret,
// relinearization and eight Galois keys) — the backend.keygen_s
// share of every workload's set-up.
func BenchmarkKeyGen(b *testing.B) {
	rots := []int{1, 2, 3, 4, -1, -2, -3, -4}
	for _, preset := range clientCryptoPresets {
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backend.NewTestContext(preset, 7, rots); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
