package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/codegen"
	"porcupine/internal/compose"
	"porcupine/internal/core"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/synth"
)

// compiled is one set-up of compile-cold: the suite synthesized into
// an empty cache, and everything needed to run what came out.
type compiled struct {
	cacheDir string
	report   *core.BuildReport
	kernels  []*genKernel
	ctxs     []*backend.Context // one per preset in use
	plans    []*plan.ExecutionPlan
	cost     float64 // sum of the §5.2 objective over the suite
	instrs   int     // sum of lowered instruction counts
	keygen   time.Duration
}

// genKernel is one synthesized kernel ready to run.
type genKernel struct {
	name string
	spec *kernels.Spec
	ctx  *backend.Context
	sess *backend.Session
	gen  *plan.ExecutionPlan
	base *plan.ExecutionPlan // hand-written baseline; traced runs only
	exs  []*kernels.Example
	cts  [][]*bfv.Ciphertext
}

func (c *compiled) close() { os.RemoveAll(c.cacheDir) }

// setupCompile is what a kernel author waits for before the first run
// of generated code: synthesize the suite into an empty cache, then
// plan the programs, generate keys and encrypt inputs, as the Figure 4
// protocol does. withBaseline also plans each kernel's hand-written
// baseline on the same context.
func setupCompile(cfg *config, seed int64, withBaseline bool, tr *tracer) (_ *compiled, err error) {
	c := &compiled{}
	if c.cacheDir, err = os.MkdirTemp(cfg.scratch, "synthcache-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	root := tr.begin("setup", notOp, -1, time.Now())
	defer func() { tr.end(root, time.Now()) }()

	if c.report, err = buildSuite(cfg, c.cacheDir, tr, root); err != nil {
		return nil, err
	}
	cm := quill.DefaultCostModel()
	byPreset := map[string][]*genKernel{}
	var presets []string
	for _, name := range cfg.compileKernels {
		l := c.report.Entries[name].Compiled.Lowered
		c.cost += cm.Cost(l)
		c.instrs += l.InstructionCount()
		// The Figure 4 rule: the smaller parameter set unless either
		// program is deeper than it can evaluate.
		base, err := baseline.Lowered(name)
		if err != nil {
			return nil, err
		}
		preset := cfg.shallowPreset
		if max(l.MultDepth(), base.MultDepth()) > 2 {
			preset = cfg.deepPreset
		}
		if byPreset[preset] == nil {
			presets = append(presets, preset)
		}
		g := &genKernel{name: name, spec: kernels.ByName(name)}
		byPreset[preset] = append(byPreset[preset], g)
		c.kernels = append(c.kernels, g)
	}
	for _, preset := range presets {
		group := byPreset[preset]
		var progs []*quill.Lowered
		for _, g := range group {
			progs = append(progs, c.report.Entries[g.name].Compiled.Lowered)
		}
		if withBaseline {
			for _, g := range group {
				base, _ := baseline.Lowered(g.name)
				progs = append(progs, base)
			}
		}
		var ctx *backend.Context
		var plans []*plan.ExecutionPlan
		c.keygen += tr.timed("backend.context", notOp, root, func() {
			ctx, plans, err = backend.NewTestServingContext(preset, keySeed, progs...)
		})
		if err != nil {
			return nil, err
		}
		c.ctxs = append(c.ctxs, ctx)
		c.plans = append(c.plans, plans[:len(group)]...)
		sess := ctx.NewSession()
		for i, g := range group {
			g.ctx, g.sess, g.gen = ctx, sess, plans[i]
			if withBaseline {
				g.base = plans[len(group)+i]
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, g := range c.kernels {
		for range examplesPerKernel {
			ex := g.spec.RandomExample(rng)
			cts := make([]*bfv.Ciphertext, len(ex.CtIn))
			for i, v := range ex.CtIn {
				if cts[i], err = g.ctx.EncryptVec(v); err != nil {
					return nil, err
				}
			}
			g.exs = append(g.exs, ex)
			g.cts = append(g.cts, cts)
		}
		// A session sizes its register file on its first run of a plan.
		for _, p := range []*plan.ExecutionPlan{g.gen, g.base} {
			if p == nil {
				continue
			}
			if _, err := g.run(p, 0, nil, ""); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// buildSuite runs core.BuildSuite over the workload's kernels against
// the cache directory, with one span per kernel's search.
func buildSuite(cfg *config, cacheDir string, tr *tracer, parent int) (*core.BuildReport, error) {
	// A fresh Cache value per build: a rebuild must find earlier results
	// on disk, as a new compiler process would, not in memory.
	cache, err := synth.OpenCache(cacheDir)
	if err != nil {
		return nil, err
	}
	id := tr.begin("core.build", notOp, parent, time.Now())
	open := map[string]int{}
	rep, err := core.BuildSuite(cfg.compileKernels, core.BuildOptions{
		Opts:  core.DefaultSynthOptions(),
		Cache: cache,
		Progress: func(ev synth.Event) {
			switch ev.Kind {
			case synth.JobStarted:
				open[ev.Name] = tr.begin("synth."+ev.Name, notOp, id, time.Now())
			case synth.JobFinished:
				tr.end(open[ev.Name], time.Now())
			}
		},
	})
	tr.end(id, time.Now())
	if err != nil {
		return nil, err
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return nil, fmt.Errorf("kernels failed to compile: %v: %w", failed, rep.Entries[failed[0]].Err)
	}
	return rep, nil
}

// run executes one of the kernel's plans on example e and compares
// the decrypted output with the plaintext reference. Only the
// Session.Run call, the span called name, is on the clock.
func (g *genKernel) run(p *plan.ExecutionPlan, e int, tr *tracer, name string) (time.Duration, error) {
	var out *bfv.Ciphertext
	var err error
	id := tr.newOp()
	root := tr.begin("op", id, -1, time.Now())
	defer func() { tr.end(root, time.Now()) }()
	took := tr.timed(name, id, root, func() { out, err = g.sess.Run(p, g.cts[e], g.exs[e].PtIn) })
	if err != nil {
		return 0, fmt.Errorf("%s: %w", g.name, err)
	}
	var got quill.Vec
	tr.timed("client.decrypt", id, root, func() { got = g.ctx.DecryptVec(out, g.spec.VecLen) })
	if !g.spec.Matches(got, g.exs[e]) {
		return 0, fmt.Errorf("%s: decrypted output differs from the reference", g.name)
	}
	return took, nil
}

// runGenerated executes the synthesized programs round-robin for dur,
// all on one goroutine. Traced, every synthesized run is followed by
// a run of the kernel's baseline on the same input.
func (c *compiled) runGenerated(dur time.Duration, tr *tracer) *loopOut {
	out := &loopOut{}
	start, cpu0 := time.Now(), cpuSeconds()
	for n := 0; time.Since(start) < dur; n++ {
		k := n % len(c.kernels)
		e := (n / len(c.kernels)) % examplesPerKernel
		g := c.kernels[k]
		took, err := g.run(g.gen, e, tr, "backend.run")
		if err != nil {
			out.fail(err)
			continue
		}
		if tr != nil {
			base, err := g.run(g.base, e, tr, "backend.run_baseline")
			if err != nil {
				out.fail(err)
				continue
			}
			out.baseOps = append(out.baseOps, op{kernel: k, ms: ms(base)})
		}
		out.ops = append(out.ops, op{kernel: k, ms: ms(took)})
	}
	out.window, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return out
}

// compileLayers fills the compiler's per-layer metrics: warm rebuilds
// against the populated cache, then each pass called on its own.
func (c *compiled) compileLayers(cfg *config, tr *tracer, layer map[string]float64) error {
	rep := c.report
	layer["compile.cold_s"] = rep.Wall.Seconds()
	for _, name := range rep.Order {
		ent := rep.Entries[name]
		if res := ent.Compiled.Result; res != nil {
			key := "synth.search_s." + name
			if _, ok := perLayerUnits[key]; !ok {
				key = "synth.search_s.rest"
			}
			layer[key] += ent.Wall.Seconds()
			layer["synth.nodes"] += float64(res.Nodes)
			layer["synth.examples"] += float64(res.Examples)
		}
	}
	layer["suite.cost"], layer["suite.instrs"] = c.cost, float64(c.instrs)

	var warm []float64
	var hits, entries int
	for range 3 {
		w, err := buildSuite(cfg, c.cacheDir, tr, -1)
		if err != nil {
			return err
		}
		warm = append(warm, w.Wall.Seconds())
		for _, ent := range w.Entries {
			entries++
			if ent.FromCache {
				hits++
			}
		}
	}
	layer["compile.warm_s"] = median(warm)
	layer["synth.cache_hit_share"] = float64(hits) / float64(entries)

	// each times one pass called on its own; after a failure the
	// remaining passes are skipped.
	var err error
	each := func(metric, spanName string, fn func() error) {
		if err == nil {
			layer[metric] += ms(tr.timed(spanName, notOp, -1, func() { err = fn() }))
		}
	}
	progs := map[string]*quill.Program{}
	for _, name := range cfg.compileKernels {
		comp := rep.Entries[name].Compiled
		each("kernels.check_ms", "kernels.check", func() error {
			ok, err := comp.Spec.CheckLowered(comp.Lowered)
			if err == nil && !ok {
				err = fmt.Errorf("%s: CheckLowered rejects the compiled program", name)
			}
			return err
		})
		each("codegen.emit_ms", "codegen.emit", func() error {
			src, err := codegen.EmitSEAL(comp.Lowered, codegen.Options{})
			layer["codegen.bytes"] += float64(len(src))
			return err
		})
		if comp.Result == nil {
			continue
		}
		progs[name] = comp.Result.Program
		var l *quill.Lowered
		each("quill.lower_ms", "quill.lower", func() (err error) {
			l, err = quill.Lower(comp.Result.Program, quill.DefaultLowerOptions())
			return err
		})
		each("quill.optimize_ms", "quill.optimize", func() (err error) {
			_, err = quill.OptimizeLowered(l)
			return err
		})
	}
	gx, gy, blur := progs["gx"], progs["gy"], progs["box-blur"]
	if err != nil || gx == nil || gy == nil || blur == nil {
		return err
	}
	var harris *quill.Lowered
	each("compose.sobel_ms", "compose.sobel", func() error {
		_, err := compose.Sobel(gx, gy)
		return err
	})
	each("compose.harris_ms", "compose.harris", func() (err error) {
		harris, err = compose.Harris(gx, gy, blur)
		return err
	})
	each("synth.cache_put_ms", "synth.cache_put", func() error {
		cache, err := synth.OpenCache(c.cacheDir)
		if err == nil {
			err = cache.PutLowered("benchmark-probe", "harris", harris)
		}
		return err
	})
	each("synth.cache_get_ms", "synth.cache_get", func() error {
		cache, err := synth.OpenCache(c.cacheDir)
		if err == nil && cache.GetLowered("benchmark-probe") == nil {
			err = fmt.Errorf("synthesis cache lost the probe entry")
		}
		return err
	})
	return err
}
