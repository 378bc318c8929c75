// Command hebench regenerates every table and figure of the paper's
// evaluation (§7):
//
//	hebench -experiment fig4      Figure 4: speedup of synthesized vs baseline kernels
//	hebench -experiment table2    Table 2: instruction count and depth
//	hebench -experiment table3    Table 3: synthesis time, examples, cost trajectory
//	hebench -experiment fig5      Figure 5: box blur programs, synthesized vs baseline
//	hebench -experiment fig6      Figure 6: Gx programs, synthesized vs baseline
//	hebench -experiment ablation  §7.4: local-rotate vs explicit-rotation sketches
//	hebench -experiment all       everything above
//
// Absolute numbers depend on the machine and on this repository's
// pure-Go BFV backend; the shapes (who wins, by roughly how much) are
// the reproduction target. See EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"porcupine"
	"porcupine/internal/backend"
	"porcupine/internal/core"
	"porcupine/internal/kernels"
	"porcupine/internal/quill"
	"porcupine/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hebench:", err)
		os.Exit(1)
	}
}

var (
	experiment = flag.String("experiment", "all", "fig4 | table2 | table3 | fig5 | fig6 | ablation | all")
	runs       = flag.Int("runs", 50, "timed executions per kernel for fig4 (paper: 50)")
	repeats    = flag.Int("repeats", 3, "synthesis repetitions for table3 (paper: median of 3)")
	timeout    = flag.Duration("timeout", 20*time.Minute, "per-kernel synthesis budget (paper: 20 min)")
	seed       = flag.Int64("seed", 1, "base random seed")
	quick      = flag.Bool("quick", false, "small runs/repeats for smoke testing")
)

func run() error {
	flag.Parse()
	if *quick {
		*runs = 3
		*repeats = 1
	}
	switch *experiment {
	case "fig4":
		return fig4()
	case "table2":
		return table2()
	case "table3":
		return table3()
	case "fig5":
		return figProgram("box-blur", "Figure 5: box blur")
	case "fig6":
		return figProgram("gx", "Figure 6: Gx")
	case "ablation":
		return ablation()
	case "all":
		for _, f := range []func() error{table2, table3,
			func() error { return figProgram("box-blur", "Figure 5: box blur") },
			func() error { return figProgram("gx", "Figure 6: Gx") },
			ablation, fig4} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", *experiment)
}

func synthOpts() porcupine.Options {
	return porcupine.Options{Timeout: *timeout, Seed: *seed}
}

var suiteCache *core.Suite

func suite() (*core.Suite, error) {
	if suiteCache != nil {
		return suiteCache, nil
	}
	fmt.Println("compiling the full kernel suite (synthesis)...")
	s, err := core.CompileSuite(nil, synthOpts())
	if err != nil {
		return nil, err
	}
	suiteCache = s
	return s, nil
}

// --- Figure 4 -------------------------------------------------------

func fig4() error {
	s, err := suite()
	if err != nil {
		return err
	}
	fmt.Printf("\n=== Figure 4: speedup of synthesized vs baseline (avg of %d runs) ===\n", *runs)
	fmt.Printf("%-22s %8s %14s %14s %9s\n", "kernel", "preset", "baseline", "synthesized", "speedup")
	var geo float64
	var count int
	for _, name := range core.AllKernels() {
		c := s.Kernels[name]
		base, err := core.BaselineLowered(name)
		if err != nil {
			return err
		}
		preset := backend.PresetFor(base, c.Lowered)
		baseLat, synthLat, err := timeKernelPair(c.Spec, base, c.Lowered, preset)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		speedup := 100 * (baseLat.Seconds() - synthLat.Seconds()) / baseLat.Seconds()
		fmt.Printf("%-22s %8s %14v %14v %8.1f%%\n", name, preset,
			baseLat.Round(time.Microsecond), synthLat.Round(time.Microsecond), speedup)
		geo += baseLat.Seconds() / synthLat.Seconds()
		count++
	}
	fmt.Printf("(paper: up to 51%% speedup, 11%% geometric mean)\n")
	return nil
}

// timeKernelPair measures average HE execution latency for the
// baseline and synthesized versions of a kernel on the same runtime
// and inputs.
func timeKernelPair(spec *kernels.Spec, base, synthd *quill.Lowered, preset string) (time.Duration, time.Duration, error) {
	rt, err := backend.NewRuntime(preset, base, synthd)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(*seed))
	assign := make([]uint64, spec.NumVars)
	for i := range assign {
		assign[i] = rng.Uint64() % 64
	}
	ex := spec.NewExample(assign)
	cts := make([]*porcupine.Ciphertext, len(ex.CtIn))
	for i, v := range ex.CtIn {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			return 0, 0, err
		}
	}
	measure := func(l *quill.Lowered) (time.Duration, error) {
		var total time.Duration
		for r := 0; r < *runs; r++ {
			out, dur, err := rt.TimedRun(l, cts, ex.PtIn)
			if err != nil {
				return 0, err
			}
			if r == 0 {
				got := rt.DecryptVec(out, spec.VecLen)
				if !spec.Matches(got, ex) {
					return 0, fmt.Errorf("output mismatch on BFV")
				}
			}
			total += dur
		}
		return total / time.Duration(*runs), nil
	}
	baseLat, err := measure(base)
	if err != nil {
		return 0, 0, err
	}
	synthLat, err := measure(synthd)
	if err != nil {
		return 0, 0, err
	}
	return baseLat, synthLat, nil
}

// --- Table 2 --------------------------------------------------------

func table2() error {
	s, err := suite()
	if err != nil {
		return err
	}
	fmt.Println("\n=== Table 2: instruction count and depth ===")
	fmt.Printf("%-22s %16s %16s\n", "", "Baseline", "Synthesized")
	fmt.Printf("%-22s %8s %7s %8s %7s\n", "kernel", "instr", "depth", "instr", "depth")
	for _, name := range core.AllKernels() {
		base, err := core.BaselineLowered(name)
		if err != nil {
			return err
		}
		c := s.Kernels[name]
		fmt.Printf("%-22s %8d %7d %8d %7d\n", name,
			base.InstructionCount(), base.Depth(),
			c.Lowered.InstructionCount(), c.Lowered.Depth())
	}
	fmt.Println("(relinearization counted explicitly in both columns; see EXPERIMENTS.md)")
	return nil
}

// --- Table 3 --------------------------------------------------------

func table3() error {
	fmt.Printf("\n=== Table 3: synthesis time and cost (median of %d runs) ===\n", *repeats)
	fmt.Printf("%-22s %8s %12s %12s %12s %12s\n",
		"kernel", "examples", "initial (s)", "total (s)", "init cost", "final cost")
	for _, name := range core.DirectKernels() {
		type runStat struct {
			examples            int
			initial, total      time.Duration
			initCost, finalCost float64
		}
		var stats []runStat
		for r := 0; r < *repeats; r++ {
			opts := synthOpts()
			opts.Seed = *seed + int64(r)
			res, err := synth.SynthesizeKernel(name, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			stats = append(stats, runStat{res.Examples, res.InitialTime, res.TotalTime,
				res.InitialCost, res.FinalCost})
		}
		sort.Slice(stats, func(i, j int) bool { return stats[i].total < stats[j].total })
		m := stats[len(stats)/2]
		fmt.Printf("%-22s %8d %12.2f %12.2f %12.0f %12.0f\n", name,
			m.examples, m.initial.Seconds(), m.total.Seconds(), m.initCost, m.finalCost)
	}
	return nil
}

// --- Figures 5 and 6 -------------------------------------------------

func figProgram(name, title string) error {
	s, err := suite()
	if err != nil {
		return err
	}
	base, err := core.BaselineLowered(name)
	if err != nil {
		return err
	}
	c := s.Kernels[name]
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("--- synthesized (%d instructions, depth %d) ---\n%s\n",
		c.Lowered.InstructionCount(), c.Lowered.Depth(), c.Lowered)
	fmt.Printf("--- baseline (%d instructions, depth %d) ---\n%s\n",
		base.InstructionCount(), base.Depth(), base)
	return nil
}

// --- §7.4 ablation ---------------------------------------------------

func ablation() error {
	fmt.Println("\n=== §7.4: local-rotate vs explicit-rotation sketches ===")
	fmt.Printf("%-12s %-18s %12s %8s\n", "kernel", "sketch", "initial (s)", "L")
	for _, name := range []string{"box-blur", "gx"} {
		for _, explicit := range []bool{false, true} {
			spec := kernels.ByName(name)
			sk, err := synth.DefaultSketch(name)
			if err != nil {
				return err
			}
			label := "local-rotate"
			opts := synthOpts()
			opts.SkipOptimize = true
			if explicit {
				label = "explicit-rotation"
				opts.ExplicitRotation = true
				// Rotations now occupy components: widen L.
				sk.MaxL += 5
			}
			start := time.Now()
			res, err := synth.Synthesize(spec, sk, opts)
			if err != nil {
				fmt.Printf("%-12s %-18s %12s\n", name, label, "timeout/"+trimErr(err))
				continue
			}
			fmt.Printf("%-12s %-18s %12.2f %8d\n", name, label, time.Since(start).Seconds(), res.L)
		}
	}
	fmt.Println("(paper: explicit rotation scales poorly — 400s vs 70s initial solution on Gx)")
	return nil
}

func trimErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i > 0 {
		return s[:i]
	}
	return s
}
