package backend

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/quill"
)

// TestParallelPlanMatchesSerialKernels is the differential leg of the
// multi-core engine: on the full 11-kernel suite, the interpreter, the
// serial plan schedule, and the levelized parallel schedule (ring
// workers + step-level parallelism) must produce bit-identical output
// ciphertexts at workers ∈ {2, 4}. The parallel run engages both
// layers at once: Parameters.SetWorkers routes every ring hot loop
// through the worker pool, and Session.SetParallelism fans the
// independent steps of each dependency level out across it.
func TestParallelPlanMatchesSerialKernels(t *testing.T) {
	names := baseline.Names()
	if testing.Short() {
		// polynomial-regression keeps the race job on products: a
		// square, and a lift two same-level products may share.
		names = []string{"box-blur", "dot-product", "polynomial-regression"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec := kernels.ByName(name)
			l, err := baseline.Lowered(name)
			if err != nil {
				t.Fatal(err)
			}
			preset := "PN4096"
			if l.MultDepth() > 2 {
				preset = "PN8192"
			}
			rt, err := NewTestRuntime(preset, 7, l)
			if err != nil {
				t.Fatal(err)
			}
			p, err := rt.Plan(l)
			if err != nil {
				t.Fatal(err)
			}
			if p.Levels == nil {
				t.Fatal("compiled plan has no levelized schedule")
			}
			depth, width := p.LevelStats()
			t.Logf("%s: %d steps, %d levels, max width %d", name, len(p.Steps), depth, width)

			rng := rand.New(rand.NewSource(5))
			assign := make([]uint64, spec.NumVars)
			for i := range assign {
				assign[i] = rng.Uint64() % 64
			}
			ex := spec.NewExample(assign)
			cts := make([]*bfv.Ciphertext, len(ex.CtIn))
			for i, v := range ex.CtIn {
				if cts[i], err = rt.EncryptVec(v); err != nil {
					t.Fatal(err)
				}
			}
			ref, err := rt.RunInterpreter(l, cts, ex.PtIn)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			serial := rt.NewSession()
			sOut, err := serial.Run(p, cts, ex.PtIn)
			if err != nil {
				t.Fatalf("serial plan: %v", err)
			}
			if !sameCiphertext(rt.Params, ref, sOut) {
				t.Fatal("serial plan not bit-identical to interpreter")
			}
			for _, w := range []int{2, 4} {
				rt.Params.SetWorkers(w)
				sess := rt.NewSession()
				sess.SetParallelism(w)
				pOut, err := sess.Run(p, cts, ex.PtIn)
				rt.Params.SetWorkers(0)
				if err != nil {
					t.Fatalf("parallel plan (workers=%d): %v", w, err)
				}
				if !sameCiphertext(rt.Params, ref, pOut) {
					t.Fatalf("parallel plan (workers=%d) not bit-identical to interpreter", w)
				}
			}
			dec := rt.DecryptVec(sOut, spec.VecLen)
			if !spec.Matches(dec, ex) {
				t.Fatal("output disagrees with the plaintext reference")
			}
		})
	}
}

// TestParallelSessionsConcurrent drives concurrent sessions over one
// context with both ring-level and step-level parallelism engaged —
// the serving configuration the scheduler runs — and checks every
// result bit-identical to the serial reference. Runs under -race in
// the CI race job (backend is on the race path), giving the worker
// pool cross-session race coverage.
func TestParallelSessionsConcurrent(t *testing.T) {
	l, err := baseline.Lowered("box-blur")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewTestRuntime("PN4096", 11, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	spec := kernels.ByName("box-blur")
	rng := rand.New(rand.NewSource(7))
	assign := make([]uint64, spec.NumVars)
	for i := range assign {
		assign[i] = rng.Uint64() % 64
	}
	ex := spec.NewExample(assign)
	cts := make([]*bfv.Ciphertext, len(ex.CtIn))
	for i, v := range ex.CtIn {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := rt.RunInterpreter(l, cts, ex.PtIn)
	if err != nil {
		t.Fatal(err)
	}

	rt.Params.SetWorkers(2)
	defer rt.Params.SetWorkers(0)
	const goroutines = 4
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := rt.NewSession()
			sess.SetParallelism(2)
			for it := 0; it < iters; it++ {
				out, err := sess.Run(p, cts, ex.PtIn)
				if err != nil {
					errs[g] = err
					return
				}
				if !sameCiphertext(rt.Params, ref, out) {
					errs[g] = fmt.Errorf("iteration %d not bit-identical to interpreter", it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", g, err)
		}
	}
}

// TestLevelizedScheduleShape sanity-checks the levelizer on a plan
// with known structure: independent rotations must share a level, and
// a chain of dependent adds must occupy distinct levels. The rotations
// read distinct sources by distinct amounts, so they stay plain steps
// (rotations of one source, or by one amount, would form shared
// groups).
func TestLevelizedScheduleShape(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 3,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 3, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 4, A: 1, Rot: 2},
			{Op: quill.OpRotCt, Dst: 5, A: 2, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 6, A: 3, B: 4},
			{Op: quill.OpAddCtCt, Dst: 7, A: 6, B: 5},
		},
		Output: 7,
	}
	rt, err := NewTestRuntime("PN2048", 5, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	if g, _, _ := p.SharedGroups(); g != 0 {
		t.Fatalf("plan has %d shared groups, want only plain rotations", g)
	}
	if p.Levels == nil {
		t.Fatal("no levels")
	}
	depth, width := p.LevelStats()
	if depth >= len(p.Steps) && width > 1 {
		t.Fatalf("inconsistent schedule: depth %d, width %d over %d steps", depth, width, len(p.Steps))
	}
	// Every step appears in exactly one level, and every operand a step
	// reads is written in a strictly earlier level (or is an input).
	seen := make(map[int]int)
	for lv, steps := range p.Levels {
		for _, i := range steps {
			if prev, dup := seen[i]; dup {
				t.Fatalf("step %d in levels %d and %d", i, prev, lv)
			}
			seen[i] = lv
		}
	}
	if len(seen) != len(p.Steps) {
		t.Fatalf("levels cover %d of %d steps", len(seen), len(p.Steps))
	}
	// The three independent rotations must share level 0; the dependent
	// adds must sit strictly deeper.
	if got := len(p.Levels[0]); got != 3 {
		t.Fatalf("level 0 has %d steps, want the 3 independent rotations", got)
	}
	if depth < 3 {
		t.Fatalf("depth %d, want >= 3 (rotations, then add, then add)", depth)
	}
}
