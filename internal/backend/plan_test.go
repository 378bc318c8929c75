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

// sameCiphertext reports whether two ciphertexts are bit-identical:
// same degree, same residues in every slot of every polynomial.
func sameCiphertext(params *bfv.Parameters, a, b *bfv.Ciphertext) bool {
	if a.Degree() != b.Degree() {
		return false
	}
	for i := range a.Value {
		if !params.RingQ().Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestPlanVsInterpreterRandom cross-checks the plan path against the
// instruction-at-a-time interpreter on random programs: outputs must
// be bit-identical ciphertexts (same deterministic noise, not just
// same decryption).
func TestPlanVsInterpreterRandom(t *testing.T) {
	params, err := bfv.NewParametersFromPreset("PN2048")
	if err != nil {
		t.Fatal(err)
	}
	vecLen := params.SlotCount()
	steps := []int{1, -1, 2, -3, 5, 17, -64, 511}

	keyProg := &quill.Lowered{VecLen: vecLen, NumCtInputs: 1}
	next := 1
	for _, s := range steps {
		keyProg.Instrs = append(keyProg.Instrs, quill.LInstr{Op: quill.OpRotCt, Dst: next, A: 0, Rot: s})
		next++
	}
	keyProg.Output = next - 1
	rt, err := NewTestRuntime("PN2048", 23, keyProg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		l := randomLowered(rng, vecLen, steps)
		ctIn := make([]quill.Vec, l.NumCtInputs)
		cts := make([]*bfv.Ciphertext, l.NumCtInputs)
		for i := range ctIn {
			v := make(quill.Vec, vecLen)
			for j := range v {
				v[j] = rng.Uint64() % 64
			}
			ctIn[i] = v
			if cts[i], err = rt.EncryptVec(v); err != nil {
				t.Fatal(err)
			}
		}
		ptIn := make([]quill.Vec, l.NumPtInputs)
		for i := range ptIn {
			v := make(quill.Vec, vecLen)
			for j := range v {
				v[j] = rng.Uint64() % 64
			}
			ptIn[i] = v
		}

		ref, refErr := rt.RunInterpreter(l, cts, ptIn)
		if refErr != nil {
			// Random programs may feed an unrelinearized degree-2 value
			// into a rotation or multiply; both paths must reject those.
			if _, planErr := rt.Run(l, cts, ptIn); planErr == nil {
				t.Fatalf("trial %d: interpreter rejects (%v) but plan accepts\n%s", trial, refErr, l)
			}
			continue
		}
		got, err := rt.Run(l, cts, ptIn)
		if err != nil {
			t.Fatalf("trial %d: plan: %v\n%s", trial, err, l)
		}
		if !sameCiphertext(rt.Params, ref, got) {
			t.Fatalf("trial %d: plan output ciphertext differs from interpreter\n%s", trial, l)
		}
		want, err := quill.RunLowered(l, quill.ConcreteSem{}, ctIn, ptIn)
		if err != nil {
			t.Fatal(err)
		}
		dec := rt.DecryptVec(got, vecLen)
		for i := range want {
			if dec[i] != want[i] {
				t.Fatalf("trial %d: slot %d: plan %d != abstract %d\n%s", trial, i, dec[i], want[i], l)
			}
		}
	}
}

// TestPlanVsInterpreterKernels proves the plan path bit-identical to
// the interpreter on the full 11-kernel suite (the hand-written
// baseline programs, which avoid synthesis cost in the test).
func TestPlanVsInterpreterKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kernel on the BFV backend (slow)")
	}
	for _, name := range append([]string{"sobel", "harris"},
		"box-blur", "dot-product", "hamming-distance", "l2-distance",
		"linear-regression", "polynomial-regression", "gx", "gy", "roberts-cross") {
		t.Run(name, func(t *testing.T) {
			spec := kernels.ByName(name)
			l, err := baseline.Lowered(name)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewTestRuntime(PresetFor(l), 7, l)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
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
			got, err := rt.Run(l, cts, ex.PtIn)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			if !sameCiphertext(rt.Params, ref, got) {
				t.Fatal("plan output ciphertext not bit-identical to interpreter")
			}
			dec := rt.DecryptVec(got, spec.VecLen)
			if !spec.Matches(dec, ex) {
				t.Fatal("plan output disagrees with the plaintext reference")
			}
		})
	}
}

// TestConcurrentSessions runs one plan from many goroutine-local
// sessions against a single shared context and requires every output
// to be bit-identical to the sequential reference — the serving model
// (run with -race in CI).
func TestConcurrentSessions(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
			{Op: quill.OpMulCtCt, Dst: 4, A: 3, B: 0},
			{Op: quill.OpRelin, Dst: 5, A: 4},
			{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: 0}},
			{Op: quill.OpSubCtCt, Dst: 7, A: 6, B: 1},
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
	rng := rand.New(rand.NewSource(8))
	mk := func() quill.Vec {
		v := make(quill.Vec, l.VecLen)
		for j := range v {
			v[j] = rng.Uint64() % 64
		}
		return v
	}
	ctIn := []quill.Vec{mk(), mk()}
	ptIn := []quill.Vec{mk()}
	cts := make([]*bfv.Ciphertext, 2)
	for i, v := range ctIn {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := rt.RunInterpreter(l, cts, ptIn)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := rt.NewSession()
			for i := 0; i < iters; i++ {
				out, err := s.Run(p, cts, ptIn)
				if err != nil {
					errs <- err
					return
				}
				if !sameCiphertext(rt.Params, ref, out) {
					errs <- fmt.Errorf("concurrent session output diverged from reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionRunAllocationFree checks the serving guarantee: after a
// warm-up run, plan execution performs (almost) no heap allocations —
// scratch comes from the session's register file and the ring pools.
func TestSessionRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless under -race")
	}
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 2, A: 1, B: 0},
			{Op: quill.OpMulCtCt, Dst: 3, A: 2, B: 0},
			{Op: quill.OpRelin, Dst: 4, A: 3},
		},
		Output: 4,
	}
	rt, err := NewTestRuntime("PN2048", 5, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	v := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = uint64(j % 61)
	}
	ct, err := rt.EncryptVec(v)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.NewSession()
	if _, err := s.Run(p, []*bfv.Ciphertext{ct}, nil); err != nil {
		t.Fatal(err)
	}
	// Steady state is fully allocation-free (registers, ring pools and
	// stack scratch); allow a tiny residue for sync.Pool refills after
	// a GC between runs.
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(p, []*bfv.Ciphertext{ct}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("steady-state plan execution allocates %.0f objects/run, want ≤ 8", allocs)
	}
}
