package backend

import (
	"math/rand"
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// TestSharedDifferentialKernels is the acceptance differential of
// double-hoisted key switching: on the full 11-kernel suite, the
// instruction-at-a-time interpreter and the plan (whose rotations run
// in shared groups) must produce bit-identical output ciphertexts. In
// -short mode two representative kernels run (one stencil with
// replays, one reduction without).
func TestSharedDifferentialKernels(t *testing.T) {
	names := []string{
		"box-blur", "dot-product", "hamming-distance", "l2-distance",
		"linear-regression", "polynomial-regression", "gx", "gy",
		"roberts-cross", "sobel", "harris",
	}
	if testing.Short() {
		names = []string{"sobel", "dot-product"}
	}
	for _, name := range names {
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
			p, err := rt.Plan(l)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(11))
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
			out, err := rt.NewSession().Run(p, cts, ex.PtIn)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			if !sameCiphertext(rt.Params, ref, out) {
				t.Fatal("plan not bit-identical to interpreter")
			}
			dec := rt.DecryptVec(out, spec.VecLen)
			if !spec.Matches(dec, ex) {
				t.Fatal("plan output disagrees with the plaintext reference")
			}
		})
	}
}

// sharedStencilProgram rotates two inputs by the same three amounts —
// three cross-source groups whose later members replay both resident
// decompositions. This is the backend's canonical double-hoisted
// shape: fills and replays, two live slots, per-amount Galois state.
func sharedStencilProgram() *quill.Lowered {
	return &quill.Lowered{
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
}

// deepFanProgram rotates one input by 8 distinct amounts on the full
// PN2048 row — positive and negative/wraparound amounts, so
// canonicalization is active — plus a duplicate of the first rotation,
// which rotation CSE must fold into the fan instead of executing
// twice, and sums everything.
func deepFanProgram() *quill.Lowered {
	rots := []int{1, 2, 4, 8, 16, -1, -7, 1000}
	l := &quill.Lowered{VecLen: 1024, NumCtInputs: 1}
	next := 1
	for _, r := range rots {
		l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpRotCt, Dst: next, A: 0, Rot: r})
		next++
	}
	l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpRotCt, Dst: next, A: 0, Rot: rots[0]})
	dup := next
	next++
	acc := 1
	for v := 2; v < dup; v++ {
		l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpAddCtCt, Dst: next, A: acc, B: v})
		acc = next
		next++
	}
	l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpAddCtCt, Dst: next, A: acc, B: dup})
	l.Output = next
	return l
}

// interleavedTrees builds two log-depth reduction trees over separate
// input ciphertexts with their levels interleaved — the schedule shape
// of two SIMD-parallel slot reductions. Sibling levels rotate DIFFERENT
// sources by the SAME amount, so each level fuses into one cross-source
// group.
func interleavedTrees(vecLen, m int) *quill.Lowered {
	l := &quill.Lowered{VecLen: vecLen, NumCtInputs: 2}
	next := 2
	emit := func(in quill.LInstr) int {
		in.Dst = next
		l.Instrs = append(l.Instrs, in)
		next++
		return in.Dst
	}
	accs := []int{0, 1}
	for k := m / 2; k >= 1; k /= 2 {
		var rots [2]int
		for s := range accs {
			rots[s] = emit(quill.LInstr{Op: quill.OpRotCt, A: accs[s], Rot: k})
		}
		for s := range accs {
			accs[s] = emit(quill.LInstr{Op: quill.OpAddCtCt, A: accs[s], B: rots[s]})
		}
	}
	l.Output = emit(quill.LInstr{Op: quill.OpAddCtCt, A: accs[0], B: accs[1]})
	return l
}

func randomVecs(l *quill.Lowered, seed int64) []quill.Vec {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]quill.Vec, l.NumCtInputs)
	for i := range vs {
		v := make(quill.Vec, l.VecLen)
		for j := range v {
			v[j] = rng.Uint64() % 64
		}
		vs[i] = v
	}
	return vs
}

// runSharedDifferential compiles l (a full-row PN2048 program, so
// quill's wraparound rotation semantics and the HE row rotation agree
// slot for slot), pins its shared groups, and requires the plan and the
// instruction-at-a-time interpreter — serial rotations throughout — to
// produce bit-identical ciphertexts that decrypt to the concrete vector
// semantics.
func runSharedDifferential(t *testing.T, l *quill.Lowered, wantGroups, wantRots, wantReplayed int) {
	t.Helper()
	rt, err := NewTestRuntime("PN2048", 17, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	if g, r, rep := p.SharedGroups(); g != wantGroups || r != wantRots || rep != wantReplayed {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want %d (%d, %d)",
			g, r, rep, wantGroups, wantRots, wantReplayed)
	}
	vs := randomVecs(l, 23)
	cts := make([]*bfv.Ciphertext, len(vs))
	for i, v := range vs {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := rt.RunInterpreter(l, cts, nil)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	got, err := rt.NewSession().Run(p, cts, nil)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !sameCiphertext(rt.Params, ref, got) {
		t.Fatal("plan not bit-identical to interpreter")
	}
	want, err := quill.RunLowered(l, quill.ConcreteSem{}, vs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := rt.DecryptVec(got, l.VecLen)
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, dec[i], want[i])
		}
	}
}

// TestSharedStencilDifferential: the stencil shape's fills and replays
// over two live slots.
func TestSharedStencilDifferential(t *testing.T) {
	runSharedDifferential(t, sharedStencilProgram(), 3, 6, 4)
}

// TestSharedVsLegacyDifferential runs the shared stencil shape as the
// plan and as its unhoisted form (serial rotations, each decomposing its
// own source) on serial and level-parallel sessions and checks
// bit-identity with the interpreter — small enough to exercise slot
// replay under -race in ordinary test runs.
func TestSharedVsLegacyDifferential(t *testing.T) {
	l := sharedStencilProgram()
	rt, err := NewTestRuntime("PN2048", 19, l)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	if shared.NumDecomps != 2 {
		t.Fatalf("NumDecomps = %d, want 2", shared.NumDecomps)
	}
	legacy := unhoistedPlan(t, rt.Params, shared)
	if d := legacy.DigitDecompositions(); d != 6 {
		t.Fatalf("unhoisted plan decomposes %d times, want 6", d)
	}
	if d := shared.DigitDecompositions(); d != 2 {
		t.Fatalf("shared plan decomposes %d times, want 2", d)
	}

	vs := randomVecs(l, 47)
	cts := make([]*bfv.Ciphertext, len(vs))
	for i, v := range vs {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := rt.RunInterpreter(l, cts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		p    *plan.ExecutionPlan
	}{
		{"legacy", legacy},
		{"shared", shared},
	} {
		for _, par := range []int{1, 2} {
			s := rt.NewSession()
			s.SetParallelism(par)
			out, err := s.Run(f.p, cts, nil)
			if err != nil {
				t.Fatalf("%s plan (par %d): %v", f.name, par, err)
			}
			if !sameCiphertext(rt.Params, ref, out) {
				t.Fatalf("%s plan (par %d) not bit-identical to interpreter", f.name, par)
			}
		}
	}
}

// TestHoistedDeepFanOutWraparound: the deep fan's eight amounts (-1 ≡
// 1023 and 1000 stay distinct, the duplicate rot 1 vanishes) become
// eight groups over one decomposition — one fill, seven replays.
func TestHoistedDeepFanOutWraparound(t *testing.T) {
	runSharedDifferential(t, deepFanProgram(), 8, 8, 7)
}

// TestBatchedVsSerialTrees: two interleaved parallel reduction trees
// fuse level by level into three cross-source groups, exercising the
// NTT-source and NTT-destination shared rotation paths.
func TestBatchedVsSerialTrees(t *testing.T) {
	runSharedDifferential(t, interleavedTrees(1024, 8), 3, 6, 0)
}

// TestBatchedWraparoundCanonical: on the full HE row, a negative amount
// and its positive congruent partner (-1 ≡ 1023 mod the row) rotate two
// different sources; amount canonicalization must recognize them as the
// same Galois element and fuse them into one group.
func TestBatchedWraparoundCanonical(t *testing.T) {
	runSharedDifferential(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: -1},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 1023},
			{Op: quill.OpAddCtCt, Dst: 4, A: 2, B: 0},
			{Op: quill.OpAddCtCt, Dst: 5, A: 3, B: 1},
			{Op: quill.OpAddCtCt, Dst: 6, A: 4, B: 5},
		},
		Output: 6,
	}, 1, 2, 0)
}

// assertAllocationFree extends the 0-alloc serving guarantee to a plan
// with shared rotation groups: slot fills reuse the session's per-slot
// decomposition scratch, replays allocate nothing, and the per-amount
// Galois state comes from the runtime caches.
func assertAllocationFree(t *testing.T, l *quill.Lowered) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless under -race")
	}
	rt, err := NewTestRuntime("PN2048", 13, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	if g, _, _ := p.SharedGroups(); g == 0 {
		t.Fatal("plan has no shared groups")
	}
	vs := randomVecs(l, 43)
	cts := make([]*bfv.Ciphertext, len(vs))
	for i, v := range vs {
		if cts[i], err = rt.EncryptVec(v); err != nil {
			t.Fatal(err)
		}
	}
	s := rt.NewSession()
	if _, err := s.Run(p, cts, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(p, cts, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state plan execution allocates %.0f objects/run, want 0", allocs)
	}
}

// TestSharedPlanAllocationFree: fills and replays across two slots.
func TestSharedPlanAllocationFree(t *testing.T) {
	assertAllocationFree(t, sharedStencilProgram())
}

// TestHoistedPlanAllocationFree: one fill replayed across a fan.
func TestHoistedPlanAllocationFree(t *testing.T) {
	assertAllocationFree(t, deepFanProgram())
}

// TestBatchedPlanAllocationFree: cross-source groups of NTT-resident
// tree accumulators.
func TestBatchedPlanAllocationFree(t *testing.T) {
	assertAllocationFree(t, interleavedTrees(1024, 8))
}
