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

// unhoistedPlan returns a copy of p in which every shared rotation group
// is split into one plain OpRotCt step per member, in member order: each
// rotation decomposes its own source, no decomposition slot is filled or
// replayed. It is the serial key-switch form the sharing pass replaces,
// rebuilt from the compiled plan so that registers, domains, prepared
// operands and lift slots stay exactly those of p. A group's members
// never write any member's source, so the split order reads the same
// values the group does.
func unhoistedPlan(t *testing.T, params *bfv.Parameters, p *plan.ExecutionPlan) *plan.ExecutionPlan {
	t.Helper()
	q := *p
	q.Steps = nil
	for _, st := range p.Steps {
		if st.Op != plan.OpSharedRot {
			q.Steps = append(q.Steps, st)
			continue
		}
		for _, m := range st.Shared {
			q.Steps = append(q.Steps, plan.Step{
				Op: quill.OpRotCt, Dst: m.Dst, A: m.Src, Rot: st.Rot, Pt: -1, Con: -1,
			})
		}
	}
	q.NumDecomps = 0
	q.Levels = nil
	q.Levelize()
	if err := q.Validate(params); err != nil {
		t.Fatalf("unhoisted plan invalid: %v", err)
	}
	if g, _, _ := q.SharedGroups(); g != 0 {
		t.Fatalf("unhoisted plan has %d shared groups", g)
	}
	return &q
}

// TestHoistedVsUnhoistedKernels is the hoisting differential on the
// full 11-kernel suite (hand-written baseline programs — the
// rotation-heavy forms): the instruction-at-a-time interpreter, the
// unhoisted plan (every rotation decomposes its own source) and the
// plan itself (rotations in shared groups that decompose each source
// once) must produce bit-identical output ciphertexts, on a serial and
// a level-parallel session. In -short mode two representative kernels
// run (one with a fan-out, one without).
func TestHoistedVsUnhoistedKernels(t *testing.T) {
	names := []string{
		"box-blur", "dot-product", "hamming-distance", "l2-distance",
		"linear-regression", "polynomial-regression", "gx", "gy",
		"roberts-cross", "sobel", "harris",
	}
	if testing.Short() {
		names = []string{"box-blur", "dot-product"}
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
			hoisted, err := rt.Plan(l)
			if err != nil {
				t.Fatal(err)
			}
			flat := unhoistedPlan(t, rt.Params, hoisted)
			groups, rots, replayed := hoisted.SharedGroups()
			t.Logf("%s: %d shared groups covering %d rotations (%d replayed); decompositions %d -> %d",
				name, groups, rots, replayed, flat.DigitDecompositions(), hoisted.DigitDecompositions())
			if hoisted.DigitDecompositions() > flat.DigitDecompositions() {
				t.Fatalf("hoisting increased decompositions %d -> %d",
					flat.DigitDecompositions(), hoisted.DigitDecompositions())
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
			for _, par := range []int{1, 4} {
				s := rt.NewSession()
				s.SetParallelism(par)
				flatOut, err := s.Run(flat, cts, ex.PtIn)
				if err != nil {
					t.Fatalf("unhoisted plan (par %d): %v", par, err)
				}
				if !sameCiphertext(rt.Params, ref, flatOut) {
					t.Fatalf("unhoisted plan (par %d) not bit-identical to interpreter", par)
				}
				s2 := rt.NewSession()
				s2.SetParallelism(par)
				hoistOut, err := s2.Run(hoisted, cts, ex.PtIn)
				if err != nil {
					t.Fatalf("hoisted plan (par %d): %v", par, err)
				}
				if !sameCiphertext(rt.Params, ref, hoistOut) {
					t.Fatalf("hoisted plan (par %d) not bit-identical to interpreter", par)
				}
				dec := rt.DecryptVec(hoistOut, spec.VecLen)
				if !spec.Matches(dec, ex) {
					t.Fatal("hoisted output disagrees with the plaintext reference")
				}
			}
		})
	}
}
