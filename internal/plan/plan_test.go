package plan

import (
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

var (
	testParams  *bfv.Parameters
	testEncoder *bfv.Encoder
)

func testEnv(t *testing.T) (*bfv.Parameters, *bfv.Encoder) {
	t.Helper()
	if testParams == nil {
		p, err := bfv.NewParametersFromPreset("PN2048")
		if err != nil {
			t.Fatal(err)
		}
		e, err := bfv.NewEncoder(p)
		if err != nil {
			t.Fatal(err)
		}
		testParams, testEncoder = p, e
	}
	return testParams, testEncoder
}

func compile(t *testing.T, l *quill.Lowered) *ExecutionPlan {
	t.Helper()
	params, enc := testEnv(t)
	p, err := Compile(params, enc, l)
	if err != nil {
		t.Fatalf("Compile: %v\n%s", err, l)
	}
	return p
}

// TestRegisterReuseChain checks that a long dependency chain runs in a
// constant number of registers: each value dies feeding the next, so
// in-place reuse needs just one buffer.
func TestRegisterReuseChain(t *testing.T) {
	l := &quill.Lowered{VecLen: 8, NumCtInputs: 1}
	next := 1
	for i := 0; i < 20; i++ {
		l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpAddCtCt, Dst: next, A: next - 1, B: 0})
		next++
	}
	l.Output = next - 1
	p := compile(t, l)
	if p.NumRegs != 1 {
		t.Errorf("chain of 20 adds allocated %d registers, want 1", p.NumRegs)
	}
	if len(p.Steps) != 20 {
		t.Errorf("steps = %d, want 20", len(p.Steps))
	}
}

// TestRegisterReuseDiamond checks diamond-shaped sharing: a value used
// by two consumers stays live until its second use, then its buffer is
// reused.
func TestRegisterReuseDiamond(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpAddCtCt, Dst: 1, A: 0, B: 0},  // d = x+x
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: 1},  // l = rot(d)
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: -1}, // r = rot(d): d dies here
			{Op: quill.OpAddCtCt, Dst: 4, A: 2, B: 3},  // l+r
		},
		Output: 4,
	}
	p := compile(t, l)
	// Both rotations of d become shared groups over one decomposition
	// slot: the second replays the digits the first left resident. Every
	// member reads d (its c0 and its digits), so neither may write over
	// it: the shared form trades one register (d, l, r live together)
	// for the second decomposition.
	if p.NumRegs != 3 {
		t.Errorf("shared diamond allocated %d registers, want 3", p.NumRegs)
	}
	if g, r, rep := p.SharedGroups(); g != 2 || r != 2 || rep != 1 {
		t.Errorf("shared groups = %d (%d rotations, %d replayed), want 2 (2, 1)", g, r, rep)
	}
	if p.NumDecomps != 1 {
		t.Errorf("NumDecomps = %d, want 1", p.NumDecomps)
	}
}

// TestDeadCodeElimination checks that values that cannot reach the
// output consume neither steps nor registers.
func TestDeadCodeElimination(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpAddCtCt, Dst: 1, A: 0, B: 0},
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: 2},  // dead
			{Op: quill.OpRotCt, Dst: 3, A: 2, Rot: -2}, // dead (uses dead)
			{Op: quill.OpSubCtCt, Dst: 4, A: 1, B: 0},
		},
		Output: 4,
	}
	p := compile(t, l)
	if len(p.Steps) != 2 {
		t.Errorf("dead instructions kept: %d steps, want 2", len(p.Steps))
	}
	if p.NumRegs != 1 {
		t.Errorf("dead values allocated registers: %d, want 1", p.NumRegs)
	}
	if len(p.Rotations) != 0 {
		t.Errorf("dead rotations demand Galois keys: %v", p.Rotations)
	}
}

// TestNoOpAliasing checks that identity rotations and
// relinearizations of degree-1 values vanish into aliases. For a
// vector shorter than the HE row only a literal rot 0 is the
// identity; rot 8 on an 8-vector is ≡ 0 abstractly but shifts the
// padded row, so it must survive.
func TestNoOpAliasing(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 0}, // identity
			{Op: quill.OpRelin, Dst: 2, A: 1},         // relin of degree-1
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 0}, // = x+x
			{Op: quill.OpRotCt, Dst: 4, A: 3, Rot: 8}, // NOT identity on the padded row
		},
		Output: 4,
	}
	p := compile(t, l)
	if len(p.Steps) != 2 {
		t.Errorf("no-op aliasing wrong: %d steps, want 2 (add + literal rot 8)\n%+v", len(p.Steps), p.Steps)
	}
	if p.Steps[0].Op != quill.OpAddCtCt || p.Steps[1].Op != quill.OpRotCt || p.Steps[1].Rot != 8 {
		t.Errorf("surviving steps wrong: %+v", p.Steps)
	}
}

// TestNoOpAliasingFullRow checks that when the program vector fills
// the whole HE row, abstract equivalence is sound and rot ≡ 0 mod n
// does alias away.
func TestNoOpAliasingFullRow(t *testing.T) {
	params, enc := testEnv(t)
	n := params.SlotCount()
	l := &quill.Lowered{
		VecLen: n, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpAddCtCt, Dst: 1, A: 0, B: 0},
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: n}, // full cycle: identity
		},
		Output: 2,
	}
	p, err := Compile(params, enc, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].Op != quill.OpAddCtCt {
		t.Errorf("full-row rot n not aliased: %+v", p.Steps)
	}
}

// TestOutputIsInput checks the degenerate plan whose output is a
// caller input.
func TestOutputIsInput(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: 0}, // alias of input 1
		},
		Output: 2,
	}
	p := compile(t, l)
	if !p.IsInput(p.Out) || p.Out != 1 {
		t.Errorf("output operand = %d, want input 1", p.Out)
	}
	if len(p.Steps) != 0 || p.NumRegs != 0 {
		t.Errorf("identity program scheduled %d steps over %d registers", len(p.Steps), p.NumRegs)
	}
}

// TestConstPreEncodingDedupe checks that identical constants are
// encoded once and distinct constants separately.
func TestConstPreEncodingDedupe(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpAddCtPt, Dst: 1, A: 0, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpMulCtPt, Dst: 2, A: 1, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpSubCtPt, Dst: 3, A: 2, P: quill.PtRef{Input: -1, Const: []int64{-2}}},
			{Op: quill.OpAddCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: 0}},
		},
		Output: 4,
	}
	p := compile(t, l)
	if len(p.Consts) != 2 {
		t.Errorf("constants encoded %d times, want 2 (3 deduped, -2 separate)", len(p.Consts))
	}
	if p.Steps[0].Con != p.Steps[1].Con {
		t.Error("identical constants not shared")
	}
	if p.Steps[3].Pt != 0 || p.Steps[3].Con != -1 {
		t.Errorf("plaintext input step misencoded: %+v", p.Steps[3])
	}
}

// TestRotationSetLiteral checks that the plan's Galois-key demand for
// a short vector is the exact literal amounts it executes (dead and
// identity rotations excluded), and that RotationSet merges plans.
func TestRotationSetLiteral(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 7},
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: -7},
			{Op: quill.OpRotCt, Dst: 3, A: 2, Rot: -4},
			{Op: quill.OpAddCtCt, Dst: 4, A: 3, B: 0},
		},
		Output: 4,
	}
	p := compile(t, l)
	want := []int{-7, -4, 7}
	if len(p.Rotations) != len(want) {
		t.Fatalf("rotations = %v, want %v", p.Rotations, want)
	}
	for i, r := range want {
		if p.Rotations[i] != r {
			t.Fatalf("rotations = %v, want %v", p.Rotations, want)
		}
	}
	merged := RotationSet(p, p)
	if len(merged) != len(want) {
		t.Errorf("RotationSet dedupe failed: %v", merged)
	}
}

// TestRotationSetCanonicalFullRow checks that with the vector filling
// the HE row, abstractly equivalent amounts collapse to one canonical
// Galois key.
func TestRotationSetCanonicalFullRow(t *testing.T) {
	params, enc := testEnv(t)
	n := params.SlotCount()
	l := &quill.Lowered{
		VecLen: n, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1 - n}, // ≡ 1 on the row
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
		},
		Output: 3,
	}
	p, err := Compile(params, enc, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rotations) != 1 || p.Rotations[0] != 1 {
		t.Errorf("full-row rotations = %v, want [1]", p.Rotations)
	}
}

// TestDegreeTracking checks that registers holding tensor products are
// sized degree 2 and relinearization brings values back to degree 1.
func TestDegreeTracking(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpMulCtCt, Dst: 2, A: 0, B: 1},
			{Op: quill.OpRelin, Dst: 3, A: 2},
			{Op: quill.OpAddCtCt, Dst: 4, A: 3, B: 0},
		},
		Output: 4,
	}
	p := compile(t, l)
	mul := p.Steps[0]
	if p.RegDeg[mul.Dst] != 2 {
		t.Errorf("multiply register degree = %d, want 2", p.RegDeg[mul.Dst])
	}
	// Multiplying an unrelinearized product must fail at plan time.
	bad := &quill.Lowered{
		VecLen: 8, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpMulCtCt, Dst: 2, A: 0, B: 1},
			{Op: quill.OpMulCtCt, Dst: 3, A: 2, B: 0},
		},
		Output: 3,
	}
	params, enc := testEnv(t)
	if _, err := Compile(params, enc, bad); err == nil {
		t.Error("degree-2 multiply operand not rejected")
	}
}

// TestPlanMatchesInterpreterAbstract cross-checks the plan schedule
// against the abstract interpreter by replaying plan steps over
// concrete vectors: register reuse must never clobber a live value.
func TestPlanMatchesInterpreterAbstract(t *testing.T) {
	// A program with diamond sharing, dead code, constants, pt input,
	// aliasable no-ops, and rotation wraparound.
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 2, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
			{Op: quill.OpRotCt, Dst: 4, A: 3, Rot: 7}, // ≡ -1
			{Op: quill.OpSubCtCt, Dst: 5, A: 3, B: 4}, // diamond on c3
			{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: -1, Const: []int64{2}}},
			{Op: quill.OpRotCt, Dst: 7, A: 6, Rot: 2}, // dead
			{Op: quill.OpAddCtPt, Dst: 8, A: 6, P: quill.PtRef{Input: 0}},
			{Op: quill.OpRelin, Dst: 9, A: 8}, // no-op (deg 1)
		},
		Output: 9,
	}
	p := compile(t, l)

	sem := quill.ConcreteSem{}
	ctIn := []quill.Vec{{1, 2, 3, 4, 5, 6, 7, 8}, {3, 1, 4, 1, 5, 9, 2, 6}}
	ptIn := []quill.Vec{{2, 7, 1, 8, 2, 8, 1, 8}}
	want, err := quill.RunLowered(l, sem, ctIn, ptIn)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the plan over abstract vectors.
	regs := make([]quill.Vec, p.NumRegs)
	operand := func(code int) quill.Vec {
		if p.IsInput(code) {
			return ctIn[code]
		}
		return regs[p.Reg(code)]
	}
	for _, st := range p.Steps {
		a := operand(st.A)
		var out quill.Vec
		switch st.Op {
		case quill.OpRotCt:
			out = sem.Rot(a, st.Rot)
		case quill.OpRelin, OpNTT, OpINTT:
			// Relinearization and domain conversions change the
			// representation, not the encrypted vector.
			out = a
		case quill.OpAddCtCt:
			out = sem.Add(a, operand(st.B))
		case quill.OpSubCtCt:
			out = sem.Sub(a, operand(st.B))
		case quill.OpMulCtCt:
			out = sem.Mul(a, operand(st.B))
		case quill.OpAddCtPt, quill.OpSubCtPt, quill.OpMulCtPt:
			var b quill.Vec
			if st.Pt >= 0 {
				b = ptIn[st.Pt]
			} else {
				// Recover the constant from the plan source is not
				// possible without decode; use the matching source
				// instruction's constant instead.
				b = sem.FromConst([]int64{2}, l.VecLen)
			}
			switch st.Op {
			case quill.OpAddCtPt:
				out = sem.Add(a, b)
			case quill.OpSubCtPt:
				out = sem.Sub(a, b)
			default:
				out = sem.Mul(a, b)
			}
		}
		regs[st.Dst] = out
	}
	got := operand(p.Out)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: plan replay %d != interpreter %d\nplan: %+v", i, got[i], want[i], p.Steps)
		}
	}
}
