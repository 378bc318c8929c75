package backend

import (
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

// domainTestProgram builds a program whose assigned plan exercises
// every NTT-domain execution path at once: a rotation fan feeding
// pointwise adds (NTT-resident members), a serial NTT->NTT rotation, prepared
// constant and runtime-input plaintext products, an NTT-destination
// plaintext add, and the closing OpINTT conversion.
func domainTestProgram() *quill.Lowered {
	return &quill.Lowered{
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
}

// TestDomainAssignedPlanAllocationFree extends the 0-alloc serving
// guarantee to domain-assigned plans: NTT-resident registers, prepared
// plaintext scratch and conversion steps are all created once and
// reused across runs.
func TestDomainAssignedPlanAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless under -race")
	}
	l := domainTestProgram()
	rt, err := NewTestRuntime("PN2048", 5, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Plan(l)
	if err != nil {
		t.Fatal(err)
	}
	nttRegs, convs := p.DomainStats()
	if nttRegs == 0 || convs == 0 {
		t.Fatalf("test program not NTT-resident: %d NTT regs, %d conversions", nttRegs, convs)
	}
	if !p.Prepared {
		t.Fatal("assigned plan not prepared")
	}
	v := make(quill.Vec, l.VecLen)
	pt := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = uint64(j % 61)
		pt[j] = uint64(j%13 + 1)
	}
	ct, err := rt.EncryptVec(v)
	if err != nil {
		t.Fatal(err)
	}
	// The assigned plan must also agree with the interpreter on this
	// all-paths program before its allocs are measured.
	ref, err := rt.RunInterpreter(l, []*bfv.Ciphertext{ct}, []quill.Vec{pt})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.NewSession()
	out, err := s.Run(p, []*bfv.Ciphertext{ct}, []quill.Vec{pt})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCiphertext(rt.Params, ref, out) {
		t.Fatal("domain-assigned all-paths program not bit-identical to interpreter")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(p, []*bfv.Ciphertext{ct}, []quill.Vec{pt}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state domain-assigned execution allocates %.0f objects/run, want 0", allocs)
	}
}
