package plan

import (
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/quill"
)

// TestDomainAssignedKernelTransformCounts pins the static
// key-switch-external transform counts of every baseline kernel's plan.
// Each is checked against the kernel's all-coefficient count, recorded
// when plans could still be compiled without domain assignment: the
// pass must never exceed it, and must strictly beat it on the
// pointwise-heavy kernels — the paper's Gx/Gy/Sobel/Harris family plus
// the reduction kernels whose rotation trees stay in the evaluation
// domain.
func TestDomainAssignedKernelTransformCounts(t *testing.T) {
	// name -> {all-coefficient, assigned} external transforms. The
	// all-coefficient column priced plaintext multiplication at 5
	// transforms per step (4 row transforms + the per-call operand NTT);
	// the assigned column counts prepared operands under the model in
	// domain.go.
	want := map[string][2]int{
		"box-blur":              {6, 5},
		"dot-product":           {11, 8},
		"hamming-distance":      {6, 6},
		"l2-distance":           {8, 8},
		"linear-regression":     {7, 7},
		"polynomial-regression": {6, 6},
		"gx":                    {12, 3},
		"gy":                    {12, 3},
		"roberts-cross":         {10, 10},
		"sobel":                 {20, 9},
		"harris":                {51, 38},
	}
	params, _ := testEnv(t)
	strict := 0
	for _, name := range baseline.Names() {
		w, ok := want[name]
		if !ok {
			t.Errorf("kernel %q has no pinned transform counts; add it", name)
			continue
		}
		l, err := baseline.Lowered(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		as := compile(t, l)
		gotAs := as.ExternalTransforms()
		if gotAs != w[1] {
			t.Errorf("%s: transforms = %d, want %d", name, gotAs, w[1])
		}
		if gotAs > w[0] {
			t.Errorf("%s: domain assignment increased transforms %d -> %d", name, w[0], gotAs)
		}
		if gotAs < w[0] {
			strict++
		}
		// The plan must satisfy decode-time validation and leave its
		// output in coefficient form.
		if err := as.Validate(params); err != nil {
			t.Errorf("%s: assigned plan fails Validate: %v", name, err)
		}
		if as.CodeDomain(as.Out) != DomCoeff {
			t.Errorf("%s: assigned plan output register is NTT-resident", name)
		}
	}
	if strict < 6 {
		t.Errorf("domain assignment strictly improved only %d kernels, want >= 6", strict)
	}
}

// TestDomainAssignmentStructure inspects one winning kernel (sobel) in
// detail: NTT-resident registers exist, they are all degree 1,
// explicit conversion steps were materialized, and prepared plaintext
// operands were derived.
func TestDomainAssignmentStructure(t *testing.T) {
	l, err := baseline.Lowered("sobel")
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, l)
	nttRegs, convs := p.DomainStats()
	if nttRegs == 0 {
		t.Fatal("sobel plan has no NTT-resident registers")
	}
	if convs == 0 {
		t.Fatal("sobel plan has no OpNTT/OpINTT conversion steps")
	}
	if len(p.RegDomain) != p.NumRegs {
		t.Fatalf("RegDomain length %d != NumRegs %d", len(p.RegDomain), p.NumRegs)
	}
	for r, d := range p.RegDomain {
		if d == DomNTT && p.RegDeg[r] != 1 {
			t.Errorf("NTT register %d has degree %d, want 1", r, p.RegDeg[r])
		}
	}
	if !p.Prepared {
		t.Fatal("assigned plan was not prepared")
	}
	if len(p.MulNTTConsts) != len(p.Consts) {
		t.Errorf("MulNTTConsts length %d != Consts length %d", len(p.MulNTTConsts), len(p.Consts))
	}
	for i, m := range p.MulNTTConsts {
		if m == nil {
			t.Errorf("MulNTTConsts[%d] is nil after Prepare", i)
		}
	}
}

// pointDomainPlan compiles a rotation fan feeding a pointwise chain —
// the canonical shape the pass accelerates. The fan source is a
// ciphertext input (coefficient domain), so both fan destinations, the
// add, and the plaintext product all go NTT-resident, with one OpINTT
// before output.
func pointDomainPlan(t *testing.T) *ExecutionPlan {
	t.Helper()
	p := compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpMulCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: -1, Const: []int64{3}}},
		},
		Output: 4,
	})
	if nttRegs, convs := p.DomainStats(); nttRegs == 0 || convs == 0 {
		t.Fatalf("fan+pointwise chain not NTT-resident: %d NTT regs, %d conversions", nttRegs, convs)
	}
	return p
}

// serialDomainPlan compiles a serial rotation chain whose second
// rotation reads an NTT-resident source — the N->N rotation variant.
func serialDomainPlan(t *testing.T) *ExecutionPlan {
	t.Helper()
	p := compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpMulCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: -1, Const: []int64{3}}},
		},
		Output: 4,
	})
	// Both rotations are serial (different sources) and NTT-destined.
	serialN := 0
	for _, st := range p.Steps {
		if st.Op == quill.OpRotCt && p.RegDomain[st.Dst] == DomNTT {
			serialN++
		}
	}
	if serialN != 2 {
		t.Fatalf("serial chain has %d NTT-destined rotations, want 2", serialN)
	}
	return p
}

// nttSrcFanPlan compiles a fan whose source is itself a rotation
// result the solver keeps NTT-resident — exercising the "NTT source
// implies NTT destinations" invariant on the shared groups the fan
// compiles to.
func nttSrcFanPlan(t *testing.T) *ExecutionPlan {
	t.Helper()
	p := compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 1, Rot: 2},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 4, A: 2, B: 3},
			{Op: quill.OpMulCtPt, Dst: 5, A: 4, P: quill.PtRef{Input: -1, Const: []int64{3}}},
		},
		Output: 5,
	})
	if g, _, rep := p.SharedGroups(); g != 2 || rep != 1 {
		t.Fatalf("shared groups = %d (%d replayed), want 2 (1)", g, rep)
	}
	for _, st := range p.Steps {
		if st.Op == OpSharedRot && p.CodeDomain(st.A) != DomNTT {
			t.Fatal("fan source is not NTT-resident")
		}
	}
	return p
}

// TestValidateRejectsMalformedDomains corrupts the domain invariants
// decode-time validation must enforce on a wire plan, one at a time.
func TestValidateRejectsMalformedDomains(t *testing.T) {
	params, _ := testEnv(t)
	type tc struct {
		build   func(t *testing.T) *ExecutionPlan
		corrupt func(p *ExecutionPlan)
	}
	findStep := func(p *ExecutionPlan, op quill.Op) int {
		for i := range p.Steps {
			if p.Steps[i].Op == op {
				return i
			}
		}
		return -1
	}
	cases := map[string]tc{
		"regdomain-shape": {validatePlan, func(p *ExecutionPlan) {
			p.RegDomain = p.RegDomain[:len(p.RegDomain)-1]
		}},
		"regdomain-range": {validatePlan, func(p *ExecutionPlan) {
			p.RegDomain[0] = 7
		}},
		"ntt-on-degree2-reg": {validatePlan, func(p *ExecutionPlan) {
			for r, d := range p.RegDeg {
				if d == 2 {
					p.RegDomain[r] = DomNTT
					return
				}
			}
			panic("no degree-2 register")
		}},
		"relin-dst-ntt": {validatePlan, func(p *ExecutionPlan) {
			p.RegDomain[p.Steps[findStep(p, quill.OpRelin)].Dst] = DomNTT
		}},
		"mulctct-operand-ntt": {validatePlan, func(p *ExecutionPlan) {
			st := p.Steps[findStep(p, quill.OpMulCtCt)]
			p.RegDomain[p.Reg(st.A)] = DomNTT
		}},
		"add-operand-domain-mismatch": {pointDomainPlan, func(p *ExecutionPlan) {
			st := p.Steps[findStep(p, quill.OpAddCtCt)]
			p.RegDomain[p.Reg(st.A)] = DomCoeff
		}},
		"intt-src-coeff": {pointDomainPlan, func(p *ExecutionPlan) {
			st := p.Steps[findStep(p, OpINTT)]
			p.RegDomain[p.Reg(st.A)] = DomCoeff
		}},
		"intt-dst-ntt": {pointDomainPlan, func(p *ExecutionPlan) {
			p.RegDomain[p.Steps[findStep(p, OpINTT)].Dst] = DomNTT
		}},
		"output-reg-ntt": {pointDomainPlan, func(p *ExecutionPlan) {
			p.RegDomain[p.Reg(p.Out)] = DomNTT
		}},
		"rot-ntt-to-coeff": {serialDomainPlan, func(p *ExecutionPlan) {
			// Second serial rotation reads an NTT source; forcing its
			// destination to coefficient form has no execution path.
			for i := range p.Steps {
				st := p.Steps[i]
				if st.Op == quill.OpRotCt && p.CodeDomain(st.A) == DomNTT {
					p.RegDomain[st.Dst] = DomCoeff
					return
				}
			}
			panic("no NTT-source rotation")
		}},
		"fan-member-coeff-with-ntt-src": {nttSrcFanPlan, func(p *ExecutionPlan) {
			st := p.Steps[findStep(p, OpSharedRot)]
			p.RegDomain[st.Shared[0].Dst] = DomCoeff
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			p := c.build(t)
			p2 := *p
			p2.RegDomain = append([]Domain(nil), p.RegDomain...)
			p2.Steps = append([]Step(nil), p.Steps...)
			c.corrupt(&p2)
			if err := p2.Validate(params); err == nil {
				t.Fatalf("corruption %q passed validation", name)
			}
		})
	}
	// The uncorrupted domain plans must pass.
	for name, build := range map[string]func(*testing.T) *ExecutionPlan{
		"point": pointDomainPlan, "serial": serialDomainPlan, "ntt-src-fan": nttSrcFanPlan,
	} {
		if err := build(t).Validate(params); err != nil {
			t.Fatalf("compiled %s domain plan fails Validate: %v", name, err)
		}
	}
}
