package plan

import (
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

// validatePlan compiles a known-good plan for corruption tests.
func validatePlan(t *testing.T) *ExecutionPlan {
	t.Helper()
	return compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
			{Op: quill.OpMulCtCt, Dst: 4, A: 3, B: 0},
			{Op: quill.OpRelin, Dst: 5, A: 4},
			{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: 0}},
			{Op: quill.OpAddCtPt, Dst: 7, A: 6, P: quill.PtRef{Input: -1, Const: []int64{5}}},
		},
		Output: 7,
	})
}

// TestValidateAcceptsCompiled: every plan out of Compile must pass its
// own decode-time validation.
func TestValidateAcceptsCompiled(t *testing.T) {
	params, _ := testEnv(t)
	p := validatePlan(t)
	if err := p.Validate(params); err != nil {
		t.Fatalf("compiled plan fails Validate: %v", err)
	}
}

// TestValidateRejectsMalformed corrupts one structural invariant at a
// time — the conditions a hostile or bit-rotted wire plan could carry —
// and requires Validate to refuse each.
func TestValidateRejectsMalformed(t *testing.T) {
	params, _ := testEnv(t)
	cases := map[string]func(p *ExecutionPlan){
		"wrong-N":            func(p *ExecutionPlan) { p.N = 4096 },
		"vec-too-long":       func(p *ExecutionPlan) { p.VecLen = params.SlotCount() + 1 },
		"negative-inputs":    func(p *ExecutionPlan) { p.NumCtInputs = -1 },
		"regdeg-shape":       func(p *ExecutionPlan) { p.RegDeg = p.RegDeg[:len(p.RegDeg)-1] },
		"regdeg-range":       func(p *ExecutionPlan) { p.RegDeg[0] = 3 },
		"nil-const":          func(p *ExecutionPlan) { p.Consts[0] = nil },
		"dst-out-of-range":   func(p *ExecutionPlan) { p.Steps[0].Dst = p.NumRegs },
		"a-out-of-range":     func(p *ExecutionPlan) { p.Steps[0].A = p.NumCtInputs + p.NumRegs },
		"b-out-of-range":     func(p *ExecutionPlan) { p.Steps[1].B = -7 },
		"undeclared-rot":     func(p *ExecutionPlan) { p.Steps[0].Rot = 999 },
		"identity-rot":       func(p *ExecutionPlan) { p.Rotations = []int{0}; p.Steps[0].Rot = 0 },
		"unsorted-rots":      func(p *ExecutionPlan) { p.Rotations = []int{5, 3} },
		"unused-declared":    func(p *ExecutionPlan) { p.Rotations = append(p.Rotations, 17) },
		"const-out-of-range": func(p *ExecutionPlan) { p.Steps[5].Con = len(p.Consts) },
		"pt-out-of-range":    func(p *ExecutionPlan) { p.Steps[4].Pt = p.NumPtInputs },
		"pt-and-const":       func(p *ExecutionPlan) { p.Steps[4].Con = 0 },
		"neither-pt":         func(p *ExecutionPlan) { p.Steps[4].Pt = -1 },
		"bad-opcode":         func(p *ExecutionPlan) { p.Steps[0].Op = quill.Op(99) },
		"out-of-range-out":   func(p *ExecutionPlan) { p.Out = p.NumCtInputs + p.NumRegs },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p := validatePlan(t)
			// Shallow-copy mutable slices so corruptions don't leak
			// between subtests (compile caches nothing, but be safe).
			p2 := *p
			p2.RegDeg = append([]int(nil), p.RegDeg...)
			p2.Steps = append([]Step(nil), p.Steps...)
			p2.Rotations = append([]int(nil), p.Rotations...)
			p2.Consts = append([]*bfv.Plaintext(nil), p.Consts...)
			corrupt(&p2)
			if err := p2.Validate(params); err == nil {
				t.Fatalf("corruption %q passed validation", name)
			}
		})
	}
}
