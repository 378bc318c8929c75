package plan

import (
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/quill"
)

// TestLiftKernelFillsPinned pins the lift fills against the product
// operand reads of the four multiplying kernels a deep-closed round
// serves: 14 lifts where 26 operand reads used to lift each time. Nine
// of the 13 products are squares; harris reuses its gradients and
// polynomial-regression its input x across products.
func TestLiftKernelFillsPinned(t *testing.T) {
	params, enc := testEnv(t)
	want := map[string][2]int{
		"harris":                {6, 12},
		"sobel":                 {2, 4},
		"roberts-cross":         {2, 4},
		"polynomial-regression": {4, 6},
	}
	for name, w := range want {
		l, err := baseline.Lowered(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(params, enc, l)
		if err != nil {
			t.Fatal(err)
		}
		f, r := p.LiftCounts()
		if f != w[0] || r != w[1] {
			t.Errorf("%s: %d lifts for %d operand reads, want %d for %d", name, f, r, w[0], w[1])
		}
		t.Logf("%s: %d lifts for %d operand reads over %d slots", name, f, r, p.NumLifts)
		if p.NumLifts < 1 || p.NumLifts > w[0] {
			t.Errorf("%s: NumLifts = %d, want within [1, %d]", name, p.NumLifts, w[0])
		}
		if err := p.Validate(params); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLiftRewrittenRegisterRefills: a chain of squares runs in one
// register, so later products read the same operand code as earlier
// ones; every write in between holds a new value, so each product
// lifts afresh — and, no lift outliving its product, one slot serves
// the chain.
func TestLiftRewrittenRegisterRefills(t *testing.T) {
	p := compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpMulCtCt, Dst: 1, A: 0, B: 0},
			{Op: quill.OpRelin, Dst: 2, A: 1},
			{Op: quill.OpMulCtCt, Dst: 3, A: 2, B: 2},
			{Op: quill.OpRelin, Dst: 4, A: 3},
			{Op: quill.OpMulCtCt, Dst: 5, A: 4, B: 4},
			{Op: quill.OpRelin, Dst: 6, A: 5},
		},
		Output: 6,
	})
	codes := map[int]int{}
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != quill.OpMulCtCt {
			continue
		}
		codes[st.A]++
		if !st.LiftA.Fresh || st.LiftB != (Lift{Slot: st.LiftA.Slot}) {
			t.Errorf("step %d lifts %+v %+v, want a fresh fill read twice", i, st.LiftA, st.LiftB)
		}
	}
	if len(codes) != 2 || p.NumLifts != 1 {
		t.Fatalf("products read codes %v over %d lift slots, want the register code twice over 1 slot", codes, p.NumLifts)
	}
	if err := p.Validate(testParams); err != nil {
		t.Fatal(err)
	}
}

// TestLevelizeOrdersLiftReuse: a product reusing a lift shares no
// register with the product that filled it — both read inputs — yet
// must sit a level deeper, or a parallel session would multiply out of
// a slot not yet filled. The lift-slot pseudo-registers carry that
// dependency.
func TestLevelizeOrdersLiftReuse(t *testing.T) {
	p := compile(t, &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpMulCtCt, Dst: 2, A: 0, B: 0},
			{Op: quill.OpMulCtCt, Dst: 3, A: 1, B: 0},
			{Op: quill.OpAddCtCt, Dst: 4, A: 2, B: 3},
		},
		Output: 4,
	})
	level := map[int]int{}
	for lv, steps := range p.Levels {
		for _, i := range steps {
			level[i] = lv
		}
	}
	if st := &p.Steps[1]; st.LiftB.Fresh || !p.Steps[0].LiftA.Fresh {
		t.Fatalf("lifts %+v / %+v, want the second product to reuse input 0's lift", p.Steps[0].LiftA, st.LiftB)
	}
	if level[1] <= level[0] {
		t.Errorf("reusing product at level %d, filling product at %d", level[1], level[0])
	}
}

// TestValidateRejectsMalformedLifts corrupts the derived lift state one
// field at a time; wire decode never carries these fields, so this is
// the check that AssignLifts and the executor agree.
func TestValidateRejectsMalformedLifts(t *testing.T) {
	params, enc := testEnv(t)
	l, err := baseline.Lowered("polynomial-regression")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(params, enc, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Validate(params); err != nil {
		t.Fatalf("compiled plan fails Validate: %v", err)
	}
	// prods[0] is the square x·x, prods[2] reuses x's lift.
	var prods []int
	for i := range base.Steps {
		if base.Steps[i].Op == quill.OpMulCtCt {
			prods = append(prods, i)
		}
	}
	if len(prods) != 3 || base.Steps[prods[2]].LiftB.Fresh {
		t.Fatalf("products %v do not have the x·x, a·x², b·x shape", prods)
	}
	cases := []struct {
		name   string
		mutate func(p *ExecutionPlan)
	}{
		{"read-before-fill", func(p *ExecutionPlan) { p.Steps[prods[0]].LiftA.Fresh = false }},
		{"reuse-of-refilled-slot", func(p *ExecutionPlan) {
			// The middle product fills x's slot while x's lift is live.
			st := &p.Steps[prods[1]]
			st.LiftA.Slot = p.Steps[prods[0]].LiftA.Slot
		}},
		{"slot-out-of-range", func(p *ExecutionPlan) { p.Steps[prods[1]].LiftB.Slot = p.NumLifts }},
		{"slot-negative", func(p *ExecutionPlan) { p.Steps[prods[1]].LiftA.Slot = -1 }},
		{"numlifts-inflated", func(p *ExecutionPlan) { p.NumLifts++ }},
		{"numlifts-zero", func(p *ExecutionPlan) { p.NumLifts = 0 }},
		{"square-second-fill", func(p *ExecutionPlan) { p.Steps[prods[0]].LiftB.Fresh = true }},
		{"distinct-operands-one-slot", func(p *ExecutionPlan) {
			st := &p.Steps[prods[1]]
			st.LiftB.Slot = st.LiftA.Slot
		}},
		{"lift-on-non-product", func(p *ExecutionPlan) {
			for i := range p.Steps {
				if p.Steps[i].Op != quill.OpMulCtCt {
					p.Steps[i].LiftA = Lift{Slot: 0, Fresh: true}
					return
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p2 := *base
			p2.Steps = append([]Step(nil), base.Steps...)
			c.mutate(&p2)
			err := p2.Validate(params)
			if err == nil {
				t.Fatal("malformed lift state validated")
			}
			t.Log(err)
		})
	}
}
