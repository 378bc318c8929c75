package plan

import (
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/quill"
)

// fanAcrossAmounts rotates one source by four distinct amounts — the
// shape Pass 3 groups into one fan and the sharing pass re-expresses as
// four per-amount groups replaying one decomposition.
func fanAcrossAmounts() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 3, A: 0, Rot: 5},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: -3},
			{Op: quill.OpAddCtCt, Dst: 5, A: 1, B: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 5, B: 3},
			{Op: quill.OpAddCtCt, Dst: 7, A: 6, B: 4},
		},
		Output: 7,
	}
}

// meetProgram rotates two sources by the same two amounts, interleaved
// — the shape where double-hoisting strictly beats sharing along one
// axis: hoisting alone shares each source's decomposition across its
// two amounts but resolves Galois state per rotation; batching alone
// shares Galois state per amount but decomposes every member. Sharing
// does both: two decompositions, two groups.
func meetProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 1},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 5, A: 1, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 2, B: 3},
			{Op: quill.OpAddCtCt, Dst: 7, A: 4, B: 5},
			{Op: quill.OpAddCtCt, Dst: 8, A: 6, B: 7},
		},
		Output: 8,
	}
}

// crossSourceProgram rotates two different sources by the same amount
// (one rotation per source): the minimal shape the sharing pass fuses
// into one cross-source group.
func crossSourceProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 8, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 1},
			{Op: quill.OpAddCtCt, Dst: 4, A: 2, B: 0},
			{Op: quill.OpAddCtCt, Dst: 5, A: 3, B: 1},
			{Op: quill.OpAddCtCt, Dst: 6, A: 4, B: 5},
		},
		Output: 6,
	}
}

// interleavedTrees builds two log-depth reduction trees over separate
// inputs with their levels interleaved — the schedule shape of two
// SIMD-parallel slot reductions. Every level rotates a DIFFERENT
// source (the previous accumulator) by the SAME amount as its sibling
// tree, so each level is one cross-source group.
func interleavedTrees(m int) *quill.Lowered {
	l := &quill.Lowered{VecLen: 16, NumCtInputs: 2}
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

// TestSharedDetectionFanAcrossAmounts: a four-way fan becomes four
// per-amount shared groups over ONE decomposition slot — the first
// member fills it, the other three replay.
func TestSharedDetectionFanAcrossAmounts(t *testing.T) {
	p := compile(t, fanAcrossAmounts())
	if g, r, rep := p.SharedGroups(); g != 4 || r != 4 || rep != 3 {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want 4 (4, 3)", g, r, rep)
	}
	if p.NumDecomps != 1 {
		t.Errorf("NumDecomps = %d, want 1", p.NumDecomps)
	}
	fresh := 0
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != OpSharedRot {
			continue
		}
		if len(st.Shared) != 1 {
			t.Fatalf("fan group has %d members, want 1 per amount", len(st.Shared))
		}
		m := st.Shared[0]
		if m.Slot != 0 {
			t.Errorf("member uses slot %d, want 0", m.Slot)
		}
		if st.A != m.Src || st.Dst != m.Dst {
			t.Error("shared step head disagrees with its only member")
		}
		if m.Fresh {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d fresh fills, want exactly 1 (the schedule-first amount)", fresh)
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled shared plan fails validation: %v", err)
	}
}

// TestSharedDetectionCrossSource: two once-rotated sources sharing an
// amount fuse into one group — the batching win carried over. Each
// member fills its own slot (nothing to replay).
func TestSharedDetectionCrossSource(t *testing.T) {
	p := compile(t, crossSourceProgram())
	if g, r, rep := p.SharedGroups(); g != 1 || r != 2 || rep != 0 {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want 1 (2, 0)", g, r, rep)
	}
	if p.NumDecomps != 2 {
		t.Errorf("NumDecomps = %d, want 2 (both members fill within one step)", p.NumDecomps)
	}
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != OpSharedRot {
			continue
		}
		if st.Shared[0].Src == st.Shared[1].Src {
			t.Error("shared members duplicate a source")
		}
		for _, m := range st.Shared {
			if !m.Fresh {
				t.Error("once-rotated member marked as a replay")
			}
		}
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled shared plan fails validation: %v", err)
	}
}

// TestSharedMeetOfHoistingAndBatching: two sources × two amounts give
// two groups of two members over two slots — four rotations, two
// decompositions, two Galois resolves. Neither hoisting alone (4
// resolves) nor batching alone (4 decompositions) reaches that count.
func TestSharedMeetOfHoistingAndBatching(t *testing.T) {
	p := compile(t, meetProgram())
	if g, r, rep := p.SharedGroups(); g != 2 || r != 4 || rep != 2 {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want 2 (4, 2)", g, r, rep)
	}
	if p.NumDecomps != 2 {
		t.Errorf("NumDecomps = %d, want 2", p.NumDecomps)
	}
	if d := p.DigitDecompositions(); d != 2 {
		t.Errorf("DigitDecompositions = %d, want 2", d)
	}
	// The second group's members replay the slots the first filled, per
	// source.
	slotOf := map[int]int{}
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != OpSharedRot {
			continue
		}
		for _, m := range st.Shared {
			if m.Fresh {
				slotOf[m.Src] = m.Slot
			} else if s, ok := slotOf[m.Src]; !ok || s != m.Slot {
				t.Errorf("source %d replays slot %d, filled slot %d", m.Src, m.Slot, s)
			}
		}
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled shared plan fails validation: %v", err)
	}
}

// TestSharedSlotReuseAcrossLiveRanges: when a twice-rotated source
// dies, its decomposition slot frees for the next twice-rotated
// source — peak NumDecomps stays 1 across both live ranges.
func TestSharedSlotReuseAcrossLiveRanges(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpRotCt, Dst: 4, A: 3, Rot: 1},
			{Op: quill.OpRotCt, Dst: 5, A: 3, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 4, B: 5},
		},
		Output: 6,
	}
	p := compile(t, l)
	if g, r, rep := p.SharedGroups(); g != 4 || r != 4 || rep != 2 {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want 4 (4, 2)", g, r, rep)
	}
	if p.NumDecomps != 1 {
		t.Errorf("NumDecomps = %d, want 1 (disjoint live ranges share the slot)", p.NumDecomps)
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled shared plan fails validation: %v", err)
	}
}

// TestSharedOnceRotatedStaysPlain: a lone rotation of a once-rotated
// source gains nothing from a slot and stays a plain serial step —
// eligible for level-parallel execution.
func TestSharedOnceRotatedStaysPlain(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 2, A: 1, B: 0},
		},
		Output: 2,
	}
	p := compile(t, l)
	if g, _, _ := p.SharedGroups(); g != 0 {
		t.Fatalf("lone rotation fused into %d shared groups", g)
	}
	if p.NumDecomps != 0 {
		t.Errorf("NumDecomps = %d, want 0", p.NumDecomps)
	}
	plain := 0
	for i := range p.Steps {
		if p.Steps[i].Op == quill.OpRotCt {
			plain++
		}
	}
	if plain != 1 {
		t.Errorf("%d plain rotation steps, want 1", plain)
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled plan fails validation: %v", err)
	}
}

// TestBatchDetectionParallelTrees: the sibling rotations of two
// interleaved reduction trees fuse level by level — three groups (rot
// 4, 2, 1) of two once-rotated sources each, every member filling its
// own slot.
func TestBatchDetectionParallelTrees(t *testing.T) {
	p := compile(t, interleavedTrees(8))
	if g, r, rep := p.SharedGroups(); g != 3 || r != 6 || rep != 0 {
		t.Fatalf("shared groups = %d (%d rotations, %d replayed), want 3 (6, 0)", g, r, rep)
	}
	if err := p.Validate(testParams); err != nil {
		t.Errorf("compiled shared plan fails validation: %v", err)
	}
}

// TestBatchWindowBound: same-amount rotations of different sources
// fuse only within shareWindow schedule entries — the window caps how
// long member sources are kept live.
func TestBatchWindowBound(t *testing.T) {
	// The second same-amount rotation sits gap schedule entries after the
	// first, with gap-1 additions in between.
	apart := func(gap int) *quill.Lowered {
		l := &quill.Lowered{VecLen: 8, NumCtInputs: 2}
		l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1})
		for i := 1; i < gap; i++ {
			l.Instrs = append(l.Instrs, quill.LInstr{Op: quill.OpAddCtCt, Dst: 2 + i, A: 1 + i, B: 0})
		}
		r := 2 + gap
		l.Instrs = append(l.Instrs,
			quill.LInstr{Op: quill.OpRotCt, Dst: r, A: 1, Rot: 1},
			quill.LInstr{Op: quill.OpAddCtCt, Dst: r + 1, A: r - 1, B: r})
		l.Output = r + 1
		return l
	}
	for gap, want := range map[int]int{1: 1, 3: 1, shareWindow: 1, shareWindow + 1: 0} {
		p := compile(t, apart(gap))
		if g, _, _ := p.SharedGroups(); g != want {
			t.Errorf("rotations %d entries apart: %d groups, want %d", gap, g, want)
		}
		if err := p.Validate(testParams); err != nil {
			t.Errorf("gap %d: %v", gap, err)
		}
	}
}

// TestBatchSourceDefinedBeforeLeader: a member whose source is defined
// AFTER the would-be leader cannot move up to the leader's position,
// so both once-rotated sources stay plain serial rotations.
func TestBatchSourceDefinedBeforeLeader(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 8, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1}, // leader candidate
			{Op: quill.OpAddCtCt, Dst: 2, A: 1, B: 0}, // v2 defined after the leader
			{Op: quill.OpRotCt, Dst: 3, A: 2, Rot: 1}, // same amount, source v2
			{Op: quill.OpAddCtCt, Dst: 4, A: 3, B: 2},
		},
		Output: 4,
	}
	p := compile(t, l)
	if g, _, _ := p.SharedGroups(); g != 0 {
		t.Errorf("fused a member whose source postdates the leader (%d groups)", g)
	}
}

// TestSharedKernelDecompositionsPinned pins the static digit-
// decomposition counts on the eleven Porcupine kernels against their
// flat counts — one decomposition per surviving rotation, recorded
// when plans could still be compiled without grouping. The identity
// shared = flat − replayed ties the savings to the replay mechanism,
// and the count strictly decreases on every multi-rotation kernel.
func TestSharedKernelDecompositionsPinned(t *testing.T) {
	params, enc := testEnv(t)
	// flat → shared counts; equal entries are the reduction kernels
	// whose rotations all read distinct once-rotated accumulators.
	want := map[string][2]int{
		"box-blur":              {3, 1},
		"dot-product":           {3, 3},
		"hamming-distance":      {2, 2},
		"l2-distance":           {3, 3},
		"linear-regression":     {1, 1},
		"polynomial-regression": {0, 0},
		"gx":                    {6, 1},
		"gy":                    {6, 1},
		"roberts-cross":         {3, 1},
		"sobel":                 {8, 1},
		"harris":                {17, 4},
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
		sd := p.DigitDecompositions()
		_, _, rep := p.SharedGroups()
		if sd != w[1] || sd+rep != w[0] {
			t.Errorf("%s: %d decompositions + %d replayed, want %d of flat %d", name, sd, rep, w[1], w[0])
		}
	}
}

// TestValidateRejectsMalformedShared corrupts the shared-step
// invariants — member lists, slot bookkeeping and the fill-state
// replay contract — one at a time. The wire corruption matrix re-runs
// the same rules through an encode/decode round trip.
func TestValidateRejectsMalformedShared(t *testing.T) {
	params, _ := testEnv(t)
	sharedIdx := func(p *ExecutionPlan) int {
		for i := range p.Steps {
			if p.Steps[i].Op == OpSharedRot {
				return i
			}
		}
		t.Fatal("no shared step")
		return -1
	}
	// meetProgram: two groups of two members, slots 0 and 1, the second
	// group all replays — every invariant is expressible.
	base := compile(t, meetProgram())
	cases := []struct {
		name   string
		mutate func(p *ExecutionPlan)
	}{
		{"no-members", func(p *ExecutionPlan) { p.Steps[sharedIdx(p)].Shared = nil }},
		{"dup-src", func(p *ExecutionPlan) {
			st := &p.Steps[sharedIdx(p)]
			st.Shared[1].Src = st.Shared[0].Src
		}},
		{"dup-dst", func(p *ExecutionPlan) {
			st := &p.Steps[sharedIdx(p)]
			st.Shared[1].Dst = st.Shared[0].Dst
		}},
		{"src-range", func(p *ExecutionPlan) {
			p.Steps[sharedIdx(p)].Shared[1].Src = p.NumCtInputs + p.NumRegs
		}},
		{"dst-range", func(p *ExecutionPlan) { p.Steps[sharedIdx(p)].Shared[1].Dst = p.NumRegs }},
		{"slot-range", func(p *ExecutionPlan) { p.Steps[sharedIdx(p)].Shared[1].Slot = p.NumDecomps }},
		{"head-mismatch", func(p *ExecutionPlan) {
			st := &p.Steps[sharedIdx(p)]
			st.Dst = st.Shared[1].Dst
		}},
		{"rot-undeclared", func(p *ExecutionPlan) { p.Steps[sharedIdx(p)].Rot = 777 }},
		{"dst-aliases-src", func(p *ExecutionPlan) {
			st := &p.Steps[sharedIdx(p)]
			st.Shared[1].Src = p.NumCtInputs + st.Shared[0].Dst
		}},
		{"shared-on-plain", func(p *ExecutionPlan) {
			for i := range p.Steps {
				if p.Steps[i].Op != OpSharedRot {
					p.Steps[i].Shared = []SharedSrc{{Src: 0, Dst: 0, Slot: 0, Fresh: true}}
					return
				}
			}
		}},
		{"replay-before-fill", func(p *ExecutionPlan) {
			p.Steps[sharedIdx(p)].Shared[0].Fresh = false
		}},
		{"replay-wrong-slot", func(p *ExecutionPlan) {
			// Swap the replaying group's slots: each member now replays
			// the OTHER source's digits.
			last := -1
			for i := range p.Steps {
				if p.Steps[i].Op == OpSharedRot {
					last = i
				}
			}
			st := &p.Steps[last]
			st.Shared[0].Slot, st.Shared[1].Slot = st.Shared[1].Slot, st.Shared[0].Slot
		}},
		{"numdecomps-zero", func(p *ExecutionPlan) { p.NumDecomps = 0 }},
		{"numdecomps-inflated", func(p *ExecutionPlan) { p.NumDecomps++ }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p2 := *base
			p2.Steps = append([]Step(nil), base.Steps...)
			for i := range p2.Steps {
				p2.Steps[i].Shared = append([]SharedSrc(nil), base.Steps[i].Shared...)
			}
			p2.Rotations = append([]int(nil), base.Rotations...)
			c.mutate(&p2)
			if err := p2.Validate(params); err == nil {
				t.Error("malformed shared plan validated")
			}
		})
	}
}
