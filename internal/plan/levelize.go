package plan

import "porcupine/internal/quill"

// This file derives the dependency-levelized schedule of a plan: a
// partition of the step list into levels such that the steps of one
// level touch pairwise-disjoint registers and depend only on levels
// before them. A session may execute the steps of a level in any
// order — or concurrently — and obtain ciphertexts bit-identical to
// the serial schedule, which remains the differential reference.
//
// Because the register allocator reuses buffers based on the serial
// order, true dataflow (RAW) edges are not enough: a step overwriting
// a register must also wait for the register's earlier readers (WAR)
// and its earlier writer (WAW), or a parallel run would clobber a
// value another in-flight step still reads. Levelize therefore tracks,
// per register, the last writing step and the readers since that
// write, and places every step strictly after all of its hazards.

// stepReads appends the register indices step st reads to buf.
// Caller-input operands are read-only for the plan's whole lifetime
// and never create hazards. Shared rotation members additionally read
// the decomposition-slot pseudo-registers (NumRegs+Slot) they replay,
// so a replaying step orders after the step whose Fresh member filled
// the slot — a dependency invisible to the register file alone. A
// product likewise reads the lift-slot pseudo-register
// (liftReg(Slot)) of each operand lift it reuses from an earlier step.
func (p *ExecutionPlan) stepReads(st *Step, buf []int) []int {
	read := func(code int) {
		if !p.IsInput(code) {
			buf = append(buf, p.Reg(code))
		}
	}
	if st.Op == OpSharedRot {
		for i := range st.Shared {
			read(st.Shared[i].Src)
			if !st.Shared[i].Fresh {
				buf = append(buf, p.NumRegs+st.Shared[i].Slot)
			}
		}
		return buf
	}
	read(st.A)
	switch st.Op {
	case quill.OpAddCtCt, quill.OpSubCtCt:
		read(st.B)
	case quill.OpMulCtCt:
		read(st.B)
		if !st.LiftA.Fresh {
			buf = append(buf, p.liftReg(st.LiftA.Slot))
		}
		// A square's second operand reads the lift its first just filled.
		if !st.LiftB.Fresh && !(st.LiftA.Fresh && st.LiftB.Slot == st.LiftA.Slot) {
			buf = append(buf, p.liftReg(st.LiftB.Slot))
		}
	}
	return buf
}

// liftReg is the pseudo-register of lift slot s, past the register
// file and the decomposition slots.
func (p *ExecutionPlan) liftReg(s int) int { return p.NumRegs + p.NumDecomps + s }

// stepWrites appends the register indices step st writes to buf. For
// a shared group that is every member destination, not just the
// mirror Dst; a shared Fresh member also writes its slot's
// pseudo-register (NumRegs+Slot), creating the WAR/WAW hazards that
// keep a slot refill strictly after the previous fill's replays, and a
// product writes the lift-slot pseudo-register of each lift it fills.
func (p *ExecutionPlan) stepWrites(st *Step, buf []int) []int {
	switch st.Op {
	case OpSharedRot:
		for i := range st.Shared {
			buf = append(buf, st.Shared[i].Dst)
			if st.Shared[i].Fresh {
				buf = append(buf, p.NumRegs+st.Shared[i].Slot)
			}
		}
	case quill.OpMulCtCt:
		buf = append(buf, st.Dst)
		for _, l := range [2]Lift{st.LiftA, st.LiftB} {
			if l.Fresh {
				buf = append(buf, p.liftReg(l.Slot))
			}
		}
	default:
		buf = append(buf, st.Dst)
	}
	return buf
}

// Levelize computes Levels, the dependency-levelized step schedule:
// Levels[l] lists the indices of the steps of level l in program
// order; a step's level is one past the deepest of its RAW, WAR and
// WAW hazards. Derived state — never serialized; wire decode and
// Compile both recompute it. Idempotent.
func (p *ExecutionPlan) Levelize() {
	if p.Levels != nil {
		return
	}
	type regState struct {
		lastWriter int
		readers    []int
	}
	// Slot pseudo-registers live past the real register file.
	regs := make([]regState, p.NumRegs+p.NumDecomps+p.NumLifts)
	for r := range regs {
		regs[r].lastWriter = -1
	}
	level := make([]int, len(p.Steps))
	depth := 0
	var rbuf, wbuf [8]int
	for i := range p.Steps {
		st := &p.Steps[i]
		reads := p.stepReads(st, rbuf[:0])
		writes := p.stepWrites(st, wbuf[:0])
		lv := 0
		for _, r := range reads {
			if w := regs[r].lastWriter; w >= 0 && level[w] >= lv {
				lv = level[w] + 1 // RAW
			}
		}
		for _, r := range writes {
			if w := regs[r].lastWriter; w >= 0 && level[w] >= lv {
				lv = level[w] + 1 // WAW
			}
			for _, rd := range regs[r].readers {
				if level[rd] >= lv {
					lv = level[rd] + 1 // WAR
				}
			}
		}
		level[i] = lv
		if lv >= depth {
			depth = lv + 1
		}
		for _, r := range reads {
			regs[r].readers = append(regs[r].readers, i)
		}
		for _, r := range writes {
			regs[r].lastWriter = i
			regs[r].readers = regs[r].readers[:0]
		}
	}
	p.Levels = make([][]int, depth)
	for i, lv := range level {
		p.Levels[lv] = append(p.Levels[lv], i)
	}
}

// LevelStats reports the levelized schedule's shape: the number of
// levels (the schedule's critical path in steps) and the widest level
// (the plan's maximum step-level parallelism).
func (p *ExecutionPlan) LevelStats() (depth, maxWidth int) {
	for _, lv := range p.Levels {
		if len(lv) > maxWidth {
			maxWidth = len(lv)
		}
	}
	return len(p.Levels), maxWidth
}
