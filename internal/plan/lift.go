package plan

import (
	"fmt"

	"porcupine/internal/quill"
)

// A ct×ct product lifts each operand into the extended RNS basis and
// forward-transforms it before the pointwise tensor (bfv.Lifted). The
// lift depends only on the operand's value, so this file gives every
// product operand a session lift slot: the first read of a value since
// its register was last written fills a slot, and every later product
// reading the same value — the second operand of a square, or a
// multiplicand shared across steps — reuses the resident lift. Slots
// are reused by interval, like decomposition slots: a slot is live from
// its fill to the last product that reads it, then free for the next
// fill.

// Lift is one OpMulCtCt operand's session lift slot. Fresh marks the
// read that fills the slot; a read with Fresh clear multiplies the
// lift an earlier fill left resident. The second operand of a square
// names its first operand's slot with Fresh clear.
type Lift struct {
	Slot  int
	Fresh bool
}

// AssignLifts derives the lift slots of every OpMulCtCt step (LiftA,
// LiftB) and NumLifts, the peak number of lifts live at once. It reads
// only the step list's operand codes and destinations and indexes
// nothing by them, so it is safe on a plan not yet validated: wire
// decode calls it before Validate, which checks the result. Compile
// and Prepare call it before Levelize, which orders the slots as
// pseudo-registers; a levelized plan's slots are final, so the call is
// then a no-op.
func (p *ExecutionPlan) AssignLifts() {
	if p.Levels != nil {
		return
	}
	// Pass 1: the fill each product operand reads. live maps an operand
	// code to the fill its register still holds; any write to the
	// register ends that, so the next read is a new fill.
	var lastRead []int // per fill, the last step reading it
	ref := make([][2]int, len(p.Steps))
	live := map[int]int{}
	var wbuf [8]int
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op == quill.OpMulCtCt {
			for k, code := range [2]int{st.A, st.B} {
				id, ok := live[code]
				if !ok {
					id = len(lastRead)
					lastRead = append(lastRead, 0)
					live[code] = id
				}
				lastRead[id] = i
				ref[i][k] = id
			}
		}
		for _, r := range p.stepWrites(st, wbuf[:0]) {
			if r < p.NumRegs {
				delete(live, p.NumCtInputs+r)
			}
		}
	}

	// Pass 2: interval slot allocation. A fill takes a free slot at its
	// first read; its slot frees after its last read, once both operands
	// of that step hold theirs.
	slot := make([]int, len(lastRead))
	for i := range slot {
		slot[i] = -1
	}
	var free []int
	p.NumLifts = 0
	for i := range p.Steps {
		st := &p.Steps[i]
		st.LiftA, st.LiftB = Lift{}, Lift{}
		if st.Op != quill.OpMulCtCt {
			continue
		}
		for k, l := range [2]*Lift{&st.LiftA, &st.LiftB} {
			id := ref[i][k]
			fresh := slot[id] < 0
			if fresh {
				if n := len(free); n > 0 {
					slot[id], free = free[n-1], free[:n-1]
				} else {
					slot[id] = p.NumLifts
					p.NumLifts++
				}
			}
			*l = Lift{Slot: slot[id], Fresh: fresh}
		}
		for k, id := range ref[i] {
			if lastRead[id] == i && (k == 0 || id != ref[i][0]) {
				free = append(free, slot[id])
			}
		}
	}
}

// LiftCounts returns the plan's static count of operand lifts per run
// (fills) against the operand reads of its ct×ct products (two per
// product): reads − fills is the lift work the slots save.
func (p *ExecutionPlan) LiftCounts() (fills, reads int) {
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != quill.OpMulCtCt {
			continue
		}
		reads += 2
		for _, l := range [2]Lift{st.LiftA, st.LiftB} {
			if l.Fresh {
				fills++
			}
		}
	}
	return fills, reads
}

// validateLifts checks the derived lift state: slots in range and
// dense, the second operand of a square naming the first's slot, two
// distinct operands in distinct slots, and every reuse finding its own
// operand's lift resident — filled by an earlier read of the same code
// with the register unwritten since.
func (p *ExecutionPlan) validateLifts() error {
	maxSlot := -1
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op != quill.OpMulCtCt {
			if st.LiftA != (Lift{}) || st.LiftB != (Lift{}) {
				return fmt.Errorf("plan: step %d (%v): lift slots on a step that is not a ct×ct product", i, st.Op)
			}
			continue
		}
		for _, l := range [2]Lift{st.LiftA, st.LiftB} {
			if l.Slot < 0 || l.Slot >= p.NumLifts {
				return fmt.Errorf("plan: step %d: lift slot %d outside the session's %d", i, l.Slot, p.NumLifts)
			}
			maxSlot = max(maxSlot, l.Slot)
		}
	}
	if p.NumLifts != maxSlot+1 {
		return fmt.Errorf("plan: %d lift slots declared, products use %d", p.NumLifts, maxSlot+1)
	}
	holds := make([]int, p.NumLifts) // operand code whose lift the slot holds
	used := make([]bool, p.NumLifts)
	for s := range holds {
		holds[s] = -1
	}
	var wbuf [8]int
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Op == quill.OpMulCtCt {
			if st.A == st.B {
				if st.LiftB != (Lift{Slot: st.LiftA.Slot}) {
					return fmt.Errorf("plan: step %d: square's second operand does not reuse its first's lift slot", i)
				}
			} else if st.LiftA.Slot == st.LiftB.Slot {
				return fmt.Errorf("plan: step %d: distinct operands share lift slot %d", i, st.LiftA.Slot)
			}
			for _, o := range [2]struct {
				code int
				l    Lift
			}{{st.A, st.LiftA}, {st.B, st.LiftB}} {
				used[o.l.Slot] = true
				switch {
				case o.l.Fresh:
					holds[o.l.Slot] = o.code
				case holds[o.l.Slot] != o.code:
					return fmt.Errorf("plan: step %d: operand %d reuses lift slot %d, but the slot holds %d",
						i, o.code, o.l.Slot, holds[o.l.Slot])
				}
			}
		}
		// A write to a lifted value's register stales its lift.
		for _, r := range p.stepWrites(st, wbuf[:0]) {
			for s := range holds {
				if holds[s] == p.NumCtInputs+r {
					holds[s] = -1
				}
			}
		}
	}
	for s, u := range used {
		if !u {
			return fmt.Errorf("plan: lift slot %d declared but never used", s)
		}
	}
	return nil
}
