// Package plan compiles lowered Quill programs into execution plans:
// fixed, allocation-free schedules that any number of goroutines can
// run concurrently against a shared key set.
//
// The interpreter in internal/backend walks a lowered program one
// instruction at a time, allocating a fresh ciphertext per instruction
// and re-encoding plaintext constants on every call. A plan does all
// of that analysis once, at compile time:
//
//   - liveness analysis and register allocation map the program's SSA
//     values onto a minimal pool of reusable ciphertext buffers
//     ("registers"), so a program with hundreds of instructions runs
//     in a handful of buffers;
//   - instruction selection targets the evaluator's alias-safe
//     in-place forms (AddInto, MulInto, ...), with no-op instructions
//     (identity rotations, relinearization of degree-1 values)
//     resolved to aliases and dead instructions dropped;
//   - plaintext constants are encoded once, at plan time;
//   - the exact Galois-key set the program needs is computed per
//     plan, so a serving context generates precisely the keys its
//     plans use;
//   - every value gets a home domain (coefficient or NTT) that
//     minimizes the transforms outside key switching (domain.go);
//   - rotations run in shared groups (share.go): one key-switch
//     decomposition per source serves all of its rotations, and one
//     Galois resolve per group serves all sources rotated by its
//     amount;
//   - ct×ct products read operand lifts from session slots, one lift
//     per value (lift.go), and the steps are levelized for parallel
//     execution (levelize.go).
//
// Compile is the one way to build a plan, and it has no switches: the
// schedule it emits is the only one the backend executes. Plans decoded
// from the wire (internal/wire) are checked by Validate and derived by
// Prepare exactly as Compile derives its own.
//
// Plans are immutable after Compile and safe to share between
// goroutines; the mutable state (the register file) lives in the
// executing session (backend.Session).
package plan

import (
	"fmt"
	"math"
	"sort"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

// OpNTT and OpINTT are the plan-only domain-conversion opcodes the
// domain-assignment pass inserts at true domain boundaries: OpNTT
// materializes the evaluation-domain twin of a coefficient-domain
// register, OpINTT the reverse. Both are unary (operand A, register
// destination) and cost two transforms (a degree-1 ciphertext's two
// rows); they never appear in lowered programs.
const (
	OpNTT  quill.Op = 0x41
	OpINTT quill.Op = 0x42
)

// OpSharedRot is the plan-only opcode of a double-hoisted rotation
// group: rotations by ONE amount (sharing the Galois element, key and
// tables) whose members each consume a session decomposition SLOT. A
// member with Fresh set lifts and forward-NTTs its source's digits into
// the slot; a member with Fresh clear replays a decomposition an
// EARLIER step left resident — so one decomposition per source serves
// every rotation of that source, at any amount, anywhere in the
// schedule (hoisting across amounts AND batching across sources).
// Synthesized by the sharing pass (share.go); never appears in lowered
// programs.
const OpSharedRot quill.Op = 0x44

// SharedSrc is one member of a double-hoisted rotation group: one
// source operand rotated by the step's shared amount into its own
// destination register, through the session decomposition slot the
// liveness pass assigned to the source. Fresh marks the member that
// fills the slot (the source's first rotation in schedule order);
// every later member of the same source, in this step or a later one,
// replays the resident digits.
type SharedSrc struct {
	Src   int  // operand code of this member's source
	Dst   int  // register receiving this member's rotation
	Slot  int  // session decomposition slot holding the source's digits
	Fresh bool // this member decomposes the source into the slot
}

// Step is one scheduled instruction of a plan. Operand fields A and B
// hold operand codes: code < NumCtInputs refers to the caller's input
// ciphertext with that index, any other code refers to register
// code-NumCtInputs. Dst is always a register index (plans never write
// to caller inputs).
type Step struct {
	Op  quill.Op
	Dst int // register index (Shared[0].Dst for shared steps)
	A   int // operand code
	B   int // operand code (ct-ct ops)
	Rot int // canonical rotation amount (OpRotCt, OpSharedRot)
	Pt  int // plaintext input index (ct-pt ops), -1 for constants
	Con int // pre-encoded constant index (ct-pt ops), -1 for inputs

	// Shared lists the members of a double-hoisted group (OpSharedRot
	// only; nil for every other op). Every member rotates its own
	// source by the step's shared Rot amount out of its decomposition
	// slot; A and Dst mirror the first member. Entries are in program
	// order; no member's destination may alias any member's source, and
	// a source's register must survive untouched from its Fresh member
	// to its last shared rotation (its c0 is read per rotation).
	Shared []SharedSrc

	// LiftA and LiftB are the session lift slots of an OpMulCtCt step's
	// operands (zero on every other op); see AssignLifts. Derived —
	// never serialized.
	LiftA, LiftB Lift
}

// ExecutionPlan is a compiled, immutable execution schedule for one
// lowered program against one BFV parameter set.
type ExecutionPlan struct {
	// N is the ring degree of the parameter set the plan (and its
	// pre-encoded constants) was compiled for; executing it under
	// different parameters is rejected.
	N int

	VecLen      int
	NumCtInputs int
	NumPtInputs int

	// NumRegs is the size of the ciphertext buffer pool a session needs
	// to run the plan — the register-allocation result.
	NumRegs int
	// RegDeg[r] is the maximum ciphertext degree register r ever holds,
	// so sessions can pre-size buffers.
	RegDeg []int
	// RegDomain[r] is the representation register r holds for the
	// plan's whole lifetime — registers never change domain, and the
	// allocator never reuses a buffer across domains. NTT-resident
	// registers always hold degree-1 ciphertexts. One entry per
	// register; Compile and wire decode always set it.
	RegDomain []Domain
	// NumDecomps is the number of key-switching decomposition slots a
	// session needs: the peak number of simultaneously-live shared
	// decompositions (the slot-liveness result: a slot is live from its
	// Fresh member to the source's last shared rotation, then reused),
	// 0 for a plan without shared groups. Sized by the register
	// allocator; never serialized (wire decoding recomputes it from the
	// step list).
	NumDecomps int
	// NumLifts is the number of multiplicand lift slots a session needs:
	// the peak number of simultaneously-live lifts (AssignLifts), 0 for
	// a plan without ct×ct products. Derived — never serialized; Compile
	// and wire decode both compute it from the step list.
	NumLifts int

	Steps []Step

	// Consts holds the plaintext constants of the program, encoded once
	// at plan time (shared, read-only).
	Consts []*bfv.Plaintext

	// Rotations is the exact set of nonzero rotation amounts the plan
	// executes — the Galois keys it needs. Amounts are canonical
	// (quill.NormRot) when the program vector fills the HE row and
	// literal otherwise (see Compile).
	Rotations []int

	// Out is the operand code of the program output: an input code when
	// the program returns an input unchanged, a register code otherwise.
	Out int

	// Source is the lowered program the plan was compiled from (for
	// differential reference runs and reporting).
	Source *quill.Lowered

	// Prepared operand state, derived — never serialized — by Prepare:
	// evaluation-domain plaintext operands hoisted out of the step
	// loop. MulNTTConsts[c] is NTT(lift(Consts[c])) for constants some
	// mul-plain step reads (nil otherwise); AddNTTConsts[c] is
	// NTT(Δ·Consts[c]) for constants an NTT-destination add/sub-plain
	// step reads. PtNeedMulNTT/PtNeedAddNTT flag the runtime plaintext
	// inputs whose prepared forms a session must compute once per run.
	MulNTTConsts []*bfv.NTTPlaintext
	AddNTTConsts []*bfv.NTTPlaintext
	PtNeedMulNTT []bool
	PtNeedAddNTT []bool
	// Prepared reports whether Prepare ran (Compile, wire decode and
	// BuildMuxWith all run it); a session executes mul-plain only
	// through the prepared operands.
	Prepared bool

	// Levels is the dependency-levelized step schedule (see Levelize):
	// Levels[l] lists the indices of the steps of level l, which touch
	// pairwise-disjoint registers and depend only on earlier levels, so
	// a session may run them concurrently. Derived — never serialized.
	Levels [][]int
}

// IsInput reports whether an operand code refers to a caller input.
func (p *ExecutionPlan) IsInput(code int) bool { return code < p.NumCtInputs }

// Reg returns the register index of a non-input operand code.
func (p *ExecutionPlan) Reg(code int) int { return code - p.NumCtInputs }

// InstructionCount returns the number of scheduled steps (after no-op
// aliasing and dead-code elimination).
func (p *ExecutionPlan) InstructionCount() int { return len(p.Steps) }

// SharedGroups returns the number of double-hoisted rotation steps,
// the total rotations they cover, and how many of those rotations
// replay an already-resident decomposition (Fresh clear) — the static
// measure of decompose work the sharing pass eliminated.
func (p *ExecutionPlan) SharedGroups() (groups, rotations, replayed int) {
	for i := range p.Steps {
		if p.Steps[i].Op == OpSharedRot {
			groups++
			for _, m := range p.Steps[i].Shared {
				rotations++
				if !m.Fresh {
					replayed++
				}
			}
		}
	}
	return groups, rotations, replayed
}

// DigitDecompositions is the plan's static count of rotation
// key-switch digit decompositions per run — the expensive shared
// prefix (K digit lifts + K forward NTTs) double-hoisting exists to
// minimize. Each plain rotation and each Fresh shared member
// decomposes its source; replayed shared members cost nothing.
// Relinearization decompositions are excluded: no schedule changes
// them.
func (p *ExecutionPlan) DigitDecompositions() int {
	c := 0
	for i := range p.Steps {
		st := &p.Steps[i]
		switch st.Op {
		case quill.OpRotCt:
			c++
		case OpSharedRot:
			for _, m := range st.Shared {
				if m.Fresh {
					c++
				}
			}
		}
	}
	return c
}

// schedEntry is one scheduled unit of the compile pipeline: a plain
// instruction, or a rotation group scheduled at its first member's
// position — a fan-out (one source, many amounts) from Pass 3 until
// the sharing pass dissolves it, a shared group (one amount) after.
type schedEntry struct {
	idx     int   // instruction index (first member for groups)
	members []int // nil → plain step; else the group's rotation instrs
	shared  bool  // members share an amount through decomposition slots (OpSharedRot)
}

// Compile analyzes a lowered program and produces its execution plan
// for the given parameter set. The encoder is used once, to pre-encode
// plaintext constants; it must belong to params.
func Compile(params *bfv.Parameters, enc *bfv.Encoder, l *quill.Lowered) (*ExecutionPlan, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if l.VecLen > params.SlotCount() {
		return nil, fmt.Errorf("plan: program vector of %d slots exceeds row size %d", l.VecLen, params.SlotCount())
	}
	n := l.NumValues()
	nIn := l.NumCtInputs

	// Rotation amounts may be canonicalized modulo the vector size
	// only when the program vector fills the whole HE row: then row
	// rotation IS circular rotation mod VecLen and abstractly equal
	// amounts are interchangeable. For shorter vectors the row shifts
	// zero padding into the window, which slots depends on the literal
	// amount — so the plan keeps amounts literal (only a literal 0 is
	// the identity).
	norm := func(r int) int {
		if l.VecLen == params.SlotCount() {
			return quill.NormRot(r, l.VecLen)
		}
		return r
	}

	// Pass 1: canonical values and static ciphertext degrees. canon[v]
	// resolves no-op instructions (rot ≡ 0, relin of a degree-1 value)
	// to the value they forward; deg[v] is the ciphertext degree of the
	// canonical value.
	canon := make([]int, n)
	deg := make([]int, n)
	for i := 0; i < nIn; i++ {
		canon[i] = i
		deg[i] = 1
	}
	// real[idx] marks instructions that survive aliasing (indexed like
	// l.Instrs). Rotations are additionally value-numbered: a second
	// rotation of the same canonical source by the same canonical
	// amount is the same ciphertext bit for bit, so it aliases the
	// first — which also keeps rotation fan-outs free of duplicate
	// amounts.
	real := make([]bool, len(l.Instrs))
	type rotKey struct{ src, rot int }
	rotCSE := map[rotKey]int{}
	for idx, in := range l.Instrs {
		dst := nIn + idx
		a := canon[in.A]
		switch in.Op {
		case quill.OpRotCt:
			if deg[a] > 1 {
				return nil, fmt.Errorf("plan: %s: rotation of degree-%d ciphertext", in, deg[a])
			}
			r := norm(in.Rot)
			if r == 0 {
				canon[dst] = a
				deg[dst] = deg[a]
				continue
			}
			if prev, ok := rotCSE[rotKey{a, r}]; ok {
				canon[dst] = prev
				deg[dst] = 1
				continue
			}
			rotCSE[rotKey{a, r}] = dst
			canon[dst], deg[dst], real[idx] = dst, 1, true
		case quill.OpRelin:
			if deg[a] == 1 {
				canon[dst] = a
				deg[dst] = 1
				continue
			}
			if deg[a] != 2 {
				return nil, fmt.Errorf("plan: %s: relinearization of degree-%d ciphertext", in, deg[a])
			}
			canon[dst], deg[dst], real[idx] = dst, 1, true
		case quill.OpMulCtCt:
			if deg[a] > 1 || deg[canon[in.B]] > 1 {
				return nil, fmt.Errorf("plan: %s: multiplication of degree-%d×%d ciphertexts (relinearize first)",
					in, deg[a], deg[canon[in.B]])
			}
			canon[dst], deg[dst], real[idx] = dst, 2, true
		case quill.OpAddCtCt, quill.OpSubCtCt:
			d := deg[a]
			if b := deg[canon[in.B]]; b > d {
				d = b
			}
			canon[dst], deg[dst], real[idx] = dst, d, true
		case quill.OpAddCtPt, quill.OpSubCtPt, quill.OpMulCtPt:
			canon[dst], deg[dst], real[idx] = dst, deg[a], true
		default:
			return nil, fmt.Errorf("plan: unknown opcode %v", in.Op)
		}
	}
	output := canon[l.Output]

	// Pass 2: dead-code elimination by backwards reachability from the
	// output over canonical values.
	live := make([]bool, n)
	live[output] = true
	for idx := len(l.Instrs) - 1; idx >= 0; idx-- {
		dst := nIn + idx
		if !real[idx] || !live[dst] {
			real[idx] = false
			continue
		}
		in := l.Instrs[idx]
		live[canon[in.A]] = true
		if in.Op.IsCtCt() {
			live[canon[in.B]] = true
		}
	}

	// Pass 3: rotation fan-out grouping. The ≥2 distinct surviving
	// rotations of one source move up to the first one's position as a
	// fan entry (moving a pure rotation earlier is always legal — its
	// only operand is already defined there). Fans are not a step kind:
	// they fix the schedule positions Pass 4 prices (one c0 transform
	// per fan) and the sharing pass starts from, which dissolves them.
	// The schedule below is the list the domain, liveness and register
	// passes run over: one entry per plain step or group.
	groupOf := map[int][]int{} // first-member idx → member idxs
	inGroup := map[int]bool{}  // member idx → fused away
	bySrc := map[int][]int{}
	var srcs []int
	for idx, in := range l.Instrs {
		if real[idx] && in.Op == quill.OpRotCt {
			src := canon[in.A]
			if len(bySrc[src]) == 0 {
				srcs = append(srcs, src)
			}
			bySrc[src] = append(bySrc[src], idx)
		}
	}
	for _, src := range srcs {
		members := bySrc[src]
		if len(members) < 2 {
			continue
		}
		groupOf[members[0]] = members
		for _, m := range members {
			inGroup[m] = true
		}
	}
	var sched []schedEntry
	for idx := range l.Instrs {
		if !real[idx] {
			continue
		}
		if members, ok := groupOf[idx]; ok {
			sched = append(sched, schedEntry{idx: idx, members: members})
			continue
		}
		if inGroup[idx] {
			continue // emitted with its group's first member
		}
		sched = append(sched, schedEntry{idx: idx})
	}

	// Pass 4: domain assignment (see domain.go) — the home domain of
	// every canonical value. Inputs, degree-2 values, and relin/tensor
	// results are always coefficient.
	dom := assignDomains(l, canon, deg, sched, nIn, output)

	// Pass 4b: rotation sharing (share.go), after domain assignment (it
	// preserves every member's source and destination domain, so the
	// assignment stays optimal for the same cost model). Fan groups
	// dissolve and every rotation of a multiply-rotated source — and
	// every rotation sharing an amount with a nearby one — becomes a
	// member of a per-amount OpSharedRot group that consumes a session
	// decomposition slot: one decomposition per source for the whole
	// plan.
	sched = shareRotations(l, canon, sched, nIn, norm)

	// Pass 5: work-item construction. A value's home form carries the
	// domain its defining step writes; a consumer needing the other
	// domain reads a conversion twin, materialized once per value by an
	// explicit OpNTT/OpINTT item placed right before its first
	// mismatched consumer. Form ids 0..n-1 are home forms (id = value);
	// twins get fresh ids ≥ n. Rotations and mul-plain read their
	// source's home form (the evaluator variants consume either
	// domain natively); ct-ct and ct-pt add/sub read both operands in
	// the destination's domain; tensor products, relinearization and
	// the program output read coefficient forms.
	formDom := make([]Domain, n, n+4)
	copy(formDom, dom)
	formDeg := make([]int, n, n+4)
	copy(formDeg, deg)
	twinOf := make([]int, n)
	for i := range twinOf {
		twinOf[i] = -1
	}
	type workItem struct {
		conv     bool // OpNTT/OpINTT twin materialization
		toNTT    bool
		e        schedEntry // instruction item (unused for conv)
		aForm    int        // operand form (conv: the source home form)
		bForm    int        // second operand form, -1 if none
		dstForm  int        // form defined (twin id for conv; -1 for groups)
		srcForms []int      // per-member source forms (shared groups only)
	}
	var items []workItem
	form := func(v int, d Domain) int {
		if dom[v] == d {
			return v
		}
		if twinOf[v] < 0 {
			id := len(formDom)
			formDom = append(formDom, d)
			formDeg = append(formDeg, 1)
			twinOf[v] = id
			items = append(items, workItem{conv: true, toNTT: d == DomNTT, aForm: v, bForm: -1, dstForm: id})
		}
		return twinOf[v]
	}
	for _, e := range sched {
		in := l.Instrs[e.idx]
		a := canon[in.A]
		if e.shared {
			it := workItem{e: e, aForm: a, bForm: -1, dstForm: -1}
			for _, m := range e.members {
				it.srcForms = append(it.srcForms, canon[l.Instrs[m].A])
			}
			items = append(items, it)
			continue
		}
		dstv := nIn + e.idx
		d := dom[dstv]
		it := workItem{e: e, aForm: a, bForm: -1, dstForm: dstv}
		switch in.Op {
		case quill.OpMulCtCt:
			it.aForm = form(a, DomCoeff)
			it.bForm = form(canon[in.B], DomCoeff)
		case quill.OpAddCtCt, quill.OpSubCtCt:
			it.aForm = form(a, d)
			it.bForm = form(canon[in.B], d)
		case quill.OpAddCtPt, quill.OpSubCtPt:
			it.aForm = form(a, d)
		}
		items = append(items, it)
	}
	outForm := form(output, DomCoeff)

	// Pass 6: liveness — the last item index reading each form. The
	// output form lives past the end of the program. A twin's source
	// is read by the conversion item itself, so a home form consumed
	// only through its twin stays live exactly until the conversion.
	last := make([]int, len(formDom))
	for i := range last {
		last[i] = -1
	}
	for t, it := range items {
		last[it.aForm] = t
		if it.bForm >= 0 {
			last[it.bForm] = t
		}
		for _, f := range it.srcForms {
			last[f] = t
		}
	}
	last[outForm] = math.MaxInt

	// Pass 6b: decomposition-slot liveness for shared groups. A source's
	// slot is live from its Fresh member (first shared rotation in
	// schedule order) to its last shared rotation, then returns to the
	// free pool for a later source — the interval structure mirrors
	// register liveness, keyed by source form (rotation members always
	// read home forms).
	lastShared := map[int]int{}
	for t, it := range items {
		if it.e.shared {
			for _, f := range it.srcForms {
				lastShared[f] = t
			}
		}
	}

	// Pass 7: linear-scan register allocation with in-place reuse. A
	// register freed by an operand's last use is immediately available
	// as the destination of the same step — every evaluator *Into form
	// is alias-safe, so dst may share a buffer with a dying operand.
	// Free lists are per-domain: a register holds one representation
	// for the plan's whole lifetime, so a buffer never crosses domains
	// (which also means a conversion never aliases its source).
	// Shared groups are the exception to in-place reuse: every member
	// reads its source (its c0, and its resident digits), so source
	// registers are freed only after the whole group is allocated, and
	// member destinations are pairwise distinct by construction. This
	// is also where decomposition slots are assigned (Pass 6b's
	// intervals) and NumDecomps, the session's slot count, is sized.
	p := &ExecutionPlan{
		N:           params.N,
		VecLen:      l.VecLen,
		NumCtInputs: nIn,
		NumPtInputs: l.NumPtInputs,
		Source:      l,
	}
	regOf := make([]int, len(formDom))
	for i := range regOf {
		regOf[i] = -1
	}
	var freeC, freeN []int
	code := func(f int) int {
		if f < nIn {
			return f
		}
		return nIn + regOf[f]
	}
	alloc := func(d int, dm Domain) int {
		list := &freeC
		if dm == DomNTT {
			list = &freeN
		}
		if k := len(*list); k > 0 {
			r := (*list)[k-1]
			*list = (*list)[:k-1]
			if d > p.RegDeg[r] {
				p.RegDeg[r] = d
			}
			return r
		}
		p.RegDeg = append(p.RegDeg, d)
		p.RegDomain = append(p.RegDomain, dm)
		p.NumRegs++
		return p.NumRegs - 1
	}
	release := func(f, t int) {
		if f >= nIn && f < len(last) && last[f] == t && regOf[f] >= 0 {
			if formDom[f] == DomNTT {
				freeN = append(freeN, regOf[f])
			} else {
				freeC = append(freeC, regOf[f])
			}
			regOf[f] = -1
		}
	}
	constIdx := map[string]int{}
	rotSet := map[int]bool{}
	slotOf := map[int]int{} // source form → live decomposition slot
	var freeSlots []int
	for t, it := range items {
		if it.conv {
			op := OpINTT
			if it.toNTT {
				op = OpNTT
			}
			st := Step{Op: op, A: code(it.aForm), Pt: -1, Con: -1}
			release(it.aForm, t)
			regOf[it.dstForm] = alloc(1, formDom[it.dstForm])
			st.Dst = regOf[it.dstForm]
			p.Steps = append(p.Steps, st)
			continue
		}
		in := l.Instrs[it.e.idx]
		if it.e.shared {
			st := Step{Op: OpSharedRot, Pt: -1, Con: -1, Rot: norm(in.Rot)}
			rotSet[st.Rot] = true
			for i, m := range it.e.members {
				f := it.srcForms[i]
				slot, live := slotOf[f]
				if !live { // first shared rotation of this source: fill a slot
					if k := len(freeSlots); k > 0 {
						slot = freeSlots[k-1]
						freeSlots = freeSlots[:k-1]
					} else {
						slot = p.NumDecomps // NumDecomps ends at the peak
						p.NumDecomps++
					}
					slotOf[f] = slot
				}
				reg := alloc(1, dom[nIn+m])
				regOf[nIn+m] = reg
				st.Shared = append(st.Shared, SharedSrc{Src: code(f), Dst: reg, Slot: slot, Fresh: !live})
			}
			st.A, st.Dst = st.Shared[0].Src, st.Shared[0].Dst
			// Every member's source is read by the group (replays still
			// read its c0); free source registers — and slots whose
			// source just had its last shared rotation — only now that
			// no member destination can have claimed one.
			for _, f := range it.srcForms {
				if lastShared[f] == t {
					if s, live := slotOf[f]; live {
						freeSlots = append(freeSlots, s)
						delete(slotOf, f)
					}
				}
				release(f, t)
			}
			p.Steps = append(p.Steps, st)
			continue
		}

		dstv := it.dstForm
		st := Step{Op: in.Op, A: code(it.aForm), Pt: -1, Con: -1}
		if in.Op.IsCtCt() {
			st.B = code(it.bForm)
		}
		switch {
		case in.Op == quill.OpRotCt:
			st.Rot = norm(in.Rot)
			rotSet[st.Rot] = true
		case in.Op.IsCtPt():
			if in.P.Input >= 0 {
				st.Pt = in.P.Input
			} else {
				key := fmt.Sprint(in.P.Const)
				ci, ok := constIdx[key]
				if !ok {
					pt := params.NewPlaintext()
					vec := quill.ConcreteSem{}.FromConst(in.P.Const, l.VecLen)
					if err := enc.Encode(vec, pt); err != nil {
						return nil, fmt.Errorf("plan: encoding constant of %s: %w", in, err)
					}
					ci = len(p.Consts)
					p.Consts = append(p.Consts, pt)
					constIdx[key] = ci
				}
				st.Con = ci
			}
		}
		// Free dying operand registers before allocating dst so the
		// destination can reuse an operand's buffer in place (release
		// is idempotent, so reading the same form twice is fine).
		release(it.aForm, t)
		release(it.bForm, t)
		regOf[dstv] = alloc(deg[dstv], dom[dstv])
		st.Dst = regOf[dstv]
		p.Steps = append(p.Steps, st)
	}
	p.Out = code(outForm)

	p.Rotations = make([]int, 0, len(rotSet))
	for r := range rotSet {
		p.Rotations = append(p.Rotations, r)
	}
	sort.Ints(p.Rotations)
	if p.RegDomain == nil {
		p.RegDomain = []Domain{}
	}
	p.Prepare(params)
	return p, nil
}

// Prepare derives the evaluation-domain plaintext operands the plan's
// prepared execution paths consume: NTT(lift(m)) for every constant a
// mul-plain step reads, NTT(Δ·m) for every constant an
// NTT-destination add/sub-plain step reads, and the need-flags for
// runtime plaintext inputs (whose prepared forms a session computes
// once per run). It first derives the lift slots and the levelized
// schedule. Load-time only — Compile, wire decode and BuildMuxWith call
// it — so the plan stays immutable once published. Idempotent.
func (p *ExecutionPlan) Prepare(params *bfv.Parameters) {
	p.AssignLifts()
	p.Levelize()
	if p.Prepared {
		return
	}
	p.MulNTTConsts = make([]*bfv.NTTPlaintext, len(p.Consts))
	p.AddNTTConsts = make([]*bfv.NTTPlaintext, len(p.Consts))
	p.PtNeedMulNTT = make([]bool, p.NumPtInputs)
	p.PtNeedAddNTT = make([]bool, p.NumPtInputs)
	for i := range p.Steps {
		st := &p.Steps[i]
		switch st.Op {
		case quill.OpMulCtPt:
			if st.Con >= 0 {
				if p.MulNTTConsts[st.Con] == nil {
					p.MulNTTConsts[st.Con] = params.NewMulPlainNTT(p.Consts[st.Con])
				}
			} else {
				p.PtNeedMulNTT[st.Pt] = true
			}
		case quill.OpAddCtPt, quill.OpSubCtPt:
			if p.RegDomain[st.Dst] != DomNTT {
				continue
			}
			if st.Con >= 0 {
				if p.AddNTTConsts[st.Con] == nil {
					p.AddNTTConsts[st.Con] = params.NewAddPlainNTT(p.Consts[st.Con])
				}
			} else {
				p.PtNeedAddNTT[st.Pt] = true
			}
		}
	}
	p.Prepared = true
}

// CodeDomain reports the domain of an operand code: coefficient for
// ciphertext inputs, the register's declared domain otherwise. The
// backend dispatches rotation and plaintext-product variants on it.
func (p *ExecutionPlan) CodeDomain(code int) Domain {
	if p.IsInput(code) {
		return DomCoeff
	}
	return p.RegDomain[p.Reg(code)]
}

// ExternalTransforms is the plan's static count of
// key-switch-external forward+inverse NTT passes per run — the model
// the domain-assignment pass minimizes (see domain.go for the
// per-step costs). Excluded, because no assignment changes them: the
// transforms inside key-switching inner products (digit NTTs and the
// relinearization data path) and the tensor product's extended-basis
// transforms. Per-run plaintext-input preparations (one forward NTT
// per flagged input) are included.
func (p *ExecutionPlan) ExternalTransforms() int {
	c := 0
	// c0Charged[s] tracks whether slot s's current fill already paid the
	// forward transform of its source's c0 (cached on the slot by the
	// first NTT-destined rotation, shared by every later one; reset when
	// a Fresh member refills the slot).
	c0Charged := make([]bool, p.NumDecomps)
	for i := range p.Steps {
		st := &p.Steps[i]
		switch st.Op {
		case OpSharedRot:
			for _, m := range st.Shared {
				srcNTT := p.CodeDomain(m.Src) == DomNTT
				if m.Fresh {
					if srcNTT {
						c++ // c1 leaves the evaluation domain for digit lifting
					}
					c0Charged[m.Slot] = false
				}
				switch {
				case srcNTT:
					// c0 already evaluation-domain; rotation is pure
					// permuted inner products, output stays NTT.
				case p.RegDomain[m.Dst] == DomNTT:
					if !c0Charged[m.Slot] {
						c++ // the slot's cached c0 forward transform
						c0Charged[m.Slot] = true
					}
				default:
					c += 2 // the two accumulator inverse transforms
				}
			}
		case OpNTT, OpINTT:
			c += 2
		case quill.OpRotCt:
			switch {
			case p.CodeDomain(st.A) == DomNTT:
				c++
			case p.RegDomain[st.Dst] == DomNTT:
				c++
			default:
				c += 2
			}
		case quill.OpRelin:
			c += 2
		case quill.OpMulCtPt:
			if p.CodeDomain(st.A) == DomCoeff {
				c += 2
			}
			if p.RegDomain[st.Dst] == DomCoeff {
				c += 2
			}
		}
	}
	for _, need := range p.PtNeedMulNTT {
		if need {
			c++
		}
	}
	for _, need := range p.PtNeedAddNTT {
		if need {
			c++
		}
	}
	return c
}

// DomainStats summarizes the domain assignment: how many registers
// are NTT-resident and how many explicit conversion steps the plan
// executes.
func (p *ExecutionPlan) DomainStats() (nttRegs, convSteps int) {
	for _, d := range p.RegDomain {
		if d == DomNTT {
			nttRegs++
		}
	}
	for i := range p.Steps {
		if p.Steps[i].Op == OpNTT || p.Steps[i].Op == OpINTT {
			convSteps++
		}
	}
	return nttRegs, convSteps
}

// Validate checks the structural invariants Compile guarantees, for
// plans that did NOT come from Compile in this process — plans decoded
// from the wire (internal/wire). A malformed plan (out-of-range
// register or constant index, unknown opcode, undeclared rotation)
// would index out of bounds inside a session's execution loop;
// Validate turns that into an error at load time. The derived lift
// slots (AssignLifts) must already be in place; Validate checks their
// fill-before-reuse state. params must be the parameter set the plan
// will execute under.
func (p *ExecutionPlan) Validate(params *bfv.Parameters) error {
	if p.N != params.N {
		return fmt.Errorf("plan: compiled for N=%d, parameters have N=%d", p.N, params.N)
	}
	if p.VecLen < 1 || p.VecLen > params.SlotCount() {
		return fmt.Errorf("plan: vector length %d outside [1, %d]", p.VecLen, params.SlotCount())
	}
	if p.NumCtInputs < 0 || p.NumPtInputs < 0 {
		return fmt.Errorf("plan: negative input count")
	}
	if p.NumRegs != len(p.RegDeg) {
		return fmt.Errorf("plan: NumRegs=%d but %d register degrees", p.NumRegs, len(p.RegDeg))
	}
	for r, d := range p.RegDeg {
		if d < 1 || d > 2 {
			return fmt.Errorf("plan: register %d has degree %d, want 1 or 2", r, d)
		}
	}
	if len(p.RegDomain) != p.NumRegs {
		return fmt.Errorf("plan: NumRegs=%d but %d register domains", p.NumRegs, len(p.RegDomain))
	}
	for r, d := range p.RegDomain {
		if d != DomCoeff && d != DomNTT {
			return fmt.Errorf("plan: register %d has unknown domain %d", r, d)
		}
		if d == DomNTT && p.RegDeg[r] != 1 {
			return fmt.Errorf("plan: register %d is NTT-resident with degree %d, want 1", r, p.RegDeg[r])
		}
	}
	for i, pt := range p.Consts {
		if pt == nil || len(pt.Coeffs) != params.N {
			return fmt.Errorf("plan: constant %d has wrong shape", i)
		}
	}
	rotDeclared := map[int]bool{}
	for i, r := range p.Rotations {
		if r == 0 {
			return fmt.Errorf("plan: declared rotation 0 (identity needs no key)")
		}
		if rotDeclared[r] {
			return fmt.Errorf("plan: duplicate declared rotation %d", r)
		}
		if i > 0 && r <= p.Rotations[i-1] {
			return fmt.Errorf("plan: rotations not sorted")
		}
		rotDeclared[r] = true
	}
	codes := p.NumCtInputs + p.NumRegs
	rotUsed := map[int]bool{}
	for i := range p.Steps {
		st := &p.Steps[i]
		bad := func(what string) error {
			return fmt.Errorf("plan: step %d (%v): %s", i, st.Op, what)
		}
		if st.Dst < 0 || st.Dst >= p.NumRegs {
			return bad(fmt.Sprintf("destination register %d out of range", st.Dst))
		}
		if st.A < 0 || st.A >= codes {
			return bad(fmt.Sprintf("operand code %d out of range", st.A))
		}
		if st.Op != OpSharedRot && len(st.Shared) != 0 {
			return bad("shared list on a non-shared step")
		}
		switch {
		case st.Op == OpSharedRot:
			// Singleton groups are legal: a multi-rotation source's
			// amounts may each land in their own group, and every one
			// past the first still replays the shared decomposition.
			if len(st.Shared) < 1 {
				return bad("shared group with no members")
			}
			if st.Rot == 0 || !rotDeclared[st.Rot] {
				return bad(fmt.Sprintf("rotation %d not in declared set %v", st.Rot, p.Rotations))
			}
			rotUsed[st.Rot] = true
			if st.A != st.Shared[0].Src || st.Dst != st.Shared[0].Dst {
				return bad("shared step operands disagree with its first member")
			}
			srcSeen := map[int]bool{}
			dstSeen := map[int]bool{}
			for _, m := range st.Shared {
				if m.Src < 0 || m.Src >= codes {
					return bad(fmt.Sprintf("shared source code %d out of range", m.Src))
				}
				if m.Dst < 0 || m.Dst >= p.NumRegs {
					return bad(fmt.Sprintf("shared destination register %d out of range", m.Dst))
				}
				if m.Slot < 0 || m.Slot >= p.NumDecomps {
					return bad(fmt.Sprintf("decomposition slot %d outside the session's %d", m.Slot, p.NumDecomps))
				}
				if srcSeen[m.Src] {
					return bad(fmt.Sprintf("duplicate shared source %d (same source and amount belong in one rotation)", m.Src))
				}
				srcSeen[m.Src] = true
				if dstSeen[m.Dst] {
					return bad(fmt.Sprintf("duplicate shared destination register %d", m.Dst))
				}
				dstSeen[m.Dst] = true
				if p.CodeDomain(m.Src) == DomNTT && p.RegDomain[m.Dst] != DomNTT {
					return bad(fmt.Sprintf("shared member rotates an NTT-resident source into coefficient register %d", m.Dst))
				}
			}
			// The group reads every member's source; no member may write
			// over any source.
			for _, m := range st.Shared {
				if p.IsInput(m.Src) {
					continue
				}
				if dstSeen[p.Reg(m.Src)] {
					return bad(fmt.Sprintf("shared destination register %d aliases a member source", p.Reg(m.Src)))
				}
			}
		case st.Op == OpNTT || st.Op == OpINTT:
			from, to := DomCoeff, DomNTT
			if st.Op == OpINTT {
				from, to = DomNTT, DomCoeff
			}
			if p.CodeDomain(st.A) != from {
				return bad(fmt.Sprintf("conversion source is %v, want %v", p.CodeDomain(st.A), from))
			}
			if p.RegDomain[st.Dst] != to {
				return bad(fmt.Sprintf("conversion destination is %v, want %v", p.RegDomain[st.Dst], to))
			}
			// The degree-1 shape of the conversion is pinned by the
			// NTT side: one of the two registers is NTT-resident, and
			// NTT-resident registers are degree 1 by the register
			// check above. The coefficient side may be a reused
			// register whose declared capacity is 2 — the value in
			// flight is still degree 1.
		case st.Op == quill.OpRotCt:
			if st.Rot == 0 || !rotDeclared[st.Rot] {
				return bad(fmt.Sprintf("rotation %d not in declared set %v", st.Rot, p.Rotations))
			}
			rotUsed[st.Rot] = true
			if p.CodeDomain(st.A) == DomNTT && p.RegDomain[st.Dst] != DomNTT {
				return bad("rotation of an NTT-resident source into a coefficient destination")
			}
		case st.Op == quill.OpRelin:
			// unary; key switching emits coefficient-domain output
			if p.RegDomain[st.Dst] != DomCoeff {
				return bad("relinearization into an NTT-resident register")
			}
		case st.Op == quill.OpMulCtCt:
			if st.B < 0 || st.B >= codes {
				return bad(fmt.Sprintf("operand code %d out of range", st.B))
			}
			// The tensor product lifts coefficient operands into the
			// extended basis (and its destination is degree 2, hence
			// coefficient by the register rule above).
			if p.CodeDomain(st.A) != DomCoeff || p.CodeDomain(st.B) != DomCoeff {
				return bad("tensor product of NTT-resident operands")
			}
		case st.Op.IsCtCt():
			if st.B < 0 || st.B >= codes {
				return bad(fmt.Sprintf("operand code %d out of range", st.B))
			}
			// Pointwise add/sub executes in the destination's domain;
			// the compiler converts mismatched operands beforehand.
			if d := p.RegDomain[st.Dst]; p.CodeDomain(st.A) != d || p.CodeDomain(st.B) != d {
				return bad("add/sub operand domain disagrees with destination")
			}
		case st.Op.IsCtPt():
			switch {
			case st.Pt >= 0 && st.Con >= 0:
				return bad("both plaintext input and constant set")
			case st.Pt >= 0:
				if st.Pt >= p.NumPtInputs {
					return bad(fmt.Sprintf("plaintext input %d out of range", st.Pt))
				}
			case st.Con >= 0:
				if st.Con >= len(p.Consts) {
					return bad(fmt.Sprintf("constant index %d out of range", st.Con))
				}
			default:
				return bad("neither plaintext input nor constant set")
			}
			// Plaintext add/sub executes in the destination's domain
			// (mul-plain has a variant for every combination).
			if st.Op != quill.OpMulCtPt && p.CodeDomain(st.A) != p.RegDomain[st.Dst] {
				return bad("add/sub-plain operand domain disagrees with destination")
			}
		default:
			return bad("unknown opcode")
		}
	}
	for r := range rotDeclared {
		if !rotUsed[r] {
			return fmt.Errorf("plan: declared rotation %d never executed", r)
		}
	}
	// Every slot below the declared peak must be used, and the peak must
	// cover every slot: NumDecomps is exactly maxSlot+1 (0 without shared
	// groups).
	maxSlot := -1
	for i := range p.Steps {
		for _, m := range p.Steps[i].Shared {
			maxSlot = max(maxSlot, m.Slot)
		}
	}
	if p.NumDecomps != maxSlot+1 {
		return fmt.Errorf("plan: %d decomposition slots declared, shared groups use %d", p.NumDecomps, maxSlot+1)
	}
	slotUsed := make([]bool, p.NumDecomps)
	for i := range p.Steps {
		for _, m := range p.Steps[i].Shared {
			slotUsed[m.Slot] = true
		}
	}
	for s, used := range slotUsed {
		if !used {
			return fmt.Errorf("plan: decomposition slot %d declared but never used", s)
		}
	}
	// Fill-state simulation: a replay member must find its source's
	// digits resident — the slot filled by an earlier Fresh member of
	// the SAME source, with the source's register untouched since
	// (replays still read its c0 rows).
	slotSrc := make([]int, p.NumDecomps)
	for s := range slotSrc {
		slotSrc[s] = -1
	}
	var wbuf [8]int
	for i := range p.Steps {
		st := &p.Steps[i]
		for _, m := range st.Shared {
			if m.Fresh {
				slotSrc[m.Slot] = m.Src
			} else if slotSrc[m.Slot] != m.Src {
				return fmt.Errorf("plan: step %d: shared member replays slot %d for source %d, but the slot holds %d",
					i, m.Slot, m.Src, slotSrc[m.Slot])
			}
		}
		// Any write to a resident source's register invalidates its
		// slot: the digits no longer match the register's c0.
		for _, r := range p.stepWrites(st, wbuf[:0]) {
			for s := range slotSrc {
				if slotSrc[s] == p.NumCtInputs+r {
					slotSrc[s] = -1
				}
			}
		}
	}
	if err := p.validateLifts(); err != nil {
		return err
	}
	if p.Out < 0 || p.Out >= codes {
		return fmt.Errorf("plan: output code %d out of range", p.Out)
	}
	if p.CodeDomain(p.Out) != DomCoeff {
		return fmt.Errorf("plan: output register is NTT-resident (outputs leave in the coefficient domain)")
	}
	return nil
}

// RotationSet returns the canonical rotation amounts required by a set
// of plans, merged and sorted — the Galois keys a context serving all
// of them must hold.
func RotationSet(plans ...*ExecutionPlan) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, r := range p.Rotations {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}
