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
//     plans use.
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

// OpHoistedRot is the plan-only opcode of a fused rotation fan-out:
// the key-switching digit decomposition of the source operand is
// computed once and shared by every rotation in the step's Fan list.
// It never appears in lowered programs — the planner synthesizes it
// when ≥2 distinct rotations read one source — so its value lives
// outside the quill instruction set's range.
const OpHoistedRot quill.Op = 0x40

// OpNTT and OpINTT are the plan-only domain-conversion opcodes the
// domain-assignment pass inserts at true domain boundaries: OpNTT
// materializes the evaluation-domain twin of a coefficient-domain
// register, OpINTT the reverse. Both are unary (operand A, register
// destination) and cost two transforms (a degree-1 ciphertext's two
// rows); like OpHoistedRot they never appear in lowered programs.
const (
	OpNTT  quill.Op = 0x41
	OpINTT quill.Op = 0x42
)

// OpBatchedRot is the plan-only opcode of a cross-source batched
// rotation group: rotations of DIFFERENT source ciphertexts by the
// SAME amount, executed through one batched key switch. The Galois
// element, switching key, and automorphism tables are resolved once
// per group; each member then pays its own digit decomposition (the
// dual of OpHoistedRot, which shares one source's decomposition across
// amounts). Synthesized by the planner when ≥2 plain rotations share a
// canonical amount within a step window; never appears in lowered
// programs.
const OpBatchedRot quill.Op = 0x43

// OpSharedRot is the plan-only opcode of the double-hoisted rotation
// step family that subsumes both OpHoistedRot and OpBatchedRot: a
// group of rotations by ONE amount (sharing the Galois element, key
// and tables like a batched group) whose members each consume a
// session decomposition SLOT. A member with Fresh set lifts and
// forward-NTTs its source's digits into the slot; a member with Fresh
// clear replays a decomposition an EARLIER step left resident — so one
// decomposition per source serves every rotation of that source, at
// any amount, anywhere in the schedule (hoisting across amounts AND
// batching across sources simultaneously). Synthesized by the sharing
// pass (share.go); never appears in lowered programs, and never mixes
// with OpHoistedRot/OpBatchedRot in one plan.
const OpSharedRot quill.Op = 0x44

// FanOut is one rotation of a hoisted fan-out group.
type FanOut struct {
	Dst int // register receiving this rotation
	Rot int // canonical rotation amount (never 0)
}

// BatchedSrc is one member of a cross-source batched rotation group:
// one source operand rotated by the group's shared amount into its own
// destination register.
type BatchedSrc struct {
	Src int // operand code of this member's source
	Dst int // register receiving this member's rotation
}

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
	Dst int // register index (Fan[0].Dst for hoisted steps)
	A   int // operand code
	B   int // operand code (ct-ct ops)
	Rot int // canonical rotation amount (OpRotCt)
	Pt  int // plaintext input index (ct-pt ops), -1 for constants
	Con int // pre-encoded constant index (ct-pt ops), -1 for inputs

	// Fan lists the rotations of a hoisted group (OpHoistedRot only;
	// nil for every other op). The source A is decomposed once, then
	// each entry costs a digit permutation instead of a fresh
	// decomposition. Entries are in program order; no entry's register
	// may alias the source (every entry reads it).
	Fan []FanOut

	// Batch lists the members of a cross-source batched group
	// (OpBatchedRot only; nil for every other op). Every member rotates
	// its own source by the step's shared Rot amount; A and Dst mirror
	// the first member. Entries are in program order; no member's
	// destination may alias any member's source (the group reads all
	// sources before the last write).
	Batch []BatchedSrc

	// Shared lists the members of a double-hoisted group (OpSharedRot
	// only; nil for every other op). Every member rotates its own
	// source by the step's shared Rot amount out of its decomposition
	// slot; A and Dst mirror the first member. Entries are in program
	// order; no member's destination may alias any member's source, and
	// a source's register must survive untouched from its Fresh member
	// to its last shared rotation (its c0 is read per rotation).
	Shared []SharedSrc
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
	// registers always hold degree-1 ciphertexts. All-coefficient for
	// plans compiled with DisableDomainAssignment.
	RegDomain []Domain
	// NumDecomps is the number of key-switching decomposition scratch
	// slots a session needs. For double-hoisted plans it is the peak
	// number of simultaneously-live shared decompositions (the
	// slot-liveness result: a slot is live from its Fresh member to the
	// source's last shared rotation, then reused); for legacy plans it
	// is 1 when any hoisted or batched group exists (they never nest,
	// one buffer serves all of them), 0 otherwise. Sized by the
	// register allocator; never serialized (wire decoding recomputes it
	// from the step list).
	NumDecomps int

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
	// Prepared reports whether Prepare ran: sessions then execute
	// mul-plain through the prepared-operand variants (bit-identical,
	// minus the per-call operand NTT). Set by Compile unless domain
	// assignment is disabled, and by wire decode always.
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

// HoistedGroups returns the number of fused rotation fan-out steps
// and the total rotations they cover. A plan with groups decomposes
// once per group instead of once per rotation: forward NTT passes in
// rotation key-switching drop from K·rotations to K·(groups + plain
// rotations).
func (p *ExecutionPlan) HoistedGroups() (groups, rotations int) {
	for i := range p.Steps {
		if p.Steps[i].Op == OpHoistedRot {
			groups++
			rotations += len(p.Steps[i].Fan)
		}
	}
	return groups, rotations
}

// BatchedGroups returns the number of cross-source batched rotation
// steps and the total rotations they cover. Each group fetches its
// Galois key and automorphism tables once; every member still pays its
// own digit decomposition (sources differ), so the win is the shared
// per-element state, not shared digits.
func (p *ExecutionPlan) BatchedGroups() (groups, rotations int) {
	for i := range p.Steps {
		if p.Steps[i].Op == OpBatchedRot {
			groups++
			rotations += len(p.Steps[i].Batch)
		}
	}
	return groups, rotations
}

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
// minimize. Each plain rotation and each batched member decomposes its
// own source; each hoisted group and each Fresh shared member
// decomposes once; replayed shared members cost nothing.
// Relinearization decompositions are excluded: they are identical
// across plan forms and would only blur the comparison.
func (p *ExecutionPlan) DigitDecompositions() int {
	c := 0
	for i := range p.Steps {
		st := &p.Steps[i]
		switch st.Op {
		case quill.OpRotCt, OpHoistedRot:
			c++
		case OpBatchedRot:
			c += len(st.Batch)
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

// Options tunes compilation.
type Options struct {
	// DisableHoisting turns off rotation fan-out fusion, producing a
	// plan of plain serial steps only. The unhoisted plan computes
	// bit-identical ciphertexts (the serial rotation path runs on the
	// same decompose-permute-accumulate primitives); it exists as the
	// differential reference for the hoisted schedule and for
	// measuring the hoisting win.
	DisableHoisting bool

	// DisableDomainAssignment turns off the NTT-domain dataflow pass:
	// every register stays in the coefficient domain, no conversion
	// steps are inserted, and execution uses the exact legacy paths
	// (per-call operand NTT in mul-plain included). The unassigned
	// plan computes bit-identical ciphertexts — it is the differential
	// reference for the domain-assigned schedule and the baseline for
	// measuring the transform win.
	DisableDomainAssignment bool

	// DisableBatching turns off cross-source batched key switching:
	// rotations of different sources by a shared amount stay plain
	// serial steps. Implied by DisableHoisting (a "flat" plan is the
	// fully serial reference). Disabling batching also disables
	// sharing (double-hoisting groups by amount the same way).
	// Bit-identity is unaffected either way.
	DisableBatching bool

	// DisableSharing turns off double-hoisted key switching: rotation
	// fans stay fused OpHoistedRot steps and same-amount cross-source
	// groups stay OpBatchedRot — the PR 7 plan shape, kept as the
	// differential reference for the shared schedule, the baseline for
	// measuring the sharing win, and the compile target for wire
	// versions < 6 (which cannot carry decomposition-slot fields).
	// Bit-identity is unaffected either way.
	DisableSharing bool

	// BatchWindow bounds how far apart (in schedule positions) two
	// rotations may sit and still fuse into one batched group; batching
	// extends every member source's live range to the group step, so
	// the window caps the register-pressure cost. 0 means the default.
	BatchWindow int
}

// defaultBatchWindow is the BatchWindow used when Options leaves it 0:
// wide enough to fuse the corresponding levels of two back-to-back
// log-depth reduction trees over 16-slot windows (8 schedule entries
// apart), small enough to keep at most a handful of sources live.
const defaultBatchWindow = 8

// schedEntry is one scheduled unit of the compile pipeline: a plain
// instruction, a fused rotation fan-out group (one source, many
// amounts), or a cross-source batched group (many sources, one
// amount), either group scheduled at its first member's position.
type schedEntry struct {
	idx     int   // instruction index (first member for groups)
	members []int // nil → plain step; else the group's rotation instrs
	batch   bool  // members share an amount (OpBatchedRot), not a source
	shared  bool  // members share an amount through decomposition slots (OpSharedRot)
}

// Compile analyzes a lowered program and produces its execution plan
// for the given parameter set. The encoder is used once, to pre-encode
// plaintext constants; it must belong to params.
func Compile(params *bfv.Parameters, enc *bfv.Encoder, l *quill.Lowered) (*ExecutionPlan, error) {
	return CompileWithOptions(params, enc, l, Options{})
}

// CompileWithOptions is Compile with explicit Options.
func CompileWithOptions(params *bfv.Parameters, enc *bfv.Encoder, l *quill.Lowered, opts Options) (*ExecutionPlan, error) {
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
	// first — which also keeps hoisted fan-outs free of duplicate
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

	// Pass 3: rotation fan-out detection. A source read by ≥2 distinct
	// surviving rotations has its digit decomposition hoisted: the
	// group's rotations fuse into one OpHoistedRot step scheduled at
	// the first member's position (moving a pure rotation earlier is
	// always legal — its only operand is already defined there). The
	// schedule below is the step list the domain, liveness and register
	// passes run over: one entry per plain step or fused group.
	groupOf := map[int][]int{} // first-member idx → member idxs
	inGroup := map[int]bool{}  // member idx → fused away
	if !opts.DisableHoisting {
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
	// every canonical value. All-coefficient when disabled; inputs,
	// degree-2 values, and relin/tensor results are always coefficient.
	dom := make([]Domain, n)
	if !opts.DisableDomainAssignment {
		dom = assignDomains(l, canon, deg, sched, nIn, output)
	}

	// Pass 4b/4c: rotation grouping across sources. Both passes run
	// after domain assignment (each preserves every member's source and
	// destination domain, so the assignment stays optimal for the same
	// cost model) and are skipped for flat reference plans. The default
	// is the sharing pass (share.go): fan groups dissolve and every
	// rotation becomes a member of a per-amount OpSharedRot group that
	// consumes a session decomposition slot — one decomposition per
	// source for the whole plan. With DisableSharing the legacy
	// batching pass (batch.go) runs instead, keeping the PR 7
	// OpHoistedRot/OpBatchedRot shape.
	if !opts.DisableHoisting && !opts.DisableBatching {
		if opts.DisableSharing {
			sched = batchRotations(l, canon, sched, nIn, norm, opts.BatchWindow)
		} else {
			sched = shareRotations(l, canon, sched, nIn, norm, opts.BatchWindow)
		}
	}

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
		srcForms []int      // per-member source forms (batched groups only)
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
		if e.batch || e.shared {
			it := workItem{e: e, aForm: a, bForm: -1, dstForm: -1}
			for _, m := range e.members {
				it.srcForms = append(it.srcForms, canon[l.Instrs[m].A])
			}
			items = append(items, it)
			continue
		}
		if e.members != nil {
			items = append(items, workItem{e: e, aForm: a, bForm: -1, dstForm: -1})
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
	// Hoisted groups are the exception to in-place reuse: every fan
	// entry reads the source (its c0 and its hoisted digits), so the
	// source's register is freed only after the whole fan is
	// allocated, and fan destinations are pairwise distinct by
	// construction. This is also where per-session decomposition
	// scratch is sized: any hoisted step sets NumDecomps to 1 (groups
	// never nest, one buffer serves the whole plan).
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
		if it.e.batch {
			st := Step{Op: OpBatchedRot, Pt: -1, Con: -1, Rot: norm(in.Rot)}
			rotSet[st.Rot] = true
			for i, m := range it.e.members {
				reg := alloc(1, dom[nIn+m])
				regOf[nIn+m] = reg
				st.Batch = append(st.Batch, BatchedSrc{Src: code(it.srcForms[i]), Dst: reg})
			}
			st.A, st.Dst = st.Batch[0].Src, st.Batch[0].Dst
			// Every member's source is read by the group; free their
			// registers only now that no member destination can have
			// claimed one.
			for _, f := range it.srcForms {
				release(f, t)
			}
			p.NumDecomps = 1
			p.Steps = append(p.Steps, st)
			continue
		}
		if it.e.members != nil {
			st := Step{Op: OpHoistedRot, A: code(it.aForm), Pt: -1, Con: -1}
			for _, m := range it.e.members {
				r := norm(l.Instrs[m].Rot)
				reg := alloc(1, dom[nIn+m])
				regOf[nIn+m] = reg
				st.Fan = append(st.Fan, FanOut{Dst: reg, Rot: r})
				rotSet[r] = true
			}
			st.Dst = st.Fan[0].Dst
			// The source is read by every fan entry; free its register
			// only now that no fan destination can have claimed it.
			release(it.aForm, t)
			p.NumDecomps = 1
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
	p.Levelize()
	if !opts.DisableDomainAssignment {
		p.Prepare(params)
	}
	return p, nil
}

// Prepare derives the evaluation-domain plaintext operands the plan's
// prepared execution paths consume: NTT(lift(m)) for every constant a
// mul-plain step reads, NTT(Δ·m) for every constant an
// NTT-destination add/sub-plain step reads, and the need-flags for
// runtime plaintext inputs (whose prepared forms a session computes
// once per run). Load-time only — Compile calls it unless domain
// assignment is disabled, wire decode calls it always — so the plan
// stays immutable once published. Idempotent.
func (p *ExecutionPlan) Prepare(params *bfv.Parameters) {
	p.Levelize() // wire decode reaches here without a Compile pass
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

// regDomain is RegDomain with an all-coefficient default for legacy
// in-memory plans that predate the field.
func (p *ExecutionPlan) regDomain(r int) Domain {
	if r < len(p.RegDomain) {
		return p.RegDomain[r]
	}
	return DomCoeff
}

// codeDomain returns the domain of an operand code (inputs are always
// coefficient-domain).
func (p *ExecutionPlan) codeDomain(code int) Domain {
	if p.IsInput(code) {
		return DomCoeff
	}
	return p.regDomain(p.Reg(code))
}

// CodeDomain reports the domain of an operand code: coefficient for
// ciphertext inputs, the register's declared domain otherwise. The
// backend dispatches rotation and plaintext-product variants on it.
func (p *ExecutionPlan) CodeDomain(code int) Domain { return p.codeDomain(code) }

// RegDomainOf reports the declared domain of a register, defaulting to
// coefficient for legacy plans without domain tags.
func (p *ExecutionPlan) RegDomainOf(r int) Domain { return p.regDomain(r) }

// ExternalTransforms is the plan's static count of
// key-switch-external forward+inverse NTT passes per run — the model
// the domain-assignment pass minimizes (see domain.go for the
// per-step costs). Excluded, because no assignment changes them: the
// transforms inside key-switching inner products (digit NTTs and the
// relinearization data path) and the tensor product's extended-basis
// transforms. Per-run plaintext-input preparations (one forward NTT
// per flagged input) are included for prepared plans; unprepared
// mul-plain pays its operand transform per call instead.
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
				srcNTT := p.codeDomain(m.Src) == DomNTT
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
				case p.regDomain(m.Dst) == DomNTT:
					if !c0Charged[m.Slot] {
						c++ // the slot's cached c0 forward transform
						c0Charged[m.Slot] = true
					}
				default:
					c += 2 // the two accumulator inverse transforms
				}
			}
		case OpHoistedRot:
			if p.codeDomain(st.A) == DomNTT {
				c++
			} else {
				anyN := false
				for _, f := range st.Fan {
					if p.regDomain(f.Dst) == DomNTT {
						anyN = true
					} else {
						c += 2
					}
				}
				if anyN {
					c++
				}
			}
		case OpBatchedRot:
			// Each member runs the serial rotation pipeline of its own
			// domain pair (the batch shares per-element state, not
			// transforms), so the counts mirror quill.OpRotCt below.
			for _, m := range st.Batch {
				switch {
				case p.codeDomain(m.Src) == DomNTT:
					c++
				case p.regDomain(m.Dst) == DomNTT:
					c++
				default:
					c += 2
				}
			}
		case OpNTT, OpINTT:
			c += 2
		case quill.OpRotCt:
			switch {
			case p.codeDomain(st.A) == DomNTT:
				c++
			case p.regDomain(st.Dst) == DomNTT:
				c++
			default:
				c += 2
			}
		case quill.OpRelin:
			c += 2
		case quill.OpMulCtPt:
			if p.Prepared {
				if p.codeDomain(st.A) == DomCoeff {
					c += 2
				}
				if p.regDomain(st.Dst) == DomCoeff {
					c += 2
				}
			} else {
				c += 5 // 4 row transforms + the per-call operand NTT
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
// Validate turns that into an error at load time. params must be the
// parameter set the plan will execute under.
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
		if st.Op != OpHoistedRot && len(st.Fan) != 0 {
			return bad("fan-out list on a non-hoisted step")
		}
		if st.Op != OpBatchedRot && len(st.Batch) != 0 {
			return bad("batch list on a non-batched step")
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
				if p.codeDomain(m.Src) == DomNTT && p.regDomain(m.Dst) != DomNTT {
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
		case st.Op == OpBatchedRot:
			if len(st.Batch) < 2 {
				return bad(fmt.Sprintf("batched group with %d members, want ≥ 2", len(st.Batch)))
			}
			if st.Rot == 0 || !rotDeclared[st.Rot] {
				return bad(fmt.Sprintf("rotation %d not in declared set %v", st.Rot, p.Rotations))
			}
			rotUsed[st.Rot] = true
			if st.A != st.Batch[0].Src || st.Dst != st.Batch[0].Dst {
				return bad("batched step operands disagree with its first member")
			}
			srcSeen := map[int]bool{}
			dstSeen := map[int]bool{}
			for _, m := range st.Batch {
				if m.Src < 0 || m.Src >= codes {
					return bad(fmt.Sprintf("batch source code %d out of range", m.Src))
				}
				if m.Dst < 0 || m.Dst >= p.NumRegs {
					return bad(fmt.Sprintf("batch destination register %d out of range", m.Dst))
				}
				if srcSeen[m.Src] {
					return bad(fmt.Sprintf("duplicate batch source %d (same source and amount belong in one rotation)", m.Src))
				}
				srcSeen[m.Src] = true
				if dstSeen[m.Dst] {
					return bad(fmt.Sprintf("duplicate batch destination register %d", m.Dst))
				}
				dstSeen[m.Dst] = true
				if p.codeDomain(m.Src) == DomNTT && p.regDomain(m.Dst) != DomNTT {
					return bad(fmt.Sprintf("batch member rotates an NTT-resident source into coefficient register %d", m.Dst))
				}
			}
			// The group reads every member's source; no member may write
			// over any source.
			for _, m := range st.Batch {
				if p.IsInput(m.Src) {
					continue
				}
				if dstSeen[p.Reg(m.Src)] {
					return bad(fmt.Sprintf("batch destination register %d aliases a member source", p.Reg(m.Src)))
				}
			}
		case st.Op == OpHoistedRot:
			if len(st.Fan) < 2 {
				return bad(fmt.Sprintf("hoisted group with fan-out %d, want ≥ 2", len(st.Fan)))
			}
			if st.Dst != st.Fan[0].Dst {
				return bad("hoisted step destination disagrees with its first fan entry")
			}
			fanRots := map[int]bool{}
			fanDsts := map[int]bool{}
			for _, f := range st.Fan {
				if f.Dst < 0 || f.Dst >= p.NumRegs {
					return bad(fmt.Sprintf("fan destination register %d out of range", f.Dst))
				}
				if fanDsts[f.Dst] {
					return bad(fmt.Sprintf("duplicate fan destination register %d", f.Dst))
				}
				fanDsts[f.Dst] = true
				// Every fan entry reads the source after earlier entries
				// wrote their destinations, so no entry may alias it (or
				// another entry).
				if !p.IsInput(st.A) && f.Dst == p.Reg(st.A) {
					return bad(fmt.Sprintf("fan destination register %d aliases the hoisted source", f.Dst))
				}
				if f.Rot == 0 || !rotDeclared[f.Rot] {
					return bad(fmt.Sprintf("fan rotation %d not in declared set %v", f.Rot, p.Rotations))
				}
				if fanRots[f.Rot] {
					return bad(fmt.Sprintf("duplicate rotation %d in fan-out", f.Rot))
				}
				fanRots[f.Rot] = true
				rotUsed[f.Rot] = true
				// No NTT-source → coefficient-destination rotation
				// path exists: an NTT-resident source pins the whole
				// fan to the evaluation domain.
				if p.codeDomain(st.A) == DomNTT && p.regDomain(f.Dst) != DomNTT {
					return bad(fmt.Sprintf("fan destination register %d is coefficient-domain but the hoisted source is NTT-resident", f.Dst))
				}
			}
		case st.Op == OpNTT || st.Op == OpINTT:
			from, to := DomCoeff, DomNTT
			if st.Op == OpINTT {
				from, to = DomNTT, DomCoeff
			}
			if p.codeDomain(st.A) != from {
				return bad(fmt.Sprintf("conversion source is %v, want %v", p.codeDomain(st.A), from))
			}
			if p.regDomain(st.Dst) != to {
				return bad(fmt.Sprintf("conversion destination is %v, want %v", p.regDomain(st.Dst), to))
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
			if p.codeDomain(st.A) == DomNTT && p.regDomain(st.Dst) != DomNTT {
				return bad("rotation of an NTT-resident source into a coefficient destination")
			}
		case st.Op == quill.OpRelin:
			// unary; key switching emits coefficient-domain output
			if p.regDomain(st.Dst) != DomCoeff {
				return bad("relinearization into an NTT-resident register")
			}
		case st.Op == quill.OpMulCtCt:
			if st.B < 0 || st.B >= codes {
				return bad(fmt.Sprintf("operand code %d out of range", st.B))
			}
			// The tensor product lifts coefficient operands into the
			// extended basis (and its destination is degree 2, hence
			// coefficient by the register rule above).
			if p.codeDomain(st.A) != DomCoeff || p.codeDomain(st.B) != DomCoeff {
				return bad("tensor product of NTT-resident operands")
			}
		case st.Op.IsCtCt():
			if st.B < 0 || st.B >= codes {
				return bad(fmt.Sprintf("operand code %d out of range", st.B))
			}
			// Pointwise add/sub executes in the destination's domain;
			// the compiler converts mismatched operands beforehand.
			if d := p.regDomain(st.Dst); p.codeDomain(st.A) != d || p.codeDomain(st.B) != d {
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
			if st.Op != quill.OpMulCtPt && p.codeDomain(st.A) != p.regDomain(st.Dst) {
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
	hoisted, _ := p.HoistedGroups()
	batched, _ := p.BatchedGroups()
	shared, _, _ := p.SharedGroups()
	if shared > 0 && hoisted+batched > 0 {
		return fmt.Errorf("plan: shared rotation groups mixed with %d hoisted+batched groups (one sharing discipline per plan)", hoisted+batched)
	}
	if shared > 0 {
		// Every slot below the declared peak must be used, and the peak
		// must cover every slot: NumDecomps is exactly maxSlot+1.
		maxSlot := -1
		slotUsed := make([]bool, p.NumDecomps)
		for i := range p.Steps {
			for _, m := range p.Steps[i].Shared {
				if m.Slot > maxSlot {
					maxSlot = m.Slot
				}
				slotUsed[m.Slot] = true
			}
		}
		if p.NumDecomps != maxSlot+1 {
			return fmt.Errorf("plan: %d decomposition slots declared, shared groups use %d", p.NumDecomps, maxSlot+1)
		}
		for s, used := range slotUsed {
			if !used {
				return fmt.Errorf("plan: decomposition slot %d declared but never used", s)
			}
		}
		// Fill-state simulation: a replay member must find its source's
		// digits resident — the slot filled by an earlier Fresh member
		// of the SAME source, with the source's register untouched since
		// (replays still read its c0 rows).
		slotSrc := make([]int, p.NumDecomps)
		for s := range slotSrc {
			slotSrc[s] = -1
		}
		var wbuf [8]int
		for i := range p.Steps {
			st := &p.Steps[i]
			if st.Op == OpSharedRot {
				for _, m := range st.Shared {
					if m.Fresh {
						slotSrc[m.Slot] = m.Src
					} else if slotSrc[m.Slot] != m.Src {
						return fmt.Errorf("plan: step %d: shared member replays slot %d for source %d, but the slot holds %d",
							i, m.Slot, m.Src, slotSrc[m.Slot])
					}
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
	} else if want := min(hoisted+batched, 1); p.NumDecomps != want {
		return fmt.Errorf("plan: %d decomposition buffers declared, %d hoisted+batched groups need %d", p.NumDecomps, hoisted+batched, want)
	}
	if p.Out < 0 || p.Out >= codes {
		return fmt.Errorf("plan: output code %d out of range", p.Out)
	}
	if p.codeDomain(p.Out) != DomCoeff {
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
