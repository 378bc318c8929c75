package plan

import (
	"fmt"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

// Slot multiplexing turns SIMD width into request throughput: when a
// plan's vector occupies a small prefix of the HE row, k independent
// requests can ride disjoint slot lanes of ONE ciphertext evaluation.
// Lane j owns slots [j·Stride, j·Stride+VecLen); the stride is chosen
// so no rotation in the program ever reads across a lane boundary, so
// the single muxed run computes every user's answer exactly as k
// separate runs would (BFV slot arithmetic is pointwise and rotations
// shift the whole row uniformly).
//
// Legality is decided by a reach-interval analysis over the source
// program: for every SSA value, the interval [lo, hi] of input-slot
// offsets its slot s may depend on (inputs are [0,0]; rot by r shifts
// by +r; ct-ct ops take the hull; ct-pt ops include offset 0 for the
// operand read). Output slots [0, VecLen) then read input slots
// [lo, VecLen-1+hi], so a lane stride L keeps lanes independent iff
//
//	L ≥ VecLen + max(hi, −lo, 0)
//
// given that inputs are zero outside [0, VecLen) — the packing
// contract EncryptVec already establishes. L is rounded to the next
// power of two so it divides the row and lane windows tile it exactly
// (the cyclic wrap of RotateRows then lands in another lane's zero
// padding, never its data).

// DefaultMaxLanes caps how many requests share one ciphertext. The cap
// bounds the pack/demux Galois key budget (2·(lanes−1) extra keys per
// stride) and matches the scheduler's default batch size.
const DefaultMaxLanes = 8

// Mux is a plan's slot-multiplexing capability: the lane geometry plus
// a clone of the plan whose constants are replicated into every lane
// (runtime ct/pt inputs are lane-packed per request; constants must be
// baked in once).
type Mux struct {
	// Base is the single-request plan the mux was derived from.
	Base *ExecutionPlan
	// Plan is the lane-replicated clone the muxed batch executes. Same
	// steps, registers and rotations as Base; only Consts (and their
	// prepared forms) differ.
	Plan *ExecutionPlan
	// Stride is the lane spacing in slots (power of two, divides the
	// row size).
	Stride int
	// Lanes is the maximum number of requests one muxed run carries:
	// min(DefaultMaxLanes, rowSize/Stride), always ≥ 2.
	Lanes int
}

// PackRotation returns the rotation amount that moves lane j's request
// from slots [0, VecLen) into its lane window (applied at pack time).
func (m *Mux) PackRotation(lane int) int { return -lane * m.Stride }

// DemuxRotation returns the rotation amount that moves lane j's result
// back to slots [0, VecLen) (applied at demux time).
func (m *Mux) DemuxRotation(lane int) int { return lane * m.Stride }

// reachInterval runs the dependency-offset analysis over a lowered
// program and returns the output value's interval [lo, hi]: slot s of
// the output depends only on input slots (and per-slot plaintext
// operand reads) in [s+lo, s+hi].
func reachInterval(l *quill.Lowered) (lo, hi int) {
	los := make([]int, l.NumValues())
	his := make([]int, l.NumValues())
	for _, in := range l.Instrs {
		switch {
		case in.Op == quill.OpRotCt:
			los[in.Dst] = los[in.A] + in.Rot
			his[in.Dst] = his[in.A] + in.Rot
		case in.Op == quill.OpRelin:
			los[in.Dst] = los[in.A]
			his[in.Dst] = his[in.A]
		case in.Op.IsCtCt():
			los[in.Dst] = min(los[in.A], los[in.B])
			his[in.Dst] = max(his[in.A], his[in.B])
		default: // ct-pt: the plaintext operand is read at offset 0
			los[in.Dst] = min(los[in.A], 0)
			his[in.Dst] = max(his[in.A], 0)
		}
	}
	return los[l.Output], his[l.Output]
}

// outputDegree returns the ciphertext degree of the program's output
// value (2 for an unrelinearized product).
func outputDegree(l *quill.Lowered) int {
	deg := make([]int, l.NumValues())
	for i := 0; i < l.NumCtInputs; i++ {
		deg[i] = 1
	}
	for _, in := range l.Instrs {
		switch {
		case in.Op == quill.OpMulCtCt:
			deg[in.Dst] = 2
		case in.Op == quill.OpRelin, in.Op == quill.OpRotCt:
			deg[in.Dst] = 1
		case in.Op.IsCtCt():
			deg[in.Dst] = max(deg[in.A], deg[in.B])
		default:
			deg[in.Dst] = deg[in.A]
		}
	}
	return deg[l.Output]
}

// MuxParams decides lane-packing eligibility for a plan against a row
// of `slots` slots. It returns the chosen stride and lane count, or
// lanes == 0 with a human-readable refusal reason: full-width vectors
// have no spare slots, rotation reach beyond the stride would cross
// lane boundaries (wraparound), and a degree-2 output cannot be
// demux-rotated. maxLanes ≤ 0 means DefaultMaxLanes.
func MuxParams(p *ExecutionPlan, slots, maxLanes int) (stride, lanes int, reason string) {
	if maxLanes <= 0 {
		maxLanes = DefaultMaxLanes
	}
	if p.Source == nil {
		return 0, 0, "plan carries no source program for reach analysis"
	}
	if p.VecLen >= slots {
		return 0, 0, fmt.Sprintf("full-width vector (%d of %d slots)", p.VecLen, slots)
	}
	if d := outputDegree(p.Source); d != 1 {
		return 0, 0, fmt.Sprintf("output degree %d cannot be demux-rotated", d)
	}
	lo, hi := reachInterval(p.Source)
	reach := max(hi, -lo, 0)
	need := p.VecLen + reach
	stride = 1
	for stride < need {
		stride <<= 1
	}
	if stride > slots/2 {
		return 0, 0, fmt.Sprintf("rotation reach %d over %d-slot vectors needs a %d-slot lane — wraps across lane boundaries in a %d-slot row", reach, p.VecLen, stride, slots)
	}
	lanes = slots / stride
	if lanes > maxLanes {
		lanes = maxLanes
	}
	return stride, lanes, ""
}

// ValidateMux checks that an explicit (stride, lanes) pair — e.g. one
// read from a wire manifest — is a legal lane geometry for the plan:
// the same bound MuxParams derives, without requiring the exact policy
// choice (a wider stride or fewer lanes than MuxParams would pick is
// still sound).
func ValidateMux(p *ExecutionPlan, slots, stride, lanes int) error {
	if stride <= 0 || stride&(stride-1) != 0 {
		return fmt.Errorf("mux stride %d is not a power of two", stride)
	}
	if stride > slots/2 {
		return fmt.Errorf("mux stride %d leaves no room for a second lane in a %d-slot row", stride, slots)
	}
	if lanes < 2 || lanes > slots/stride {
		return fmt.Errorf("mux lane count %d outside [2, %d]", lanes, slots/stride)
	}
	if p.Source == nil {
		return fmt.Errorf("muxed plan carries no source program for reach analysis")
	}
	if p.VecLen >= slots {
		return fmt.Errorf("mux on a full-width vector (%d of %d slots)", p.VecLen, slots)
	}
	if d := outputDegree(p.Source); d != 1 {
		return fmt.Errorf("mux output degree %d, want 1", d)
	}
	lo, hi := reachInterval(p.Source)
	if need := p.VecLen + max(hi, -lo, 0); stride < need {
		return fmt.Errorf("mux stride %d below rotation-reach bound %d: lanes would interfere", stride, need)
	}
	return nil
}

// MuxRotations returns the extra Galois rotation amounts a (stride,
// lanes) geometry needs beyond the plan's own: ±j·stride for
// j ∈ [1, lanes) — pack on the way in, demux on the way out.
func MuxRotations(stride, lanes int) []int {
	rots := make([]int, 0, 2*(lanes-1))
	for j := 1; j < lanes; j++ {
		rots = append(rots, j*stride, -j*stride)
	}
	return rots
}

// MuxRotationSet returns the union of plan rotations and mux pack/
// demux rotations over a set of plans — the Galois key set a registry
// export generates. Ineligible plans contribute their plan rotations
// only.
func MuxRotationSet(slots, maxLanes int, plans ...*ExecutionPlan) []int {
	seen := map[int]bool{}
	var rots []int
	add := func(r int) {
		if r != 0 && !seen[r] {
			seen[r] = true
			rots = append(rots, r)
		}
	}
	for _, p := range plans {
		if p == nil {
			continue
		}
		for _, r := range p.Rotations {
			add(r)
		}
		if stride, lanes, _ := MuxParams(p, slots, maxLanes); lanes >= 2 {
			for _, r := range MuxRotations(stride, lanes) {
				add(r)
			}
		}
	}
	return rots
}

// BuildMux derives the plan's mux capability: MuxParams for the
// geometry, then a lane-replicated clone for execution. Returns an
// error naming the refusal reason when the plan is ineligible.
func BuildMux(params *bfv.Parameters, enc *bfv.Encoder, p *ExecutionPlan, maxLanes int) (*Mux, error) {
	stride, lanes, reason := MuxParams(p, params.SlotCount(), maxLanes)
	if lanes < 2 {
		return nil, fmt.Errorf("plan: not mux-eligible: %s", reason)
	}
	return BuildMuxWith(params, enc, p, stride, lanes)
}

// BuildMuxWith builds the mux capability for an explicit, validated
// lane geometry (the wire-decode path, where the manifest fixes stride
// and lanes). The clone shares the base plan's immutable schedule and
// replaces only the constants: each constant's first VecLen slot
// values are replicated at every lane offset (slots between lanes stay
// zero, exactly like the zero padding of a single-request row), then
// re-encoded and re-prepared.
func BuildMuxWith(params *bfv.Parameters, enc *bfv.Encoder, p *ExecutionPlan, stride, lanes int) (*Mux, error) {
	if err := ValidateMux(p, params.SlotCount(), stride, lanes); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	clone := *p
	if len(p.Consts) > 0 {
		clone.Consts = make([]*bfv.Plaintext, len(p.Consts))
		for c, pt := range p.Consts {
			row := enc.Decode(pt)
			vals := make([]uint64, (lanes-1)*stride+p.VecLen)
			for j := 0; j < lanes; j++ {
				copy(vals[j*stride:j*stride+p.VecLen], row[:p.VecLen])
			}
			npt, err := enc.EncodeNew(vals)
			if err != nil {
				return nil, fmt.Errorf("plan: lane-replicating constant %d: %w", c, err)
			}
			clone.Consts[c] = npt
		}
	}
	// The shallow copy carries prepared forms derived from the BASE
	// constants; reset and re-derive against the replicated ones.
	clone.MulNTTConsts, clone.AddNTTConsts = nil, nil
	clone.PtNeedMulNTT, clone.PtNeedAddNTT = nil, nil
	clone.Prepared = false
	clone.Prepare(params)
	return &Mux{Base: p, Plan: &clone, Stride: stride, Lanes: lanes}, nil
}
