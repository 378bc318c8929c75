package bfv

import (
	"fmt"

	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// Encoder maps vectors of integers modulo t to plaintext polynomials
// using BFV batching: the CRT decomposition of Z_t[X]/(X^N+1) into N
// one-dimensional slots. Slots are arranged as two rows of N/2; this
// repository exposes row 0 as "the vector" and RotateRows as the
// circular rotation, matching the Quill abstract machine.
type Encoder struct {
	params   *Parameters
	ptRing   *ring.Ring // degree-N ring with the single prime t
	indexMap []int      // slot index -> coefficient position (bit-reversed NTT layout)
	inverse  []int      // coefficient position -> slot index
}

// NewEncoder builds the batching tables for the parameter set.
func NewEncoder(params *Parameters) (*Encoder, error) {
	ptRing, err := ring.NewRing(params.N, []uint64{params.T})
	if err != nil {
		return nil, fmt.Errorf("bfv: plaintext ring: %w", err)
	}
	n := params.N
	logN, err := mathutil.Log2(n)
	if err != nil {
		return nil, err
	}
	m := uint64(2 * n)
	rowSize := n / 2
	indexMap := make([]int, n)
	pos := uint64(1)
	gen := uint64(3)
	for i := 0; i < rowSize; i++ {
		idx1 := (pos - 1) >> 1
		idx2 := (m - pos - 1) >> 1
		indexMap[i] = int(mathutil.BitReverse(idx1, logN))
		indexMap[i+rowSize] = int(mathutil.BitReverse(idx2, logN))
		pos = pos * gen % m
	}
	inverse := make([]int, n)
	for slot, coeff := range indexMap {
		inverse[coeff] = slot
	}
	return &Encoder{params: params, ptRing: ptRing, indexMap: indexMap, inverse: inverse}, nil
}

// SlotCount returns the length of the vector exposed by Encode (one
// batching row).
func (e *Encoder) SlotCount() int { return e.params.N / 2 }

// Encode packs values (length ≤ SlotCount, remaining slots zero) into
// pt. Values must already be reduced modulo t; use EncodeInt for
// signed inputs.
func (e *Encoder) Encode(values []uint64, pt *Plaintext) error {
	rowSize := e.params.N / 2
	if len(values) > rowSize {
		return fmt.Errorf("bfv: %d values exceed slot count %d", len(values), rowSize)
	}
	t := e.params.T
	buf := pt.Coeffs
	clear(buf)
	for i, v := range values {
		if v >= t {
			return fmt.Errorf("bfv: value %d at index %d not reduced mod t=%d", v, i, t)
		}
		buf[e.indexMap[i]] = v
	}
	// buf currently holds slot values in the NTT evaluation layout;
	// an inverse NTT yields the coefficient form. The row form avoids
	// heap-allocating a Poly wrapper, keeping per-run input encoding
	// allocation-free for serving sessions.
	e.ptRing.INTTRow(0, buf)
	return nil
}

// EncodeLanes packs k vectors at disjoint lane offsets into pt: lane
// j's values land in slots [j·stride, j·stride+len(lanes[j])), all
// other slots zero — the slot-multiplexing layout, produced in one
// encoding pass. Each vector must fit its lane (length ≤ stride) and
// the last lane must fit the row.
func (e *Encoder) EncodeLanes(lanes [][]uint64, stride int, pt *Plaintext) error {
	rowSize := e.params.N / 2
	if stride <= 0 || len(lanes)*stride > rowSize {
		return fmt.Errorf("bfv: %d lanes of stride %d exceed slot count %d", len(lanes), stride, rowSize)
	}
	t := e.params.T
	buf := pt.Coeffs
	clear(buf)
	for j, vals := range lanes {
		if len(vals) > stride {
			return fmt.Errorf("bfv: lane %d holds %d values, stride is %d", j, len(vals), stride)
		}
		base := j * stride
		for i, v := range vals {
			if v >= t {
				return fmt.Errorf("bfv: value %d at lane %d index %d not reduced mod t=%d", v, j, i, t)
			}
			buf[e.indexMap[base+i]] = v
		}
	}
	e.ptRing.INTTRow(0, buf)
	return nil
}

// DecodeLane unpacks n slots starting at lane·stride — the per-request
// extraction of a demultiplexed response.
func (e *Encoder) DecodeLane(pt *Plaintext, lane, stride, n int) ([]uint64, error) {
	rowSize := e.params.N / 2
	base := lane * stride
	if lane < 0 || stride <= 0 || n < 0 || base+n > rowSize {
		return nil, fmt.Errorf("bfv: lane window [%d, %d) outside row of %d slots", base, base+n, rowSize)
	}
	out := make([]uint64, n)
	e.decodeSlots(out, pt, base)
	return out, nil
}

// decodeSlots writes slots [base, base+len(dst)) of pt into dst (slot
// indices run over row 0, then row 1). The evaluation-domain image of
// pt lives in pooled scratch, so decoding allocates nothing and costs
// one N-point NTT whatever the number of slots asked for.
func (e *Encoder) decodeSlots(dst []uint64, pt *Plaintext, base int) {
	scratch := e.params.GetPlaintext()
	buf := scratch.Coeffs
	copy(buf, pt.Coeffs)
	e.ptRing.NTTRow(0, buf)
	for i := range dst {
		dst[i] = buf[e.indexMap[base+i]]
	}
	e.params.PutPlaintext(scratch)
}

// DecodeInto unpacks the first len(dst) ≤ SlotCount slots of row 0 of
// pt into dst: Decode of only the slots asked for, into the caller's
// buffer. pt is not modified.
func (e *Encoder) DecodeInto(dst []uint64, pt *Plaintext) error {
	if len(dst) > e.SlotCount() {
		return fmt.Errorf("bfv: %d slots requested from a row of %d", len(dst), e.SlotCount())
	}
	e.decodeSlots(dst, pt, 0)
	return nil
}

// EncodeInt packs signed values, reducing them into [0, t).
func (e *Encoder) EncodeInt(values []int64, pt *Plaintext) error {
	t := int64(e.params.T)
	u := make([]uint64, len(values))
	for i, v := range values {
		r := v % t
		if r < 0 {
			r += t
		}
		u[i] = uint64(r)
	}
	return e.Encode(u, pt)
}

// EncodeNew is Encode into a freshly allocated plaintext.
func (e *Encoder) EncodeNew(values []uint64) (*Plaintext, error) {
	pt := e.params.NewPlaintext()
	if err := e.Encode(values, pt); err != nil {
		return nil, err
	}
	return pt, nil
}

// Decode unpacks the first SlotCount slots (row 0) of pt.
func (e *Encoder) Decode(pt *Plaintext) []uint64 {
	out := make([]uint64, e.params.N/2)
	e.decodeSlots(out, pt, 0)
	return out
}

// DecodeInt decodes slot values into centered signed representatives
// in (-t/2, t/2].
func (e *Encoder) DecodeInt(pt *Plaintext) []int64 {
	u := e.Decode(pt)
	t := e.params.T
	half := t / 2
	out := make([]int64, len(u))
	for i, v := range u {
		if v > half {
			out[i] = int64(v) - int64(t)
		} else {
			out[i] = int64(v)
		}
	}
	return out
}

// DecodeFull unpacks both batching rows (N slots).
func (e *Encoder) DecodeFull(pt *Plaintext) []uint64 {
	out := make([]uint64, e.params.N)
	e.decodeSlots(out, pt, 0)
	return out
}
