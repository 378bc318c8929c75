package bfv

import (
	"fmt"
	"math/big"

	"porcupine/internal/ring"
)

// Evaluator performs homomorphic operations on ciphertexts. It holds
// the evaluation keys (relinearization and Galois) it was constructed
// with; operations requiring an absent key return an error.
//
// Every operation has an allocating form (Add, Mul, ...) and an
// in-place form (AddInto, MulInto, ...) that writes into a
// caller-provided ciphertext, resizing it as needed. The in-place
// forms are alias-safe: dst may be one of the operands. Scratch
// polynomials come from the ring buffer pools, so steady-state
// evaluation performs no large allocations.
//
// Ciphertext multiplication runs on a pure-RNS hot path: centered
// lifting into the extended basis and the t/Q rounding rescale are
// word-sized mixed-radix conversions (ring.BasisExtender), with no
// per-coefficient math/big arithmetic. Every product is split into
// lift (LiftInto: each multiplicand lifted and forward-transformed
// once) and multiply (MulLiftedInto), so a square lifts one operand
// and a plan lifts a multiplicand once however many products read it.
// The textbook big.Int path is retained behind SetBigIntReference for
// differential testing.
type Evaluator struct {
	params    *Parameters
	rlk       *RelinearizationKey
	gks       *GaloisKeys
	useBigRef bool
}

// NewEvaluator builds an evaluator. rlk and gks may be nil when
// multiplication or rotation respectively is not needed.
func NewEvaluator(params *Parameters, rlk *RelinearizationKey, gks *GaloisKeys) *Evaluator {
	return &Evaluator{params: params, rlk: rlk, gks: gks}
}

// SetBigIntReference toggles the retained big.Int CRT reference
// implementation of Mul. It exists so tests can prove the pure-RNS
// path bit-identical to the textbook computation; production code
// should leave it off.
func (ev *Evaluator) SetBigIntReference(on bool) { ev.useBigRef = on }

func (ev *Evaluator) checkDegree(op string, ct *Ciphertext, max int) error {
	if ct.Degree() > max {
		return fmt.Errorf("bfv: %s: ciphertext degree %d exceeds %d", op, ct.Degree(), max)
	}
	return nil
}

// resize adjusts ct to the given degree. New polynomials come from
// the ring pool and hold stale coefficients — every caller fully
// overwrites all rows up to the new degree before reading them.
// Truncated polynomials go back to the pool. Every evaluator write
// into a ciphertext passes through here, which clears its seed.
func (ev *Evaluator) resize(ct *Ciphertext, degree int) {
	ct.seeded = false
	r := ev.params.ringQ
	for len(ct.Value) < degree+1 {
		ct.Value = append(ct.Value, r.GetPolyNoZero())
	}
	for _, p := range ct.Value[degree+1:] {
		r.PutPoly(p)
	}
	ct.Value = ct.Value[:degree+1]
}

// copyCiphertextInto copies src's polynomials into dst, resizing dst
// to src's degree. Rows already sharing a polynomial (dst aliasing
// src) are left untouched.
func (ev *Evaluator) copyCiphertextInto(dst, src *Ciphertext) {
	r := ev.params.ringQ
	srcV := src.Value
	ev.resize(dst, len(srcV)-1)
	for i := range srcV {
		if dst.Value[i] != srcV[i] {
			r.CopyInto(dst.Value[i], srcV[i])
		}
	}
}

// Add returns a + b (element-wise over slots). Operands of different
// degree are aligned by treating missing polynomials as zero.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	deg := max(a.Degree(), b.Degree())
	out := ev.params.NewCiphertextUninit(deg)
	ev.AddInto(out, a, b)
	return out
}

// AddInto sets dst = a + b. dst may alias a or b.
func (ev *Evaluator) AddInto(dst, a, b *Ciphertext) {
	r := ev.params.ringQ
	hi, lo := a, b
	if len(b.Value) > len(a.Value) {
		hi, lo = b, a
	}
	hiV, loV := hi.Value, lo.Value // capture before resize mutates an alias
	ev.resize(dst, len(hiV)-1)
	for i := range hiV {
		switch {
		case i < len(loV):
			r.Add(dst.Value[i], hiV[i], loV[i])
		case dst.Value[i] != hiV[i]:
			r.CopyInto(dst.Value[i], hiV[i])
		}
	}
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	deg := max(a.Degree(), b.Degree())
	out := ev.params.NewCiphertextUninit(deg)
	ev.SubInto(out, a, b)
	return out
}

// SubInto sets dst = a - b. dst may alias a or b.
func (ev *Evaluator) SubInto(dst, a, b *Ciphertext) {
	r := ev.params.ringQ
	aV, bV := a.Value, b.Value
	deg := max(len(aV), len(bV)) - 1
	ev.resize(dst, deg)
	for i := 0; i <= deg; i++ {
		switch {
		case i < len(aV) && i < len(bV):
			r.Sub(dst.Value[i], aV[i], bV[i])
		case i < len(aV):
			if dst.Value[i] != aV[i] {
				r.CopyInto(dst.Value[i], aV[i])
			}
		default:
			r.Neg(dst.Value[i], bV[i])
		}
	}
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	out := ev.params.NewCiphertextUninit(a.Degree())
	ev.NegInto(out, a)
	return out
}

// NegInto sets dst = -a. dst may alias a.
func (ev *Evaluator) NegInto(dst, a *Ciphertext) {
	r := ev.params.ringQ
	aV := a.Value
	ev.resize(dst, len(aV)-1)
	for i := range aV {
		r.Neg(dst.Value[i], aV[i])
	}
}

// AddPlain returns ct + pt: Δ·m is added to the degree-0 component.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := ev.params.NewCiphertextUninit(ct.Degree())
	ev.AddPlainInto(out, ct, pt)
	return out
}

// AddPlainInto sets dst = ct + pt. dst may alias ct.
func (ev *Evaluator) AddPlainInto(dst, ct *Ciphertext, pt *Plaintext) {
	r := ev.params.ringQ
	dm := r.GetPolyNoZero()
	deltaTimesPlaintext(ev.params, dm, pt)
	ev.copyCiphertextInto(dst, ct)
	r.Add(dst.Value[0], dst.Value[0], dm)
	r.PutPoly(dm)
}

// SubPlain returns ct - pt.
func (ev *Evaluator) SubPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := ev.params.NewCiphertextUninit(ct.Degree())
	ev.SubPlainInto(out, ct, pt)
	return out
}

// SubPlainInto sets dst = ct - pt. dst may alias ct.
func (ev *Evaluator) SubPlainInto(dst, ct *Ciphertext, pt *Plaintext) {
	r := ev.params.ringQ
	dm := r.GetPolyNoZero()
	deltaTimesPlaintext(ev.params, dm, pt)
	ev.copyCiphertextInto(dst, ct)
	r.Sub(dst.Value[0], dst.Value[0], dm)
	r.PutPoly(dm)
}

// PlainSub returns pt - ct.
func (ev *Evaluator) PlainSub(pt *Plaintext, ct *Ciphertext) *Ciphertext {
	out := ev.params.NewCiphertextUninit(ct.Degree())
	ev.SubPlainInto(out, ct, pt)
	ev.NegInto(out, out)
	return out
}

// MulPlain returns ct · pt (element-wise SIMD product with a plaintext
// vector). The plaintext is lifted without Δ-scaling, so the result
// still encrypts Δ·(m_ct ⊙ m_pt).
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	out := ev.params.NewCiphertextUninit(ct.Degree())
	ev.MulPlainInto(out, ct, pt)
	return out
}

// MulPlainInto sets dst = ct · pt. dst may alias ct.
func (ev *Evaluator) MulPlainInto(dst, ct *Ciphertext, pt *Plaintext) {
	r := ev.params.ringQ
	m := r.GetPolyNoZero()
	liftPlaintext(ev.params, m, pt)
	r.NTT(m)
	ctV := ct.Value
	ev.resize(dst, len(ctV)-1)
	tmp := r.GetPolyNoZero()
	for i := range ctV {
		r.CopyInto(tmp, ctV[i])
		r.NTT(tmp)
		r.MulCoeffs(tmp, tmp, m)
		r.INTT(tmp)
		r.CopyInto(dst.Value[i], tmp)
	}
	r.PutPoly(tmp)
	r.PutPoly(m)
}

// liftPlaintext writes pt's coefficients, reduced per prime, into dst
// (no Δ scaling).
func liftPlaintext(params *Parameters, dst *ring.Poly, pt *Plaintext) {
	r := params.ringQ
	for i := range r.Primes {
		bar := r.BarrettAt(i)
		di := dst.Coeffs[i]
		for j, m := range pt.Coeffs {
			di[j] = bar.Reduce64(m)
		}
	}
}

// Mul returns the degree-2 tensor product of two degree-1 ciphertexts,
// computed exactly over the integers in the extended RNS basis and
// scaled by t/Q with correct rounding. Use Relinearize (or MulRelin)
// to return to degree 1.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	out := ev.params.NewCiphertextUninit(2)
	if err := ev.MulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto sets out = a ⊗ b (degree 2, scaled by t/Q with correct
// rounding). out is resized to degree 2 and may alias a or b.
//
// It is the one product path, on pool scratch: a is lifted, b only
// when it is a different ciphertext (a square lifts once and takes
// MulLiftedInto's three-product form), then MulLiftedInto. Execution
// plans call LiftInto and MulLiftedInto directly, keeping lifts in
// session slots across products.
func (ev *Evaluator) MulInto(out *Ciphertext, a, b *Ciphertext) error {
	if err := ev.checkDegree("Mul", a, 1); err != nil {
		return err
	}
	if err := ev.checkDegree("Mul", b, 1); err != nil {
		return err
	}
	if ev.useBigRef {
		return ev.mulBigInto(out, a, b)
	}
	la := ev.getLifted()
	ev.lift(&la, a)
	lb := &la
	if b != a {
		lbv := ev.getLifted()
		lb = &lbv
		ev.lift(lb, b)
	}
	ev.MulLiftedInto(out, &la, lb)
	ev.putLifted(&la)
	if lb != &la {
		ev.putLifted(lb)
	}
	return nil
}

// getLifted returns lift scratch backed by extended-ring pool
// polynomials; putLifted returns them.
func (ev *Evaluator) getLifted() Lifted {
	rx := ev.params.ringExt
	return Lifted{rows: [2]*ring.Poly{rx.GetPolyNoZero(), rx.GetPolyNoZero()}}
}

func (ev *Evaluator) putLifted(l *Lifted) {
	ev.params.ringExt.PutPoly(l.rows[0])
	ev.params.ringExt.PutPoly(l.rows[1])
}

// Lifted is the multiplicand half of a tensor product: one degree-1
// ciphertext lifted into the extended RNS basis (centered
// representatives) and forward-transformed. Lifting both operands is
// about 42 % of a PN8192 product. Fill one with LiftInto and any
// number of MulLiftedInto calls read it until the next fill; a plan
// keeps them in session slots (Parameters.NewLifted), so each
// multiplicand is lifted once per run however many products read it.
type Lifted struct {
	rows [2]*ring.Poly
}

// NewLifted allocates lift scratch for the parameter set (two
// extended-basis polynomials).
func (p *Parameters) NewLifted() *Lifted {
	return &Lifted{rows: [2]*ring.Poly{p.ringExt.NewPoly(), p.ringExt.NewPoly()}}
}

// LiftInto fills l with ct lifted into the extended basis and
// forward-transformed. ct must have degree 1.
func (ev *Evaluator) LiftInto(l *Lifted, ct *Ciphertext) error {
	if ct.Degree() != 1 {
		return fmt.Errorf("bfv: LiftInto: ciphertext degree %d, want 1", ct.Degree())
	}
	ev.lift(l, ct)
	return nil
}

func (ev *Evaluator) lift(l *Lifted, ct *Ciphertext) {
	rx, be := ev.params.ringExt, ev.params.extender
	for i, p := range l.rows {
		be.LiftCentered(p, ct.Value[i])
		rx.NTT(p)
	}
}

// MulLiftedInto sets out = a ⊗ b from lifted operands: the pointwise
// tensor in the extended basis, three inverse transforms, and the t/Q
// rounding rescale back to R_Q (degree 2). a and b are only read. When
// a == b the square takes three pointwise products instead of four —
// e1 = 2·a0a1 — which is bit-identical to the general form, because
// the doubled residue equals a0a1 + a1a0 mod each prime. The big.Int
// reference (SetBigIntReference) does not apply: the lifts already
// fixed the representation.
func (ev *Evaluator) MulLiftedInto(out *Ciphertext, a, b *Lifted) {
	rx := ev.params.ringExt
	be := ev.params.extender
	a0, a1 := a.rows[0], a.rows[1]
	b0, b1 := b.rows[0], b.rows[1]

	e0, e1, e2 := rx.GetPolyNoZero(), rx.GetPolyNoZero(), rx.GetPolyNoZero()
	if a == b {
		rx.MulCoeffs(e0, a0, a0)
		rx.MulCoeffs(e1, a0, a1)
		rx.Add(e1, e1, e1)
		rx.MulCoeffs(e2, a1, a1)
	} else {
		rx.MulCoeffs(e0, a0, b0)
		rx.MulCoeffs(e1, a0, b1)
		rx.MulCoeffsAndAdd(e1, a1, b0)
		rx.MulCoeffs(e2, a1, b1)
	}
	rx.INTT(e0)
	rx.INTT(e1)
	rx.INTT(e2)

	// Scale each tensor component by t/Q with rounding, landing back in
	// R_Q — a pure-RNS mixed-radix rescale, no big.Int per coefficient.
	ev.resize(out, 2)
	be.ScaleDown(out.Value[0], e0)
	be.ScaleDown(out.Value[1], e1)
	be.ScaleDown(out.Value[2], e2)
	rx.PutPoly(e0)
	rx.PutPoly(e1)
	rx.PutPoly(e2)
}

// mulBigInto is the textbook tensor product with per-coefficient
// big.Int CRT reconstruction. It is the reference the pure-RNS path is
// differentially tested against; see SetBigIntReference.
func (ev *Evaluator) mulBigInto(out *Ciphertext, a, b *Ciphertext) error {
	rq := ev.params.ringQ
	rx := ev.params.ringExt

	// Lift the four input polynomials into the extended basis using
	// centered representatives.
	lift := func(p *ring.Poly) *ring.Poly {
		out := rx.NewPoly()
		var x big.Int
		for j := 0; j < ev.params.N; j++ {
			rq.CoeffBigCentered(&x, p, j)
			rx.SetCoeffBig(out, j, &x)
		}
		return out
	}
	a0, a1 := lift(a.Value[0]), lift(a.Value[1])
	b0, b1 := lift(b.Value[0]), lift(b.Value[1])
	rx.NTT(a0)
	rx.NTT(a1)
	rx.NTT(b0)
	rx.NTT(b1)

	e0, e1, e2 := rx.NewPoly(), rx.NewPoly(), rx.NewPoly()
	rx.MulCoeffs(e0, a0, b0)
	rx.MulCoeffs(e1, a0, b1)
	rx.MulCoeffsAndAdd(e1, a1, b0)
	rx.MulCoeffs(e2, a1, b1)
	rx.INTT(e0)
	rx.INTT(e1)
	rx.INTT(e2)

	// Scale each coefficient by t/Q with rounding, landing back in R_Q.
	ev.resize(out, 2)
	t := new(big.Int).SetUint64(ev.params.T)
	q := ev.params.q
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num big.Int
	for i, e := range []*ring.Poly{e0, e1, e2} {
		dst := out.Value[i]
		for j := 0; j < ev.params.N; j++ {
			rx.CoeffBigCentered(&x, e, j)
			num.Mul(t, &x)
			if num.Sign() >= 0 {
				num.Add(&num, halfQ)
			} else {
				num.Sub(&num, halfQ)
			}
			num.Quo(&num, q)
			rq.SetCoeffBig(dst, j, &num)
		}
	}
	return nil
}

// Decomposition holds the hoisted key-switching state of one
// degree-1 ciphertext: the RNS digits of its c1 component, lifted and
// forward-NTT'd once (DecomposeForKeySwitch) and then reusable across
// any number of rotations of that ciphertext, at any amount
// (RotateRowsShared*, shared.go). Create one with
// Parameters.NewDecomposition and keep it per execution session — the
// backend sizes a slice of them to the plan's decomposition slots
// (ExecutionPlan.NumDecomps): it is scratch, not a value, and its
// contents are valid only until the next Decompose* call.
type Decomposition struct {
	d *ring.Decomposition
	// c0NTT caches the forward transform of the decomposed
	// ciphertext's c0 for NTT-destined rotations
	// (RotateRowsSharedIntoNTT): the first such rotation pays one NTT,
	// every later one shares it. Invalidated by every Decompose* call.
	c0NTT *ring.Poly
	c0Set bool
}

// NewDecomposition allocates hoisting scratch for the parameter set
// (one digit polynomial per Q prime, from the ring pool).
func (p *Parameters) NewDecomposition() *Decomposition {
	return &Decomposition{d: p.ringQ.GetDecomposition(), c0NTT: p.ringQ.NewPoly()}
}

// DecomposeForKeySwitch fills dec with the key-switching digits of
// ct's c1 component — the decompose-once half of hoisted rotation.
// ct must have degree 1. After this call, any number of
// RotateRowsShared* calls rotate ct at the cost of a digit permutation
// instead of a fresh decomposition (K digit lifts + K forward NTTs
// each).
func (ev *Evaluator) DecomposeForKeySwitch(dec *Decomposition, ct *Ciphertext) error {
	if ct.Degree() != 1 {
		return fmt.Errorf("bfv: DecomposeForKeySwitch: ciphertext degree %d, want 1", ct.Degree())
	}
	ev.params.ringQ.DecomposeNTT(dec.d, ct.Value[1])
	dec.c0Set = false
	return nil
}

// galoisFromDecomp applies the Galois automorphism g to ct given the
// hoisted decomposition of its c1: the digits are permuted in the NTT
// domain (σ_g commutes with the evaluation-point permutation) and
// inner-multiplied against the switching key with one lazy reduction
// per coefficient; c0 is permuted in the coefficient domain. dst may
// alias ct.
func (ev *Evaluator) galoisFromDecomp(dst, ct *Ciphertext, dec *ring.Decomposition, key *switchingKey, g uint64) {
	r := ev.params.ringQ
	ev.galoisFromDecompTables(dst, ct, dec, key, r.NTTPermutation(g), r.AutomorphismTable(g))
}

// galoisFromDecompTables is galoisFromDecomp with both automorphism
// tables resolved by the caller — the prefetched form behind shared
// key switching (BeginBatchedRotation resolves the element, key, and
// tables once per group).
func (ev *Evaluator) galoisFromDecompTables(dst, ct *Ciphertext, dec *ring.Decomposition, key *switchingKey, perm, autoTab []uint32) {
	r := ev.params.ringQ
	// The lazy accumulation writes every coefficient of its output, so
	// the accumulators need no zeroing pass (GetPolyNoZero, not
	// GetPoly).
	f0, f1 := r.GetPolyNoZero(), r.GetPolyNoZero()
	r.PermutedMulAccumLazy(f0, dec.Digits, key.B, perm)
	r.PermutedMulAccumLazy(f1, dec.Digits, key.A, perm)
	r.INTT(f0)
	r.INTT(f1)
	c0g := r.GetPolyNoZero()
	r.AutomorphismWithTable(c0g, ct.Value[0], autoTab)
	ev.resize(dst, 1)
	r.Add(dst.Value[0], c0g, f0)
	r.CopyInto(dst.Value[1], f1)
	r.PutPoly(c0g)
	r.PutPoly(f0)
	r.PutPoly(f1)
}

// keySwitch computes (Σ_i d_i·b_i, Σ_i d_i·a_i) where d_i is the i-th
// RNS digit of d (its residues mod p_i, lifted). This moves a term
// d·s' to the (constant, s) basis given a switching key for s'. The
// digits run through the shared hoisting primitives: decompose once
// (ring.DecomposeNTT), then one lazy inner product per output — K
// products accumulate in 128 bits and reduce once per coefficient
// instead of K times. The returned polynomials come from the ring
// pool; the caller must return them with PutPoly.
func (ev *Evaluator) keySwitch(d *ring.Poly, key *switchingKey) (*ring.Poly, *ring.Poly) {
	r := ev.params.ringQ
	dec := r.GetDecomposition()
	r.DecomposeNTT(dec, d)
	// The lazy inner product fully writes its output — no zeroed
	// accumulator (GetPoly) needed.
	out0, out1 := r.GetPolyNoZero(), r.GetPolyNoZero()
	r.MulAccumLazy(out0, dec.Digits, key.B)
	r.MulAccumLazy(out1, dec.Digits, key.A)
	r.INTT(out0)
	r.INTT(out1)
	r.PutDecomposition(dec)
	return out0, out1
}

// Relinearize reduces a degree-2 ciphertext to degree 1 using the
// relinearization key.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	out := ev.params.NewCiphertextUninit(1)
	if err := ev.RelinearizeInto(out, ct); err != nil {
		return nil, err
	}
	return out, nil
}

// RelinearizeInto sets dst to the degree-1 equivalent of ct. dst may
// alias ct.
func (ev *Evaluator) RelinearizeInto(dst, ct *Ciphertext) error {
	r := ev.params.ringQ
	if ct.Degree() == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	if ct.Degree() != 2 {
		return fmt.Errorf("bfv: Relinearize: unsupported degree %d", ct.Degree())
	}
	if ev.rlk == nil {
		return fmt.Errorf("bfv: Relinearize: no relinearization key")
	}
	f0, f1 := ev.keySwitch(ct.Value[2], ev.rlk.key)
	ctV := ct.Value
	ev.resize(dst, 1)
	r.Add(dst.Value[0], ctV[0], f0)
	r.Add(dst.Value[1], ctV[1], f1)
	r.PutPoly(f0)
	r.PutPoly(f1)
	return nil
}

// MulRelin multiplies and immediately relinearizes.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) (*Ciphertext, error) {
	out := ev.params.NewCiphertextUninit(1)
	if err := ev.MulRelinInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MulRelinInto sets dst = relin(a ⊗ b). dst may alias a or b.
func (ev *Evaluator) MulRelinInto(dst, a, b *Ciphertext) error {
	tmp := ev.params.NewCiphertextUninit(2)
	defer ev.params.RecycleCiphertext(tmp)
	if err := ev.MulInto(tmp, a, b); err != nil {
		return err
	}
	return ev.RelinearizeInto(dst, tmp)
}

// RotateRows rotates the batching rows left by k slots (right for
// negative k) using the corresponding Galois key.
func (ev *Evaluator) RotateRows(ct *Ciphertext, k int) (*Ciphertext, error) {
	out := ev.params.NewCiphertextUninit(1)
	if err := ev.RotateRowsInto(out, ct, k); err != nil {
		return nil, err
	}
	return out, nil
}

// RotateRowsInto sets dst = ct rotated by k slots. dst may alias ct.
func (ev *Evaluator) RotateRowsInto(dst, ct *Ciphertext, k int) error {
	if err := ev.checkDegree("RotateRows", ct, 1); err != nil {
		return err
	}
	r := ev.params.ringQ
	g := r.GaloisElementForRotation(k)
	if g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	return ev.applyGaloisInto(dst, ct, g)
}

// RotateColumns swaps the two batching rows.
func (ev *Evaluator) RotateColumns(ct *Ciphertext) (*Ciphertext, error) {
	out := ev.params.NewCiphertextUninit(1)
	if err := ev.RotateColumnsInto(out, ct); err != nil {
		return nil, err
	}
	return out, nil
}

// RotateColumnsInto sets dst = ct with its batching rows swapped. dst
// may alias ct.
func (ev *Evaluator) RotateColumnsInto(dst, ct *Ciphertext) error {
	if err := ev.checkDegree("RotateColumns", ct, 1); err != nil {
		return err
	}
	return ev.applyGaloisInto(dst, ct, ev.params.ringQ.GaloisElementRowSwap())
}

// applyGaloisInto is the serial (non-hoisted) rotation path. It is
// the hoisted path with a decomposition lifetime of one: decompose
// c1, permute-and-accumulate, discard — so a rotation produces the
// same bits whether or not its decomposition was hoisted across a
// fan-out.
func (ev *Evaluator) applyGaloisInto(dst, ct *Ciphertext, g uint64) error {
	if ev.gks == nil || !ev.gks.HasElement(g) {
		return fmt.Errorf("bfv: no Galois key for element %d", g)
	}
	r := ev.params.ringQ
	dec := r.GetDecomposition()
	r.DecomposeNTT(dec, ct.Value[1])
	ev.galoisFromDecomp(dst, ct, dec, ev.gks.keys[g], g)
	r.PutDecomposition(dec)
	return nil
}
