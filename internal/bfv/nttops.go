package bfv

import (
	"fmt"

	"porcupine/internal/ring"
)

// This file implements NTT-resident ciphertext evaluation: the
// primitives behind the planner's domain-assignment pass
// (internal/plan). A degree-1 ciphertext is "NTT-resident" when both
// of its polynomials are stored in the evaluation domain. Additions
// and subtractions are domain-agnostic (AddInto/SubInto work on
// NTT-resident operands unchanged); this file supplies the pieces
// that are not:
//
//   - NTTPlaintext: a plaintext operand pre-transformed into the
//     evaluation domain (NTT(lift(m)) for multiplication, NTT(Δ·m)
//     for addition), prepared once per plan or per run instead of
//     per call;
//   - prepared plaintext multiplication in all four domain
//     combinations (coeff/NTT source × coeff/NTT destination);
//   - rotations with an NTT-resident source and/or destination. The
//     key-switching inner products already live in the NTT domain
//     (f0, f1 in galoisFromDecomp), so an NTT destination SKIPS the
//     two inverse NTTs and instead permutes the source's c0 in the
//     evaluation domain (AutomorphismNTT) — at most one forward NTT
//     per decomposed source, shared by all of its rotations;
//   - explicit domain conversions (NTTInto / INTTInto) for the
//     plan's OpNTT / OpINTT steps.
//
// Every NTT-domain form is the exact conjugate of its coefficient
// counterpart under the ring's fully-normalizing NTT (outputs land in
// [0, p) canonically), so converting an NTT-resident result back to
// the coefficient domain reproduces the coefficient path bit for bit —
// the property the plan differential tests pin down.

// NTTPlaintext is a plaintext operand held in the evaluation domain,
// ready for pointwise use against NTT-domain ciphertext rows. The
// payload depends on the operation it was prepared for: SetMulPlainNTT
// stores NTT(lift(m)) (multiplication), SetAddPlainNTT stores
// NTT(Δ·m) (addition/subtraction). Immutable between Set calls; safe
// to share read-only across sessions.
type NTTPlaintext struct {
	p *ring.Poly
}

// NewNTTPlaintext allocates an empty evaluation-domain plaintext
// buffer (fill it with SetMulPlainNTT or SetAddPlainNTT).
func (p *Parameters) NewNTTPlaintext() *NTTPlaintext {
	return &NTTPlaintext{p: p.ringQ.NewPoly()}
}

// SetMulPlainNTT fills dst with NTT(lift(m)): the multiplication
// operand MulPlainInto recomputes on every call, hoisted so prepared
// plans pay it once per constant (plan time) or once per run
// (plaintext inputs).
func (p *Parameters) SetMulPlainNTT(dst *NTTPlaintext, pt *Plaintext) {
	liftPlaintext(p, dst.p, pt)
	p.ringQ.NTT(dst.p)
}

// SetAddPlainNTT fills dst with NTT(Δ·m): the addition operand for
// NTT-resident destinations.
func (p *Parameters) SetAddPlainNTT(dst *NTTPlaintext, pt *Plaintext) {
	deltaTimesPlaintext(p, dst.p, pt)
	p.ringQ.NTT(dst.p)
}

// NewMulPlainNTT allocates and fills a multiplication operand.
func (p *Parameters) NewMulPlainNTT(pt *Plaintext) *NTTPlaintext {
	d := p.NewNTTPlaintext()
	p.SetMulPlainNTT(d, pt)
	return d
}

// NewAddPlainNTT allocates and fills an addition operand.
func (p *Parameters) NewAddPlainNTT(pt *Plaintext) *NTTPlaintext {
	d := p.NewNTTPlaintext()
	p.SetAddPlainNTT(d, pt)
	return d
}

// NTTInto sets dst to the NTT-resident form of the coefficient-domain
// ct (every polynomial forward-transformed). dst may alias ct.
func (ev *Evaluator) NTTInto(dst, ct *Ciphertext) {
	r := ev.params.ringQ
	ctV := ct.Value
	ev.resize(dst, len(ctV)-1)
	for i := range ctV {
		if dst.Value[i] != ctV[i] {
			r.CopyInto(dst.Value[i], ctV[i])
		}
		r.NTT(dst.Value[i])
	}
}

// INTTInto sets dst to the coefficient-domain form of the
// NTT-resident ct. dst may alias ct.
func (ev *Evaluator) INTTInto(dst, ct *Ciphertext) {
	r := ev.params.ringQ
	ctV := ct.Value
	ev.resize(dst, len(ctV)-1)
	for i := range ctV {
		if dst.Value[i] != ctV[i] {
			r.CopyInto(dst.Value[i], ctV[i])
		}
		r.INTT(dst.Value[i])
	}
}

// mulPlainPrepared is the shared core of the four prepared-plaintext
// multiplication variants: transform each source row in only when the
// source is coefficient-resident, multiply pointwise against the
// prepared operand, transform out only when the destination is
// coefficient-resident. dst may alias ct in every variant.
func (ev *Evaluator) mulPlainPrepared(dst, ct *Ciphertext, m *NTTPlaintext, srcNTT, dstNTT bool) {
	r := ev.params.ringQ
	ctV := ct.Value
	ev.resize(dst, len(ctV)-1)
	for i := range ctV {
		di := dst.Value[i]
		if srcNTT {
			r.MulCoeffs(di, ctV[i], m.p)
		} else {
			if di != ctV[i] {
				r.CopyInto(di, ctV[i])
			}
			r.NTT(di)
			r.MulCoeffs(di, di, m.p)
		}
		if !dstNTT {
			r.INTT(di)
		}
	}
}

// MulPlainPreparedInto sets dst = ct · m for coefficient-domain ct and
// dst, with the plaintext operand m prepared once (SetMulPlainNTT)
// instead of per call — bit-identical to MulPlainInto on the raw
// plaintext, minus its per-call forward NTT of the operand.
func (ev *Evaluator) MulPlainPreparedInto(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.mulPlainPrepared(dst, ct, m, false, false)
}

// MulPlainPreparedIntoNTT sets dst = ct · m, coefficient-domain ct,
// NTT-resident dst (the inverse transforms are skipped).
func (ev *Evaluator) MulPlainPreparedIntoNTT(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.mulPlainPrepared(dst, ct, m, false, true)
}

// MulPlainNTTInto sets dst = ct · m, NTT-resident ct, coefficient
// dst.
func (ev *Evaluator) MulPlainNTTInto(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.mulPlainPrepared(dst, ct, m, true, false)
}

// MulPlainNTTIntoNTT sets dst = ct · m with both sides NTT-resident:
// a pure pointwise product, no transforms at all.
func (ev *Evaluator) MulPlainNTTIntoNTT(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.mulPlainPrepared(dst, ct, m, true, true)
}

// AddPlainNTTIntoNTT sets dst = ct + pt for NTT-resident ct and dst,
// with m holding NTT(Δ·pt) (SetAddPlainNTT). dst may alias ct.
func (ev *Evaluator) AddPlainNTTIntoNTT(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.copyCiphertextInto(dst, ct)
	ev.params.ringQ.Add(dst.Value[0], dst.Value[0], m.p)
}

// SubPlainNTTIntoNTT sets dst = ct - pt for NTT-resident ct and dst.
// dst may alias ct.
func (ev *Evaluator) SubPlainNTTIntoNTT(dst, ct *Ciphertext, m *NTTPlaintext) {
	ev.copyCiphertextInto(dst, ct)
	ev.params.ringQ.Sub(dst.Value[0], dst.Value[0], m.p)
}

// galoisFromDecompToNTT is the NTT-destination half of galoisFromDecomp:
// the key-switching inner products f0, f1 are already NTT-resident, so
// instead of inverse-transforming them it permutes the source's
// evaluation-domain c0 (c0NTT) and accumulates entirely in the NTT
// domain. dst may alias the ciphertext that produced c0NTT and dec.
func (ev *Evaluator) galoisFromDecompToNTT(dst *Ciphertext, c0NTT *ring.Poly, dec *ring.Decomposition, key *switchingKey, g uint64) {
	ev.galoisFromDecompToNTTPerm(dst, c0NTT, dec, key, ev.params.ringQ.NTTPermutation(g))
}

// galoisFromDecompToNTTPerm is galoisFromDecompToNTT with the NTT
// permutation table resolved by the caller (see
// galoisFromDecompTables).
func (ev *Evaluator) galoisFromDecompToNTTPerm(dst *Ciphertext, c0NTT *ring.Poly, dec *ring.Decomposition, key *switchingKey, perm []uint32) {
	r := ev.params.ringQ
	f0, f1 := r.GetPolyNoZero(), r.GetPolyNoZero()
	r.PermutedMulAccumLazy(f0, dec.Digits, key.B, perm)
	r.PermutedMulAccumLazy(f1, dec.Digits, key.A, perm)
	c0g := r.GetPolyNoZero()
	r.AutomorphismNTTWithTable(c0g, c0NTT, perm)
	ev.resize(dst, 1)
	r.Add(dst.Value[0], c0g, f0)
	r.CopyInto(dst.Value[1], f1)
	r.PutPoly(c0g)
	r.PutPoly(f0)
	r.PutPoly(f1)
}

// DecomposeForKeySwitchNTT is DecomposeForKeySwitch for an
// NTT-resident ct: its c1 is inverse-transformed into scratch first
// (digit extraction is a coefficient-wise residue computation). After
// this call, RotateRowsSharedNTTIntoNTT rotates ct any number of
// times.
func (ev *Evaluator) DecomposeForKeySwitchNTT(dec *Decomposition, ct *Ciphertext) error {
	if ct.Degree() != 1 {
		return fmt.Errorf("bfv: DecomposeForKeySwitchNTT: ciphertext degree %d, want 1", ct.Degree())
	}
	r := ev.params.ringQ
	c1 := r.GetPolyNoZero()
	r.CopyInto(c1, ct.Value[1])
	r.INTT(c1)
	r.DecomposeNTT(dec.d, c1)
	r.PutPoly(c1)
	dec.c0Set = false
	return nil
}

// RotateRowsIntoNTT is the serial (non-hoisted) rotation from a
// coefficient-domain source into an NTT-resident destination: one
// forward NTT of c0 instead of two inverse NTTs of the inner
// products. dst may alias ct.
func (ev *Evaluator) RotateRowsIntoNTT(dst, ct *Ciphertext, k int) error {
	if err := ev.checkDegree("RotateRowsIntoNTT", ct, 1); err != nil {
		return err
	}
	r := ev.params.ringQ
	g := r.GaloisElementForRotation(k)
	if g == 1 {
		ev.NTTInto(dst, ct)
		return nil
	}
	if ev.gks == nil || !ev.gks.HasElement(g) {
		return fmt.Errorf("bfv: no Galois key for element %d", g)
	}
	dec := r.GetDecomposition()
	r.DecomposeNTT(dec, ct.Value[1])
	c0N := r.GetPolyNoZero()
	r.CopyInto(c0N, ct.Value[0])
	r.NTT(c0N)
	ev.galoisFromDecompToNTT(dst, c0N, dec, ev.gks.keys[g], g)
	r.PutPoly(c0N)
	r.PutDecomposition(dec)
	return nil
}

// RotateRowsNTTIntoNTT is the serial rotation of an NTT-resident
// source into an NTT-resident destination: one inverse NTT of c1 (the
// digit extraction needs coefficients), zero transforms on the output
// side. dst may alias ct.
func (ev *Evaluator) RotateRowsNTTIntoNTT(dst, ct *Ciphertext, k int) error {
	if err := ev.checkDegree("RotateRowsNTTIntoNTT", ct, 1); err != nil {
		return err
	}
	r := ev.params.ringQ
	g := r.GaloisElementForRotation(k)
	if g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	if ev.gks == nil || !ev.gks.HasElement(g) {
		return fmt.Errorf("bfv: no Galois key for element %d", g)
	}
	c1 := r.GetPolyNoZero()
	r.CopyInto(c1, ct.Value[1])
	r.INTT(c1)
	dec := r.GetDecomposition()
	r.DecomposeNTT(dec, c1)
	r.PutPoly(c1)
	ev.galoisFromDecompToNTT(dst, ct.Value[0], dec, ev.gks.keys[g], g)
	r.PutDecomposition(dec)
	return nil
}
