package bfv

import "fmt"

// This file implements cross-source batched key switching: many
// rotations of DIFFERENT source ciphertexts by the SAME amount,
// executed as one group. Hoisting (evaluator.go, nttops.go) amortizes
// the digit decomposition across rotations of one source; batching is
// the dual — the decomposition is per source and cannot be shared, but
// everything keyed by the Galois element can: the element itself, the
// switching-key fetch, the NTT-domain digit permutation, and the
// coefficient-domain automorphism table are resolved once per group
// (BeginBatchedRotation) and reused by every member.
//
// Each member runs the same decompose → permuted lazy inner product →
// accumulate pipeline as the corresponding serial rotation path
// (RotateRowsInto / RotateRowsIntoNTT / RotateRowsNTTIntoNTT), so a
// batched member's output is bit-identical to the serial rotation of
// the same ciphertext.

// BatchedRotation holds the shared per-group state of a cross-source
// batched key switch. Zero value is ready; BeginBatchedRotation
// (re)initializes it for a group's rotation amount. It allocates
// nothing: the tables come from the ring's per-element caches.
type BatchedRotation struct {
	g       uint64
	key     *switchingKey
	perm    []uint32 // NTT-domain digit permutation (ring.NTTPermutation)
	autoTab []uint32 // coefficient-domain automorphism table (ring.AutomorphismTable)
}

// BeginBatchedRotation resolves the state shared by every member of a
// batched rotation group: the Galois element of k, its switching key,
// and both automorphism tables. Fails if the evaluator holds no Galois
// key for the element (unless the rotation is the identity).
func (ev *Evaluator) BeginBatchedRotation(br *BatchedRotation, k int) error {
	r := ev.params.ringQ
	g := r.GaloisElementForRotation(k)
	br.g, br.key, br.perm, br.autoTab = g, nil, nil, nil
	if g == 1 {
		return nil
	}
	if ev.gks == nil || !ev.gks.HasElement(g) {
		return fmt.Errorf("bfv: no Galois key for element %d", g)
	}
	br.key = ev.gks.keys[g]
	br.perm = r.NTTPermutation(g)
	br.autoTab = r.AutomorphismTable(g)
	return nil
}

// RotateRowsBatchedInto rotates one coefficient-domain member of a
// batched group into a coefficient-domain destination: ct's own digits
// are decomposed into dec, then key-switched via the shared-rotation
// path (shared.go) with the group's prefetched key and tables.
// Bit-identical to RotateRowsInto with the group's amount. dst may
// alias ct.
func (ev *Evaluator) RotateRowsBatchedInto(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsBatched", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	ev.params.ringQ.DecomposeNTT(dec.d, ct.Value[1])
	dec.c0Set = false
	return ev.RotateRowsSharedInto(dst, ct, dec, br)
}

// RotateRowsBatchedIntoNTT rotates one coefficient-domain member into
// an NTT-resident destination. Bit-identical to RotateRowsIntoNTT.
// dst may alias ct.
func (ev *Evaluator) RotateRowsBatchedIntoNTT(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsBatchedIntoNTT", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.NTTInto(dst, ct)
		return nil
	}
	ev.params.ringQ.DecomposeNTT(dec.d, ct.Value[1])
	dec.c0Set = false
	return ev.RotateRowsSharedIntoNTT(dst, ct, dec, br)
}

// RotateRowsBatchedNTTIntoNTT rotates one NTT-resident member into an
// NTT-resident destination: c1 is inverse-transformed into scratch for
// digit extraction, c0 stays in the evaluation domain. Bit-identical
// to RotateRowsNTTIntoNTT. dst may alias ct.
func (ev *Evaluator) RotateRowsBatchedNTTIntoNTT(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsBatchedNTTIntoNTT", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	r := ev.params.ringQ
	c1 := r.GetPolyNoZero()
	r.CopyInto(c1, ct.Value[1])
	r.INTT(c1)
	r.DecomposeNTT(dec.d, c1)
	r.PutPoly(c1)
	dec.c0Set = false
	return ev.RotateRowsSharedNTTIntoNTT(dst, ct, dec, br)
}
