package bfv

import "fmt"

// This file implements double-hoisted key switching: the rotation
// paths that consume a decomposition ALREADY resident in a
// Decomposition slot, at any rotation amount, with the per-amount
// Galois state (element, switching key, permutation and automorphism
// tables) prefetched once per group by BeginBatchedRotation. It shares
// work along both axes at once:
//
//   - across AMOUNTS: the plan layer keeps each multiply-rotated
//     source's decomposition alive in a slot (DecomposeForKeySwitch /
//     DecomposeForKeySwitchNTT fills it exactly once, on the source's
//     first rotation), and every later rotation of that source —
//     whatever its amount, wherever it sits in the schedule — pays only
//     a permuted lazy inner product against the resident digits;
//   - across SOURCES: every member of a group rotates by the group's
//     one amount, so the Galois element, key fetch and tables resolve
//     once for all of them.
//
// The serial paths (RotateRowsInto, RotateRowsIntoNTT,
// RotateRowsNTTIntoNTT) run the same decompose-permute-accumulate
// primitives in the same order, so a shared rotation is bit-identical
// to the serial rotation of the same ciphertext.

// BatchedRotation holds the per-amount state shared by every member of
// a rotation group. Zero value is ready; BeginBatchedRotation
// (re)initializes it for a group's rotation amount. It allocates
// nothing: the tables come from the ring's per-element caches.
type BatchedRotation struct {
	g       uint64
	key     *switchingKey
	perm    []uint32 // NTT-domain digit permutation (ring.NTTPermutation)
	autoTab []uint32 // coefficient-domain automorphism table (ring.AutomorphismTable)
}

// BeginBatchedRotation resolves the state shared by every member of a
// rotation group: the Galois element of k, its switching key, and both
// automorphism tables. Fails if the evaluator holds no Galois key for
// the element (unless the rotation is the identity).
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

// RotateRowsSharedInto rotates a coefficient-domain source into a
// coefficient-domain destination using the decomposition resident in
// dec (filled earlier by DecomposeForKeySwitch — possibly many steps
// ago) and the Galois state prefetched in br. Bit-identical to
// RotateRowsInto with the group's amount. dst may alias ct.
func (ev *Evaluator) RotateRowsSharedInto(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsShared", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	ev.galoisFromDecompTables(dst, ct, dec.d, br.key, br.perm, br.autoTab)
	return nil
}

// RotateRowsSharedIntoNTT rotates a coefficient-domain source into an
// NTT-resident destination from the resident decomposition. The
// source's c0 forward transform is cached on dec by the first
// NTT-destined rotation and shared by every later one, across group
// boundaries alike. Bit-identical to RotateRowsIntoNTT. dst may alias
// ct.
func (ev *Evaluator) RotateRowsSharedIntoNTT(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsSharedIntoNTT", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.NTTInto(dst, ct)
		return nil
	}
	r := ev.params.ringQ
	if !dec.c0Set {
		r.CopyInto(dec.c0NTT, ct.Value[0])
		r.NTT(dec.c0NTT)
		dec.c0Set = true
	}
	ev.galoisFromDecompToNTTPerm(dst, dec.c0NTT, dec.d, br.key, br.perm)
	return nil
}

// RotateRowsSharedNTTIntoNTT rotates an NTT-resident source into an
// NTT-resident destination from the resident decomposition (filled by
// DecomposeForKeySwitchNTT): the source's c0 is already in the
// evaluation domain, so the rotation performs no transforms at all.
// Bit-identical to RotateRowsNTTIntoNTT. dst may alias ct.
func (ev *Evaluator) RotateRowsSharedNTTIntoNTT(dst, ct *Ciphertext, dec *Decomposition, br *BatchedRotation) error {
	if err := ev.checkDegree("RotateRowsSharedNTTIntoNTT", ct, 1); err != nil {
		return err
	}
	if br.g == 1 {
		ev.copyCiphertextInto(dst, ct)
		return nil
	}
	ev.galoisFromDecompToNTTPerm(dst, ct.Value[0], dec.d, br.key, br.perm)
	return nil
}
