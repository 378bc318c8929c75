package bfv

import (
	"math/rand"
	"testing"
)

// TestHoistedRotationBitIdentity proves the shared rotation paths —
// rotations out of one hoisted decomposition, at any amount — produce
// exactly the ciphertext of the serial path: RotateRowsSharedInto
// equals RotateRows, and RotateRowsSharedIntoNTT and
// RotateRowsSharedNTTIntoNTT equal NTT(RotateRows), rotation by
// rotation after one DecomposeForKeySwitch / DecomposeForKeySwitchNTT.
// The amounts include negative and wraparound ones and the identity,
// and every path is also run with dst aliasing its source.
func TestHoistedRotationBitIdentity(t *testing.T) {
	steps := []int{1, 2, 5, -3, -700, 511}
	tc := newTestContext(t, steps)
	rng := rand.New(rand.NewSource(3))
	slots := tc.params.SlotCount()
	v := randVec(rng, slots, tc.params.T)
	ct := tc.encryptVec(t, v)
	ctN := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(ctN, ct)

	dec, decN := tc.params.NewDecomposition(), tc.params.NewDecomposition()
	if err := tc.ev.DecomposeForKeySwitch(dec, ct); err != nil {
		t.Fatal(err)
	}
	if err := tc.ev.DecomposeForKeySwitchNTT(decN, ctN); err != nil {
		t.Fatal(err)
	}
	var br BatchedRotation
	got := tc.params.NewCiphertextUninit(1)
	refN := tc.params.NewCiphertextUninit(1)
	for _, k := range append(steps, 0) {
		ref, err := tc.ev.RotateRows(ct, k)
		if err != nil {
			t.Fatalf("rot %d serial: %v", k, err)
		}
		tc.ev.NTTInto(refN, ref)
		if err := tc.ev.BeginBatchedRotation(&br, k); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		paths := []struct {
			name string
			src  *Ciphertext
			want *Ciphertext
			rot  func(dst, src *Ciphertext) error
		}{
			{"RotateRowsSharedInto", ct, ref, func(d, s *Ciphertext) error { return tc.ev.RotateRowsSharedInto(d, s, dec, &br) }},
			{"RotateRowsSharedIntoNTT", ct, refN, func(d, s *Ciphertext) error { return tc.ev.RotateRowsSharedIntoNTT(d, s, dec, &br) }},
			{"RotateRowsSharedNTTIntoNTT", ctN, refN, func(d, s *Ciphertext) error { return tc.ev.RotateRowsSharedNTTIntoNTT(d, s, decN, &br) }},
		}
		for _, p := range paths {
			if err := p.rot(got, p.src); err != nil {
				t.Fatalf("rot %d %s: %v", k, p.name, err)
			}
			if !tc.params.CiphertextEqual(p.want, got) {
				t.Fatalf("rot %d: %s differs from the serial rotation", k, p.name)
			}
			alias := tc.params.CopyCiphertext(p.src)
			if err := p.rot(alias, alias); err != nil {
				t.Fatalf("rot %d %s aliased: %v", k, p.name, err)
			}
			if !tc.params.CiphertextEqual(p.want, alias) {
				t.Fatalf("rot %d: %s with dst aliasing ct differs from the serial rotation", k, p.name)
			}
		}
		// The shared outputs equal ref bit for bit; ref must decrypt to
		// the slot rotation.
		gotV := tc.decryptVec(ref)
		kk := ((k % slots) + slots) % slots
		for i := 0; i < slots; i++ {
			if gotV[i] != v[(i+kk)%slots] {
				t.Fatalf("rot %d: slot %d = %d, want %d", k, i, gotV[i], v[(i+kk)%slots])
			}
		}
	}
}

// TestSharedRefillDropsCachedC0: refilling a decomposition from a
// different ciphertext must drop the c0 transform an NTT-destined
// rotation cached for the previous one — the rotation after the refill
// matches a fresh rotation of the new ciphertext.
func TestSharedRefillDropsCachedC0(t *testing.T) {
	tc := newTestContext(t, []int{1, 2})
	rng := rand.New(rand.NewSource(6))
	a := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	b := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	dec := tc.params.NewDecomposition()
	var br BatchedRotation
	if err := tc.ev.BeginBatchedRotation(&br, 2); err != nil {
		t.Fatal(err)
	}
	got := tc.params.NewCiphertextUninit(1)
	if err := tc.ev.DecomposeForKeySwitch(dec, a); err != nil {
		t.Fatal(err)
	}
	if err := tc.ev.RotateRowsSharedIntoNTT(got, a, dec, &br); err != nil { // caches NTT(a.c0)
		t.Fatal(err)
	}
	if err := tc.ev.DecomposeForKeySwitch(dec, b); err != nil {
		t.Fatal(err)
	}
	if err := tc.ev.RotateRowsSharedIntoNTT(got, b, dec, &br); err != nil {
		t.Fatal(err)
	}
	want := tc.params.NewCiphertextUninit(1)
	if err := tc.ev.RotateRowsIntoNTT(want, b, 2); err != nil {
		t.Fatal(err)
	}
	if !tc.params.CiphertextEqual(want, got) {
		t.Fatal("rotation after a refill reused the previous source's cached c0 transform")
	}
}

// TestHoistedRotationErrors covers the failure modes: a rotation group
// without its Galois key fails in BeginBatchedRotation, and
// decomposing a non-degree-1 ciphertext fails.
func TestHoistedRotationErrors(t *testing.T) {
	tc := newTestContext(t, []int{1})
	rng := rand.New(rand.NewSource(4))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	var br BatchedRotation
	if err := tc.ev.BeginBatchedRotation(&br, 7); err == nil {
		t.Fatal("rotation group without a Galois key did not fail")
	}
	deg2, err := tc.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	dec := tc.params.NewDecomposition()
	if err := tc.ev.DecomposeForKeySwitch(dec, deg2); err == nil {
		t.Fatal("decomposing a degree-2 ciphertext did not fail")
	}
}

// TestHoistedRotationSteadyStateAllocs checks that decomposing once and
// rotating by several amounts out of the resident digits stays
// allocation-free once pools are warm — the invariant the plan
// executor depends on.
func TestHoistedRotationSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	steps := []int{1, 2, 5}
	tc := newTestContext(t, steps)
	rng := rand.New(rand.NewSource(5))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	dec := tc.params.NewDecomposition()
	outs := make([]*Ciphertext, len(steps))
	for i := range outs {
		outs[i] = tc.params.NewCiphertext(1)
	}
	var br BatchedRotation
	warm := func() {
		if err := tc.ev.DecomposeForKeySwitch(dec, ct); err != nil {
			t.Fatal(err)
		}
		for i, k := range steps {
			if err := tc.ev.BeginBatchedRotation(&br, k); err != nil {
				t.Fatal(err)
			}
			if err := tc.ev.RotateRowsSharedInto(outs[i], ct, dec, &br); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs > 0 {
		t.Fatalf("steady-state shared rotations allocate %.1f objects/op, want 0", allocs)
	}
}
