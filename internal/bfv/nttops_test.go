package bfv

import (
	"math/rand"
	"testing"
)

// The NTT-resident evaluation paths must be the exact conjugates of
// their coefficient-domain counterparts: for every primitive P with an
// NTT variant P_N, INTT(P_N(NTT(x))) == P(x) bit for bit. The ring's
// NTT fully normalizes into [0,p), so the transform is an exact
// bijection and these are equality checks, not approximations. These
// tests pin that contract per primitive; the plan-level differential
// tests in internal/backend then cover whole kernels.

// TestNTTConversionRoundTrip: INTTInto ∘ NTTInto is the identity, in
// and out of place.
func TestNTTConversionRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(11))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))

	ntt := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(ntt, ct)
	if tc.params.CiphertextEqual(ct, ntt) {
		t.Fatal("forward NTT left the ciphertext unchanged")
	}
	back := tc.params.NewCiphertextUninit(1)
	tc.ev.INTTInto(back, ntt)
	if !tc.params.CiphertextEqual(ct, back) {
		t.Fatal("INTT(NTT(ct)) != ct")
	}

	inPlace := tc.params.NewCiphertextUninit(1)
	tc.ev.copyCiphertextInto(inPlace, ct)
	tc.ev.NTTInto(inPlace, inPlace)
	tc.ev.INTTInto(inPlace, inPlace)
	if !tc.params.CiphertextEqual(ct, inPlace) {
		t.Fatal("in-place conversion round trip != ct")
	}
}

// TestNTTResidentAddSub: AddInto/SubInto/NegInto are domain-agnostic —
// applied to NTT-resident operands they compute the NTT of the
// coefficient-domain result exactly.
func TestNTTResidentAddSub(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(12))
	a := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	b := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	aN, bN := tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(aN, a)
	tc.ev.NTTInto(bN, b)

	check := func(name string, coeff, nttRes *Ciphertext) {
		t.Helper()
		got := tc.params.NewCiphertextUninit(1)
		tc.ev.INTTInto(got, nttRes)
		if !tc.params.CiphertextEqual(coeff, got) {
			t.Fatalf("%s: NTT-resident result is not the transform of the coefficient result", name)
		}
	}
	ref, res := tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1)
	tc.ev.AddInto(ref, a, b)
	tc.ev.AddInto(res, aN, bN)
	check("add", ref, res)
	tc.ev.SubInto(ref, a, b)
	tc.ev.SubInto(res, aN, bN)
	check("sub", ref, res)
	tc.ev.NegInto(ref, a)
	tc.ev.NegInto(res, aN)
	check("neg", ref, res)
}

// TestMulPlainPreparedVariants: the four prepared-plaintext product
// variants agree with the legacy MulPlainInto across every domain
// combination, including aliased destinations.
func TestMulPlainPreparedVariants(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(13))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	pt, err := tc.enc.EncodeNew(randVec(rng, tc.params.SlotCount(), tc.params.T))
	if err != nil {
		t.Fatal(err)
	}
	m := tc.params.NewMulPlainNTT(pt)
	ctN := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(ctN, ct)

	ref := tc.params.NewCiphertextUninit(1)
	tc.ev.MulPlainInto(ref, ct, pt)
	refN := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(refN, ref)

	got := tc.params.NewCiphertextUninit(1)
	tc.ev.MulPlainPreparedInto(got, ct, m)
	if !tc.params.CiphertextEqual(ref, got) {
		t.Fatal("MulPlainPreparedInto != MulPlainInto")
	}
	tc.ev.MulPlainPreparedIntoNTT(got, ct, m)
	if !tc.params.CiphertextEqual(refN, got) {
		t.Fatal("MulPlainPreparedIntoNTT != NTT(MulPlainInto)")
	}
	tc.ev.MulPlainNTTInto(got, ctN, m)
	if !tc.params.CiphertextEqual(ref, got) {
		t.Fatal("MulPlainNTTInto != MulPlainInto")
	}
	tc.ev.MulPlainNTTIntoNTT(got, ctN, m)
	if !tc.params.CiphertextEqual(refN, got) {
		t.Fatal("MulPlainNTTIntoNTT != NTT(MulPlainInto)")
	}

	// Aliased: dst == ct for each variant.
	alias := tc.params.NewCiphertextUninit(1)
	tc.ev.copyCiphertextInto(alias, ct)
	tc.ev.MulPlainPreparedInto(alias, alias, m)
	if !tc.params.CiphertextEqual(ref, alias) {
		t.Fatal("aliased MulPlainPreparedInto != MulPlainInto")
	}
	tc.ev.copyCiphertextInto(alias, ctN)
	tc.ev.MulPlainNTTIntoNTT(alias, alias, m)
	if !tc.params.CiphertextEqual(refN, alias) {
		t.Fatal("aliased MulPlainNTTIntoNTT != NTT(MulPlainInto)")
	}
}

// TestAddSubPlainNTT: the NTT-resident plaintext add/sub agree with
// the coefficient path through the conjugation.
func TestAddSubPlainNTT(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(14))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	pt, err := tc.enc.EncodeNew(randVec(rng, tc.params.SlotCount(), tc.params.T))
	if err != nil {
		t.Fatal(err)
	}
	m := tc.params.NewAddPlainNTT(pt)
	ctN := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(ctN, ct)

	ref, got, back := tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1)
	tc.ev.AddPlainInto(ref, ct, pt)
	tc.ev.AddPlainNTTIntoNTT(got, ctN, m)
	tc.ev.INTTInto(back, got)
	if !tc.params.CiphertextEqual(ref, back) {
		t.Fatal("AddPlainNTTIntoNTT is not the transform of AddPlainInto")
	}
	tc.ev.SubPlainInto(ref, ct, pt)
	tc.ev.SubPlainNTTIntoNTT(got, ctN, m)
	tc.ev.INTTInto(back, got)
	if !tc.params.CiphertextEqual(ref, back) {
		t.Fatal("SubPlainNTTIntoNTT is not the transform of SubPlainInto")
	}
}

// TestRotateNTTVariants: every NTT-destination rotation path (serial
// coeff-source, serial NTT-source, hoisted coeff-source with the
// shared c0 cache, hoisted NTT-source) produces exactly the transform
// of the serial coefficient rotation.
func TestRotateNTTVariants(t *testing.T) {
	steps := []int{1, 2, 5, -3}
	tc := newTestContext(t, steps)
	rng := rand.New(rand.NewSource(15))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	ctN := tc.params.NewCiphertextUninit(1)
	tc.ev.NTTInto(ctN, ct)

	decC := tc.params.NewDecomposition()
	if err := tc.ev.DecomposeForKeySwitch(decC, ct); err != nil {
		t.Fatal(err)
	}
	decN := tc.params.NewDecomposition()
	if err := tc.ev.DecomposeForKeySwitchNTT(decN, ctN); err != nil {
		t.Fatal(err)
	}

	var br BatchedRotation
	got, back := tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1)
	for _, k := range append(steps, 0) {
		ref, err := tc.ev.RotateRows(ct, k)
		if err != nil {
			t.Fatalf("rot %d serial: %v", k, err)
		}
		refN := tc.params.NewCiphertextUninit(1)
		tc.ev.NTTInto(refN, ref)

		if err := tc.ev.RotateRowsIntoNTT(got, ct, k); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		if !tc.params.CiphertextEqual(refN, got) {
			t.Fatalf("rot %d: RotateRowsIntoNTT != NTT(RotateRows)", k)
		}
		if err := tc.ev.RotateRowsNTTIntoNTT(got, ctN, k); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		if !tc.params.CiphertextEqual(refN, got) {
			t.Fatalf("rot %d: RotateRowsNTTIntoNTT != NTT(RotateRows)", k)
		}
		if err := tc.ev.BeginBatchedRotation(&br, k); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		if err := tc.ev.RotateRowsSharedIntoNTT(got, ct, decC, &br); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		if !tc.params.CiphertextEqual(refN, got) {
			t.Fatalf("rot %d: RotateRowsSharedIntoNTT != NTT(RotateRows)", k)
		}
		if err := tc.ev.RotateRowsSharedNTTIntoNTT(got, ctN, decN, &br); err != nil {
			t.Fatalf("rot %d: %v", k, err)
		}
		if !tc.params.CiphertextEqual(refN, got) {
			t.Fatalf("rot %d: RotateRowsSharedNTTIntoNTT != NTT(RotateRows)", k)
		}
		tc.ev.INTTInto(back, got)
		if !tc.params.CiphertextEqual(ref, back) {
			t.Fatalf("rot %d: INTT of NTT-resident rotation != serial rotation", k)
		}
	}

	// Mixed rotations off one decomposition: coefficient-destination
	// rotations are unaffected by NTT-destined ones sharing the cache.
	rot := func(dst *Ciphertext, k int, ntt bool) {
		t.Helper()
		if err := tc.ev.BeginBatchedRotation(&br, k); err != nil {
			t.Fatal(err)
		}
		rotate := tc.ev.RotateRowsSharedInto
		if ntt {
			rotate = tc.ev.RotateRowsSharedIntoNTT
		}
		if err := rotate(dst, ct, decC, &br); err != nil {
			t.Fatal(err)
		}
	}
	mixRef, mix := tc.params.NewCiphertextUninit(1), tc.params.NewCiphertextUninit(1)
	rot(mixRef, 2, false)
	rot(got, 1, true)
	rot(mix, 2, false)
	if !tc.params.CiphertextEqual(mixRef, mix) {
		t.Fatal("coefficient rotation changed after an NTT-destined one used the shared cache")
	}

	// Missing-key errors surface on every new path.
	for name, call := range map[string]func() error{
		"serial-into-ntt": func() error { return tc.ev.RotateRowsIntoNTT(got, ct, 700) },
		"ntt-into-ntt":    func() error { return tc.ev.RotateRowsNTTIntoNTT(got, ctN, 700) },
		"shared-group":    func() error { return tc.ev.BeginBatchedRotation(&br, 700) },
	} {
		if err := call(); err == nil {
			t.Fatalf("%s: rotation without a Galois key did not fail", name)
		}
	}
}

// TestNTTRotationSteadyStateAllocs: mixed NTT/coefficient rotations
// off one decomposition stay allocation-free once the pools are warm.
func TestNTTRotationSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tc := newTestContext(t, []int{1, 2, 5})
	rng := rand.New(rand.NewSource(16))
	ct := tc.encryptVec(t, randVec(rng, tc.params.SlotCount(), tc.params.T))
	pt, _ := tc.enc.EncodeNew(randVec(rng, tc.params.SlotCount(), tc.params.T))
	m := tc.params.NewMulPlainNTT(pt)
	dec := tc.params.NewDecomposition()
	o1, o2, o3 := tc.params.NewCiphertext(1), tc.params.NewCiphertext(1), tc.params.NewCiphertext(1)
	var br BatchedRotation
	rot := func(dst *Ciphertext, k int, ntt bool) {
		if err := tc.ev.BeginBatchedRotation(&br, k); err != nil {
			t.Fatal(err)
		}
		var err error
		if ntt {
			err = tc.ev.RotateRowsSharedIntoNTT(dst, ct, dec, &br)
		} else {
			err = tc.ev.RotateRowsSharedInto(dst, ct, dec, &br)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	warm := func() {
		if err := tc.ev.DecomposeForKeySwitch(dec, ct); err != nil {
			t.Fatal(err)
		}
		rot(o1, 1, true)
		rot(o2, 2, true)
		rot(o3, 5, false)
		tc.ev.AddInto(o1, o1, o2)
		tc.ev.MulPlainNTTIntoNTT(o1, o1, m)
		tc.ev.INTTInto(o1, o1)
	}
	warm()
	if allocs := testing.AllocsPerRun(20, warm); allocs > 0 {
		t.Fatalf("steady-state NTT-resident evaluation allocates %.1f objects/op, want 0", allocs)
	}
}
