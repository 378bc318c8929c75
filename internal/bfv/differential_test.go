package bfv

import (
	"math/rand"
	"testing"
)

// diffFixture builds a deterministic full key set plus two fresh
// ciphertexts for differential tests.
func diffFixture(t *testing.T, seed int64) (*Parameters, *Evaluator, *Evaluator, *Ciphertext, *Ciphertext, *Encoder, *Decryptor) {
	t.Helper()
	params, err := NewParametersFromPreset("PN2048")
	if err != nil {
		t.Fatal(err)
	}
	kg := NewTestKeyGenerator(params, seed)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinearizationKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	gks, err := kg.GenGaloisKeys(sk, []int{1, 2, 5, -3})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	encryptor := NewTestEncryptor(params, sk, seed+1)
	rng := rand.New(rand.NewSource(seed + 2))
	fresh := func() *Ciphertext {
		vals := make([]uint64, enc.SlotCount())
		for i := range vals {
			vals[i] = rng.Uint64() % params.T
		}
		pt, err := enc.EncodeNew(vals)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := encryptor.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	rns := NewEvaluator(params, rlk, gks)
	ref := NewEvaluator(params, rlk, gks)
	ref.SetBigIntReference(true)
	return params, rns, ref, fresh(), fresh(), enc, NewDecryptor(params, sk)
}

func ciphertextsEqual(params *Parameters, a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) {
		return false
	}
	r := params.RingQ()
	for i := range a.Value {
		if !r.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// TestMulDifferentialBitIdentical proves the pure-RNS multiplication
// pipeline produces bit-identical ciphertexts to the retained big.Int
// CRT reference across random inputs.
func TestMulDifferentialBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		params, rns, ref, a, b, _, _ := diffFixture(t, seed)
		got, err := rns.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, got, want) {
			t.Fatalf("seed %d: pure-RNS Mul differs from big.Int reference", seed)
		}
	}
}

// TestMulRelinRotateDifferential runs the full hot-path chain
// (Mul → Relinearize → RotateRows) under both implementations and
// requires bit-identical ciphertexts at every stage.
func TestMulRelinRotateDifferential(t *testing.T) {
	for seed := int64(10); seed <= 12; seed++ {
		params, rns, ref, a, b, _, _ := diffFixture(t, seed)

		mGot, err := rns.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		mWant, err := ref.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, mGot, mWant) {
			t.Fatalf("seed %d: Mul differs", seed)
		}

		rGot, err := rns.Relinearize(mGot)
		if err != nil {
			t.Fatal(err)
		}
		rWant, err := ref.Relinearize(mWant)
		if err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, rGot, rWant) {
			t.Fatalf("seed %d: Relinearize differs", seed)
		}

		for _, k := range []int{1, 2, 5, -3} {
			rotGot, err := rns.RotateRows(rGot, k)
			if err != nil {
				t.Fatal(err)
			}
			rotWant, err := ref.RotateRows(rWant, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ciphertextsEqual(params, rotGot, rotWant) {
				t.Fatalf("seed %d: RotateRows(%d) differs", seed, k)
			}
		}
	}
}

// TestMulDecryptsCorrectly sanity-checks the pure-RNS product against
// the plaintext slot product (not just the reference implementation).
func TestMulDecryptsCorrectly(t *testing.T) {
	params, rns, _, _, _, enc, dec := diffFixture(t, 42)
	rng := rand.New(rand.NewSource(99))
	va := make([]uint64, enc.SlotCount())
	vb := make([]uint64, enc.SlotCount())
	for i := range va {
		va[i] = rng.Uint64() % 256
		vb[i] = rng.Uint64() % 256
	}
	kg := NewTestKeyGenerator(params, 42)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	encryptor := NewTestEncryptor(params, sk, 43)
	dec = NewDecryptor(params, sk)

	pa, err := enc.EncodeNew(va)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := enc.EncodeNew(vb)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := encryptor.Encrypt(pa)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := encryptor.Encrypt(pb)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := rns.MulRelin(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dec.Decrypt(prod))
	for i := range va {
		want := va[i] * vb[i] % params.T
		if got[i] != want {
			t.Fatalf("slot %d: decrypted %d, want %d", i, got[i], want)
		}
	}
}

// TestInPlaceVariantsAliasSafety checks every Into variant with dst
// aliasing an operand against the allocating form.
func TestInPlaceVariantsAliasSafety(t *testing.T) {
	params, ev, _, a, b, enc, _ := diffFixture(t, 77)
	pt, err := enc.EncodeNew([]uint64{3, 1, 4, 1, 5, 9, 2, 6})
	if err != nil {
		t.Fatal(err)
	}

	clone := func(ct *Ciphertext) *Ciphertext { return params.CopyCiphertext(ct) }

	t.Run("AddInto dst=a", func(t *testing.T) {
		want := ev.Add(a, b)
		dst := clone(a)
		ev.AddInto(dst, dst, b)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("AddInto(dst=a) differs from Add")
		}
	})
	t.Run("AddInto dst=b", func(t *testing.T) {
		want := ev.Add(a, b)
		dst := clone(b)
		ev.AddInto(dst, a, dst)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("AddInto(dst=b) differs from Add")
		}
	})
	t.Run("AddInto mixed degree", func(t *testing.T) {
		deg2, err := ev.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.Add(deg2, a)
		dst := clone(a) // degree 1, must grow to 2 while aliased
		ev.AddInto(dst, deg2, dst)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("AddInto with degree growth differs from Add")
		}
	})
	t.Run("SubInto dst=a", func(t *testing.T) {
		want := ev.Sub(a, b)
		dst := clone(a)
		ev.SubInto(dst, dst, b)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("SubInto(dst=a) differs from Sub")
		}
	})
	t.Run("SubInto dst=b", func(t *testing.T) {
		want := ev.Sub(a, b)
		dst := clone(b)
		ev.SubInto(dst, a, dst)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("SubInto(dst=b) differs from Sub")
		}
	})
	t.Run("NegInto dst=a", func(t *testing.T) {
		want := ev.Neg(a)
		dst := clone(a)
		ev.NegInto(dst, dst)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("NegInto(dst=a) differs from Neg")
		}
	})
	t.Run("AddPlainInto dst=ct", func(t *testing.T) {
		want := ev.AddPlain(a, pt)
		dst := clone(a)
		ev.AddPlainInto(dst, dst, pt)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("AddPlainInto(dst=ct) differs from AddPlain")
		}
	})
	t.Run("SubPlainInto dst=ct", func(t *testing.T) {
		want := ev.SubPlain(a, pt)
		dst := clone(a)
		ev.SubPlainInto(dst, dst, pt)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("SubPlainInto(dst=ct) differs from SubPlain")
		}
	})
	t.Run("MulPlainInto dst=ct", func(t *testing.T) {
		want := ev.MulPlain(a, pt)
		dst := clone(a)
		ev.MulPlainInto(dst, dst, pt)
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("MulPlainInto(dst=ct) differs from MulPlain")
		}
	})
	t.Run("MulInto dst=a", func(t *testing.T) {
		want, err := ev.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(a)
		if err := ev.MulInto(dst, dst, b); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("MulInto(dst=a) differs from Mul")
		}
	})
	t.Run("MulInto dst=b", func(t *testing.T) {
		want, err := ev.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(b)
		if err := ev.MulInto(dst, a, dst); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("MulInto(dst=b) differs from Mul")
		}
	})
	t.Run("MulInto squaring dst=a=b", func(t *testing.T) {
		want, err := ev.Mul(a, a)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(a)
		if err := ev.MulInto(dst, dst, dst); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("MulInto(dst=a=b) differs from Mul(a, a)")
		}
	})
	t.Run("RelinearizeInto dst=ct", func(t *testing.T) {
		deg2, err := ev.Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ev.Relinearize(deg2)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(deg2)
		if err := ev.RelinearizeInto(dst, dst); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("RelinearizeInto(dst=ct) differs from Relinearize")
		}
	})
	t.Run("RotateRowsInto dst=ct", func(t *testing.T) {
		want, err := ev.RotateRows(a, 2)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(a)
		if err := ev.RotateRowsInto(dst, dst, 2); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("RotateRowsInto(dst=ct) differs from RotateRows")
		}
	})
	t.Run("RotateRowsInto zero rotation dst=ct", func(t *testing.T) {
		want, err := ev.RotateRows(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := clone(a)
		if err := ev.RotateRowsInto(dst, dst, 0); err != nil {
			t.Fatal(err)
		}
		if !ciphertextsEqual(params, dst, want) {
			t.Fatal("RotateRowsInto(dst=ct, 0) differs from RotateRows")
		}
	})
}

// TestParallelEvaluatorMatchesSerial runs Mul/Relinearize with ring
// parallelism enabled and requires bit-identical results to the serial
// configuration.
func TestParallelEvaluatorMatchesSerial(t *testing.T) {
	params, ev, _, a, b, _, _ := diffFixture(t, 123)
	serial, err := ev.MulRelin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	params.SetWorkers(4)
	defer params.SetWorkers(0)
	parallel, err := ev.MulRelin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !ciphertextsEqual(params, serial, parallel) {
		t.Fatal("parallel MulRelin differs from serial")
	}
}
