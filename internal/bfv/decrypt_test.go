package bfv

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"porcupine/internal/ring"
)

// decryptBigIntReference is the textbook decryption the pure-RNS
// Decryptor replaced, kept as its differential reference: the phase
// c0 + Σ c_d·s^d with one NTT round trip per term, then per
// coefficient a CRT reconstruction into math/big and
// (t·x ± Q/2) quo Q mod t.
func decryptBigIntReference(dec *Decryptor, ct *Ciphertext) *Plaintext {
	params := dec.params
	r := params.ringQ
	v := r.Copy(ct.Value[0])
	sPow := r.Copy(dec.sk.SNtt)
	tmp := r.NewPoly()
	for d := 1; d < len(ct.Value); d++ {
		r.CopyInto(tmp, ct.Value[d])
		r.NTT(tmp)
		r.MulCoeffs(tmp, tmp, sPow)
		r.INTT(tmp)
		r.Add(v, v, tmp)
		r.MulCoeffs(sPow, sPow, dec.sk.SNtt)
	}
	pt := params.NewPlaintext()
	t := new(big.Int).SetUint64(params.T)
	halfQ := new(big.Int).Rsh(params.q, 1)
	var x, num big.Int
	for j := range pt.Coeffs {
		r.CoeffBigCentered(&x, v, j)
		num.Mul(t, &x)
		if num.Sign() >= 0 {
			num.Add(&num, halfQ)
		} else {
			num.Sub(&num, halfQ)
		}
		num.Quo(&num, params.q)
		pt.Coeffs[j] = num.Mod(&num, t).Uint64()
	}
	return pt
}

// TestDecryptMatchesBigIntReference requires the pure-RNS decryption
// to be bit-identical to the big.Int reference on every kind of
// ciphertext a keyholder can receive — and on ones it never should
// (exhausted budget, uniformly random polynomials), where the plaintext
// is garbage but the rounding is still a fixed function of the phase.
func TestDecryptMatchesBigIntReference(t *testing.T) {
	for _, preset := range []string{"PN4096", "PN8192"} {
		t.Run(preset, func(t *testing.T) {
			tc := presetContext(t, preset, []int{1, -3})
			rng := rand.New(rand.NewSource(11))
			check := func(name string, ct *Ciphertext) {
				t.Helper()
				got, want := tc.dec.Decrypt(ct), decryptBigIntReference(tc.dec, ct)
				if !slices.Equal(got.Coeffs, want.Coeffs) {
					t.Errorf("%s: pure-RNS decryption differs from the big.Int reference", name)
				}
			}
			must := func(ct *Ciphertext, err error) *Ciphertext {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				return ct
			}
			va := randVec(rng, tc.enc.SlotCount(), tc.params.T)
			a := tc.encryptVec(t, va)
			b := tc.encryptVec(t, randVec(rng, tc.enc.SlotCount(), tc.params.T))
			check("fresh", a)
			if got := tc.decryptVec(a); !slices.Equal(got, va) {
				t.Fatal("fresh ciphertext does not decrypt to its plaintext")
			}
			check("rotated", must(tc.ev.RotateRows(a, -3)))
			deg2 := must(tc.ev.Mul(a, b))
			check("degree-2", deg2)
			check("mul+relin", must(tc.ev.Relinearize(deg2)))
			check("degree-0", &Ciphertext{Value: a.Value[:1]})

			// Square until the budget is spent: the last two checks run on
			// a nearly exhausted and an exhausted ciphertext.
			x, spent := a, false
			for depth := 1; !spent; depth++ {
				if depth > 16 {
					t.Fatal("noise budget never ran out")
				}
				x = must(tc.ev.Relinearize(must(tc.ev.Mul(x, x))))
				budget := tc.dec.NoiseBudget(x)
				t.Logf("depth %d: %.1f bits of budget", depth, budget)
				check(fmt.Sprintf("depth %d", depth), x)
				spent = budget < 1
			}

			s := ring.NewTestSampler(tc.params.ringQ, 5)
			for i := 0; i < 3; i++ {
				u := tc.params.NewCiphertext(1 + i%2)
				for _, p := range u.Value {
					if err := s.Uniform(p); err != nil {
						t.Fatal(err)
					}
				}
				check("uniform", u)
			}
		})
	}
}

// TestDecodeIntoAndLanes covers the slot-window decoders: DecodeInto is
// a prefix of Decode into the caller's buffer, DecodeLane inverts
// EncodeLanes, and both refuse windows outside the row.
func TestDecodeIntoAndLanes(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(3))
	row := tc.enc.SlotCount()
	pt, err := tc.enc.EncodeNew(randVec(rng, row, tc.params.T))
	if err != nil {
		t.Fatal(err)
	}
	full := tc.enc.Decode(pt)
	for _, n := range []int{0, 1, 37, row} {
		dst := make([]uint64, n)
		if err := tc.enc.DecodeInto(dst, pt); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, full[:n]) {
			t.Errorf("DecodeInto(%d slots) is not a prefix of Decode", n)
		}
	}
	if err := tc.enc.DecodeInto(make([]uint64, row+1), pt); err == nil {
		t.Error("DecodeInto past the row accepted")
	}

	const stride = 64
	lanes := [][]uint64{randVec(rng, 10, tc.params.T), randVec(rng, stride, tc.params.T), randVec(rng, 1, tc.params.T)}
	if err := tc.enc.EncodeLanes(lanes, stride, pt); err != nil {
		t.Fatal(err)
	}
	for j, want := range lanes {
		got, err := tc.enc.DecodeLane(pt, j, stride, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("lane %d does not round-trip", j)
		}
	}
	if _, err := tc.enc.DecodeLane(pt, row/stride, stride, 1); err == nil {
		t.Error("DecodeLane past the row accepted")
	}
}

// TestSwitchingKeyProjector checks the fact genSwitchingKey relies on:
// the CRT projector P_i = (Q/p_i)·[(Q/p_i)⁻¹ mod p_i] is 1 mod p_i and
// 0 mod every other prime of the basis, so P_i·s' is row i of s'.
func TestSwitchingKeyProjector(t *testing.T) {
	for _, preset := range []string{"PN2048", "PN4096", "PN8192"} {
		params, err := NewParametersFromPreset(preset)
		if err != nil {
			t.Fatal(err)
		}
		for i, pi := range params.QPrimes {
			pb := new(big.Int).SetUint64(pi)
			qi := new(big.Int).Div(params.q, pb)
			proj := new(big.Int).ModInverse(qi, pb)
			proj.Mul(proj, qi)
			for j, pj := range params.QPrimes {
				want := uint64(0)
				if i == j {
					want = 1
				}
				if got := new(big.Int).Mod(proj, new(big.Int).SetUint64(pj)).Uint64(); got != want {
					t.Errorf("%s: P_%d mod p_%d = %d, want %d", preset, i, j, got, want)
				}
			}
		}
	}
}
