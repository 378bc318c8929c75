package bfv

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"porcupine/internal/ring"
)

// TestSeedInvariant holds every exported Evaluator method that writes
// a destination ciphertext, and RecycleCiphertext, to the seed
// invariant: a seeded destination loses its seed, the encoding then
// carries the full c1, and the decoded ciphertext is bit-identical to
// the same operation written into a fresh destination (so it decrypts
// to the modified value, not to what the seed expands to). The table
// is checked against the method set, so a new *Into method cannot skip
// it.
func TestSeedInvariant(t *testing.T) {
	tc := newTestContext(t, []int{1})
	params, ev := tc.params, tc.ev
	if err := tc.kg.GenGaloisKeysForElements(tc.sk, tc.gks, []uint64{params.ringQ.GaloisElementRowSwap()}); err != nil {
		t.Fatal(err)
	}
	x := tc.encryptVec(t, []uint64{3, 1, 4, 1, 5})
	y := tc.encryptVec(t, []uint64{2, 7, 1, 8, 2})
	pt, err := tc.enc.EncodeNew([]uint64{9, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	xN := params.NewCiphertext(1)
	ev.NTTInto(xN, x)
	mul, add := params.NewMulPlainNTT(pt), params.NewAddPlainNTT(pt)
	prod, err := ev.Mul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	dec, decN := params.NewDecomposition(), params.NewDecomposition()
	if err := ev.DecomposeForKeySwitch(dec, x); err != nil {
		t.Fatal(err)
	}
	if err := ev.DecomposeForKeySwitchNTT(decN, xN); err != nil {
		t.Fatal(err)
	}
	var br BatchedRotation
	if err := ev.BeginBatchedRotation(&br, 1); err != nil {
		t.Fatal(err)
	}
	lx, ly := params.NewLifted(), params.NewLifted()
	if err := ev.LiftInto(lx, x); err != nil {
		t.Fatal(err)
	}
	if err := ev.LiftInto(ly, y); err != nil {
		t.Fatal(err)
	}
	// Every operation reads only x, y, xN, prod and the prepared state,
	// never the destination, so writing into a fresh ciphertext is the
	// reference for writing into a seeded one.
	ops := map[string]func(dst *Ciphertext) error{
		"AddInto":                     func(d *Ciphertext) error { ev.AddInto(d, x, y); return nil },
		"SubInto":                     func(d *Ciphertext) error { ev.SubInto(d, x, y); return nil },
		"NegInto":                     func(d *Ciphertext) error { ev.NegInto(d, x); return nil },
		"AddPlainInto":                func(d *Ciphertext) error { ev.AddPlainInto(d, x, pt); return nil },
		"SubPlainInto":                func(d *Ciphertext) error { ev.SubPlainInto(d, x, pt); return nil },
		"MulPlainInto":                func(d *Ciphertext) error { ev.MulPlainInto(d, x, pt); return nil },
		"MulInto":                     func(d *Ciphertext) error { return ev.MulInto(d, x, y) },
		"MulLiftedInto":               func(d *Ciphertext) error { ev.MulLiftedInto(d, lx, ly); return nil },
		"RelinearizeInto":             func(d *Ciphertext) error { return ev.RelinearizeInto(d, prod) },
		"MulRelinInto":                func(d *Ciphertext) error { return ev.MulRelinInto(d, x, y) },
		"RotateRowsInto":              func(d *Ciphertext) error { return ev.RotateRowsInto(d, x, 1) },
		"RotateColumnsInto":           func(d *Ciphertext) error { return ev.RotateColumnsInto(d, x) },
		"RotateRowsHoistedInto":       func(d *Ciphertext) error { return ev.RotateRowsHoistedInto(d, x, dec, 1) },
		"NTTInto":                     func(d *Ciphertext) error { ev.NTTInto(d, x); return nil },
		"INTTInto":                    func(d *Ciphertext) error { ev.INTTInto(d, xN); return nil },
		"MulPlainPreparedInto":        func(d *Ciphertext) error { ev.MulPlainPreparedInto(d, x, mul); return nil },
		"MulPlainPreparedIntoNTT":     func(d *Ciphertext) error { ev.MulPlainPreparedIntoNTT(d, x, mul); return nil },
		"MulPlainNTTInto":             func(d *Ciphertext) error { ev.MulPlainNTTInto(d, xN, mul); return nil },
		"MulPlainNTTIntoNTT":          func(d *Ciphertext) error { ev.MulPlainNTTIntoNTT(d, xN, mul); return nil },
		"AddPlainNTTIntoNTT":          func(d *Ciphertext) error { ev.AddPlainNTTIntoNTT(d, xN, add); return nil },
		"SubPlainNTTIntoNTT":          func(d *Ciphertext) error { ev.SubPlainNTTIntoNTT(d, xN, add); return nil },
		"RotateRowsHoistedIntoNTT":    func(d *Ciphertext) error { return ev.RotateRowsHoistedIntoNTT(d, x, dec, 1) },
		"RotateRowsHoistedNTTIntoNTT": func(d *Ciphertext) error { return ev.RotateRowsHoistedNTTIntoNTT(d, xN, decN, 1) },
		"RotateRowsIntoNTT":           func(d *Ciphertext) error { return ev.RotateRowsIntoNTT(d, x, 1) },
		"RotateRowsNTTIntoNTT":        func(d *Ciphertext) error { return ev.RotateRowsNTTIntoNTT(d, xN, 1) },
		"RotateRowsBatchedInto": func(d *Ciphertext) error {
			return ev.RotateRowsBatchedInto(d, x, params.NewDecomposition(), &br)
		},
		"RotateRowsBatchedIntoNTT": func(d *Ciphertext) error {
			return ev.RotateRowsBatchedIntoNTT(d, x, params.NewDecomposition(), &br)
		},
		"RotateRowsBatchedNTTIntoNTT": func(d *Ciphertext) error {
			return ev.RotateRowsBatchedNTTIntoNTT(d, xN, params.NewDecomposition(), &br)
		},
		"RotateRowsSharedInto":       func(d *Ciphertext) error { return ev.RotateRowsSharedInto(d, x, dec, &br) },
		"RotateRowsSharedIntoNTT":    func(d *Ciphertext) error { return ev.RotateRowsSharedIntoNTT(d, x, dec, &br) },
		"RotateRowsSharedNTTIntoNTT": func(d *Ciphertext) error { return ev.RotateRowsSharedNTTIntoNTT(d, xN, decN, &br) },
	}
	evt, ctType := reflect.TypeOf(ev), reflect.TypeOf(x)
	for i := 0; i < evt.NumMethod(); i++ {
		m := evt.Method(i)
		// In(0) is the receiver; an *Into method whose destination is
		// not a ciphertext (LiftInto fills a Lifted) carries no seed.
		if strings.Contains(m.Name, "Into") && m.Type.In(1) == ctType && ops[m.Name] == nil {
			t.Errorf("Evaluator.%s writes a destination but is not in the seed-invariant table", m.Name)
		}
	}

	poly := params.ringQ.PolyWireSize()
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			want := params.NewCiphertext(1)
			if err := op(want); err != nil {
				t.Fatal(err)
			}
			dst := tc.encryptVec(t, []uint64{6, 6, 6})
			if !dst.Seeded() {
				t.Fatal("fresh destination carries no seed")
			}
			if err := op(dst); err != nil {
				t.Fatal(err)
			}
			if dst.Seeded() {
				t.Fatal("destination kept its seed after the write")
			}
			data := params.AppendBinary(nil, dst)
			if full := headerSize + 5 + len(dst.Value)*poly; len(data) != full {
				t.Fatalf("written destination encodes to %d bytes, want the full %d", len(data), full)
			}
			got, err := params.UnmarshalCiphertext(data)
			if err != nil {
				t.Fatal(err)
			}
			if !params.CiphertextEqual(got, want) {
				t.Fatal("round trip differs from the operation's result")
			}
			if !strings.HasSuffix(name, "NTT") && !slices.Equal(tc.decryptVec(got), tc.decryptVec(want)) {
				t.Fatal("round trip decrypts to something other than the modified value")
			}
		})
	}

	t.Run("RecycleCiphertext", func(t *testing.T) {
		ct := tc.encryptVec(t, []uint64{1})
		params.RecycleCiphertext(ct)
		if ct.Seeded() {
			t.Fatal("recycled ciphertext kept its seed")
		}
	})
}

// TestSeedExpansion: the c1 a seed expands to is reproducible from the
// seed alone, differs between seeds, and passes the uniform checks of
// ring's TestSamplerStatistics (every residue below its prime, each
// row's mean within 4σ of half the prime).
func TestSeedExpansion(t *testing.T) {
	params, err := NewParametersFromPreset("PN4096")
	if err != nil {
		t.Fatal(err)
	}
	r := params.ringQ
	var seed [SeedSize]byte
	seed[0] = 1
	a, again := r.NewPoly(), r.NewPoly()
	if err := params.expandSeed(a, &seed); err != nil {
		t.Fatal(err)
	}
	if err := params.expandSeed(again, &seed); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(a, again) {
		t.Fatal("one seed expanded to two polynomials")
	}
	seed[31] = 1
	if err := params.expandSeed(again, &seed); err != nil {
		t.Fatal(err)
	}
	if r.Equal(a, again) {
		t.Fatal("two seeds expanded to one polynomial")
	}
	for _, p := range []*ring.Poly{a, again} {
		for i, pr := range r.Primes {
			var mean float64
			for _, v := range p.Coeffs[i] {
				if v >= pr {
					t.Fatalf("expanded residue %d not below prime %d", v, pr)
				}
				mean += float64(v) / float64(pr)
			}
			if mean /= float64(r.N); math.Abs(mean-0.5) > 4*math.Sqrt(1.0/12/float64(r.N)) {
				t.Errorf("expanded row %d: mean %.4f of the prime, want 0.5", i, mean)
			}
		}
	}
}

// TestEncryptionSeedsDistinct: two encryptions never share a seed, from
// the secure encryptor and from one deterministic test encryptor alike.
func TestEncryptionSeedsDistinct(t *testing.T) {
	tc := newTestContext(t, nil)
	pt, err := tc.enc.EncodeNew([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []*Encryptor{NewEncryptor(tc.params, tc.sk), tc.encr} {
		seen := map[[SeedSize]byte]bool{}
		for i := 0; i < 64; i++ {
			ct, err := enc.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			if seen[ct.seed] {
				t.Fatalf("encryption %d reused a seed", i)
			}
			seen[ct.seed] = true
			tc.params.RecycleCiphertext(ct)
		}
	}
}

// publicKeyEncrypt is the public-key encryption secret-key encryption
// replaced, kept as the noise reference: pk = (−(a·s + e), a), then
// (c0, c1) = (pk0·u + e0 + Δ·m, pk1·u + e1) with a ternary u.
func publicKeyEncrypt(t *testing.T, tc *testContext, pt *Plaintext) *Ciphertext {
	t.Helper()
	r := tc.params.ringQ
	p0, p1, err := tc.kg.lweSample(tc.sk)
	if err != nil {
		t.Fatal(err)
	}
	u, e := r.NewPoly(), r.NewPoly()
	if err := tc.kg.sampler.Ternary(u); err != nil {
		t.Fatal(err)
	}
	r.NTT(u)
	ct := tc.params.NewCiphertext(1)
	r.MulCoeffs(ct.Value[0], p0, u)
	r.MulCoeffs(ct.Value[1], p1, u)
	for _, c := range ct.Value {
		r.INTT(c)
		if err := tc.kg.sampler.Error(e); err != nil {
			t.Fatal(err)
		}
		r.Add(c, c, e)
	}
	deltaTimesPlaintext(tc.params, e, pt)
	r.Add(ct.Value[0], ct.Value[0], e)
	return ct
}

// TestFreshNoiseSecretVsPublicKey: a fresh secret-key ciphertext keeps
// at least the noise budget of the public-key encryption it replaced
// (its noise is one error term, not u·e + e0 + e1·s), at both secure
// presets. The logged medians are the numbers EXPERIMENTS.md records.
func TestFreshNoiseSecretVsPublicKey(t *testing.T) {
	for _, preset := range []string{"PN4096", "PN8192"} {
		tc := presetContext(t, preset, nil)
		pt, err := tc.enc.EncodeNew([]uint64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		var sk, pk []float64
		for i := 0; i < 5; i++ {
			ct, err := tc.encr.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			sk = append(sk, tc.dec.NoiseBudget(ct))
			pk = append(pk, tc.dec.NoiseBudget(publicKeyEncrypt(t, tc, pt)))
		}
		slices.Sort(sk)
		slices.Sort(pk)
		t.Logf("%s fresh noise budget: secret-key %.2f bits, public-key %.2f bits (medians of 5)", preset, sk[2], pk[2])
		if sk[0] < pk[len(pk)-1] {
			t.Errorf("%s: secret-key budget %.1f below public-key %.1f", preset, sk[0], pk[len(pk)-1])
		}
	}
}
