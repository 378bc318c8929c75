package bfv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testContext bundles everything needed for scheme tests.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	gks    *GaloisKeys
	encr   *Encryptor
	dec    *Decryptor
	ev     *Evaluator
}

func newTestContext(t testing.TB, steps []int) *testContext {
	t.Helper()
	return presetContext(t, "PN2048", steps)
}

// presetContext builds a deterministic key set and the keyholder's
// tools for a named preset.
func presetContext(t testing.TB, preset string, steps []int) *testContext {
	t.Helper()
	params, err := NewParametersFromPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewTestKeyGenerator(params, 7)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinearizationKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	gks, err := kg.GenGaloisKeys(sk, steps)
	if err != nil {
		t.Fatal(err)
	}
	return &testContext{
		params: params, enc: enc, kg: kg, sk: sk, pk: pk, rlk: rlk, gks: gks,
		encr: NewTestEncryptor(params, pk, 8),
		dec:  NewDecryptor(params, sk),
		ev:   NewEvaluator(params, rlk, gks),
	}
}

func randVec(rng *rand.Rand, n int, max uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % max
	}
	return v
}

func (tc *testContext) encryptVec(t testing.TB, v []uint64) *Ciphertext {
	t.Helper()
	pt, err := tc.enc.EncodeNew(v)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (tc *testContext) decryptVec(ct *Ciphertext) []uint64 {
	return tc.enc.Decode(tc.dec.Decrypt(ct))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		v := randVec(rng, tc.enc.SlotCount(), tc.params.T)
		pt, err := tc.enc.EncodeNew(v)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.enc.Decode(pt)
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("slot %d: got %d want %d", i, got[i], v[i])
			}
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	tc := newTestContext(t, nil)
	pt := tc.params.NewPlaintext()
	if err := tc.enc.Encode(make([]uint64, tc.enc.SlotCount()+1), pt); err == nil {
		t.Error("oversized vector should fail")
	}
	if err := tc.enc.Encode([]uint64{tc.params.T}, pt); err == nil {
		t.Error("unreduced value should fail")
	}
}

func TestEncodeIntSigned(t *testing.T) {
	tc := newTestContext(t, nil)
	pt := tc.params.NewPlaintext()
	if err := tc.enc.EncodeInt([]int64{-1, -7, 5, 0}, pt); err != nil {
		t.Fatal(err)
	}
	got := tc.enc.DecodeInt(pt)
	want := []int64{-1, -7, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(2))
	v := randVec(rng, tc.enc.SlotCount(), tc.params.T)
	ct := tc.encryptVec(t, v)
	got := tc.decryptVec(ct)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], v[i])
		}
	}
	if budget := tc.dec.NoiseBudget(ct); budget < 20 {
		t.Errorf("fresh noise budget %.1f suspiciously low", budget)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(3))
	n := 64
	a := randVec(rng, n, tc.params.T)
	b := randVec(rng, n, tc.params.T)
	cta, ctb := tc.encryptVec(t, a), tc.encryptVec(t, b)
	sum := tc.decryptVec(tc.ev.Add(cta, ctb))
	diff := tc.decryptVec(tc.ev.Sub(cta, ctb))
	neg := tc.decryptVec(tc.ev.Neg(cta))
	tMod := tc.params.T
	for i := 0; i < n; i++ {
		if sum[i] != (a[i]+b[i])%tMod {
			t.Fatalf("add slot %d: got %d want %d", i, sum[i], (a[i]+b[i])%tMod)
		}
		if diff[i] != (a[i]+tMod-b[i])%tMod {
			t.Fatalf("sub slot %d wrong", i)
		}
		if neg[i] != (tMod-a[i])%tMod {
			t.Fatalf("neg slot %d wrong", i)
		}
	}
}

func TestHomomorphicPlainOps(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(4))
	n := 64
	a := randVec(rng, n, tc.params.T)
	b := randVec(rng, n, 100)
	ct := tc.encryptVec(t, a)
	pt, err := tc.enc.EncodeNew(b)
	if err != nil {
		t.Fatal(err)
	}
	tMod := tc.params.T
	sum := tc.decryptVec(tc.ev.AddPlain(ct, pt))
	diff := tc.decryptVec(tc.ev.SubPlain(ct, pt))
	rdiff := tc.decryptVec(tc.ev.PlainSub(pt, ct))
	prod := tc.decryptVec(tc.ev.MulPlain(ct, pt))
	for i := 0; i < n; i++ {
		if sum[i] != (a[i]+b[i])%tMod {
			t.Fatalf("addplain slot %d wrong", i)
		}
		if diff[i] != (a[i]+tMod-b[i])%tMod {
			t.Fatalf("subplain slot %d wrong", i)
		}
		if rdiff[i] != (b[i]+tMod-a[i])%tMod {
			t.Fatalf("plainsub slot %d wrong", i)
		}
		if prod[i] != a[i]*b[i]%tMod {
			t.Fatalf("mulplain slot %d: got %d want %d", i, prod[i], a[i]*b[i]%tMod)
		}
	}
}

func TestHomomorphicMulRelin(t *testing.T) {
	tc := newTestContext(t, nil)
	rng := rand.New(rand.NewSource(5))
	n := 64
	a := randVec(rng, n, 256)
	b := randVec(rng, n, 256)
	cta, ctb := tc.encryptVec(t, a), tc.encryptVec(t, b)
	ctMul, err := tc.ev.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if ctMul.Degree() != 2 {
		t.Fatalf("tensor degree = %d, want 2", ctMul.Degree())
	}
	// Degree-2 decryption must already be correct.
	got2 := tc.decryptVec(ctMul)
	tMod := tc.params.T
	for i := 0; i < n; i++ {
		if got2[i] != a[i]*b[i]%tMod {
			t.Fatalf("degree-2 mul slot %d: got %d want %d", i, got2[i], a[i]*b[i]%tMod)
		}
	}
	ctRelin, err := tc.ev.Relinearize(ctMul)
	if err != nil {
		t.Fatal(err)
	}
	if ctRelin.Degree() != 1 {
		t.Fatalf("relinearized degree = %d", ctRelin.Degree())
	}
	got := tc.decryptVec(ctRelin)
	for i := 0; i < n; i++ {
		if got[i] != a[i]*b[i]%tMod {
			t.Fatalf("relin mul slot %d: got %d want %d", i, got[i], a[i]*b[i]%tMod)
		}
	}
	if budget := tc.dec.NoiseBudget(ctRelin); budget <= 0 {
		t.Error("noise budget exhausted after one multiplication")
	}
}

func TestRotateRows(t *testing.T) {
	tc := newTestContext(t, []int{1, 2, -1, 5})
	slots := tc.enc.SlotCount()
	v := make([]uint64, slots)
	for i := range v {
		v[i] = uint64(i % 1000)
	}
	ct := tc.encryptVec(t, v)
	for _, k := range []int{1, 2, -1, 5} {
		rot, err := tc.ev.RotateRows(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		got := tc.decryptVec(rot)
		for i := 0; i < slots; i++ {
			src := ((i+k)%slots + slots) % slots
			if got[i] != v[src] {
				t.Fatalf("rotate %d: slot %d got %d want %d (left-rotation convention)", k, i, got[i], v[src])
			}
		}
	}
	// Rotation by 0 is identity and needs no key.
	rot0, err := tc.ev.RotateRows(ct, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.decryptVec(rot0)
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("rotation by 0 not identity")
		}
	}
}

func TestRotateMissingKey(t *testing.T) {
	tc := newTestContext(t, []int{1})
	ct := tc.encryptVec(t, []uint64{1, 2, 3})
	if _, err := tc.ev.RotateRows(ct, 3); err == nil {
		t.Error("rotation without key should fail")
	}
	ev := NewEvaluator(tc.params, nil, nil)
	if _, err := ev.RotateRows(ct, 1); err == nil {
		t.Error("rotation with nil keys should fail")
	}
	ctM, _ := tc.ev.Mul(ct, ct)
	if _, err := ev.Relinearize(ctM); err == nil {
		t.Error("relinearize with nil key should fail")
	}
}

func TestRotateColumns(t *testing.T) {
	tc := newTestContext(t, nil)
	if err := tc.kg.GenGaloisKeysForElements(tc.sk, tc.gks, []uint64{tc.params.ringQ.GaloisElementRowSwap()}); err != nil {
		t.Fatal(err)
	}
	v := []uint64{10, 20, 30}
	ct := tc.encryptVec(t, v)
	swapped, err := tc.ev.RotateColumns(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 held v, row 1 held zeros; after the swap row 0 is zero.
	got := tc.decryptVec(swapped)
	for i := 0; i < 3; i++ {
		if got[i] != 0 {
			t.Fatalf("after row swap slot %d = %d, want 0", i, got[i])
		}
	}
	// Swapping twice is the identity.
	back, err := tc.ev.RotateColumns(swapped)
	if err != nil {
		t.Fatal(err)
	}
	got = tc.decryptVec(back)
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("double row swap not identity")
		}
	}
}

func TestDepthTwoMultiplication(t *testing.T) {
	tc := newTestContext(t, nil)
	a := []uint64{3, 5, 7}
	ct := tc.encryptVec(t, a)
	sq, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := tc.ev.MulRelin(sq, sq)
	if err != nil {
		t.Fatal(err)
	}
	budget := tc.dec.NoiseBudget(quad)
	if budget <= 0 {
		t.Fatalf("budget exhausted at depth 2 on PN2048 (budget=%.1f)", budget)
	}
	got := tc.decryptVec(quad)
	tMod := tc.params.T
	for i, v := range a {
		want := v * v % tMod
		want = want * want % tMod
		if got[i] != want {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want)
		}
	}
}

func TestNoiseBudgetDecreasesMonotonically(t *testing.T) {
	tc := newTestContext(t, []int{1})
	ct := tc.encryptVec(t, []uint64{1, 2, 3, 4})
	b0 := tc.dec.NoiseBudget(ct)
	ctRot, err := tc.ev.RotateRows(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1 := tc.dec.NoiseBudget(ctRot)
	ctMul, err := tc.ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	b2 := tc.dec.NoiseBudget(ctMul)
	if b1 > b0 {
		t.Errorf("rotation increased budget: %.1f -> %.1f", b0, b1)
	}
	if b2 > b0-5 {
		t.Errorf("multiplication consumed almost no budget: fresh %.1f, mul %.1f", b0, b2)
	}
}

func TestAddHomomorphismProperty(t *testing.T) {
	tc := newTestContext(t, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		a := randVec(rng, n, tc.params.T)
		b := randVec(rng, n, tc.params.T)
		got := tc.decryptVec(tc.ev.Add(tc.encryptVec(t, a), tc.encryptVec(t, b)))
		for i := 0; i < n; i++ {
			if got[i] != (a[i]+b[i])%tc.params.T {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestParameterPresets(t *testing.T) {
	for name, wantSecure := range map[string]bool{"PN2048": false, "PN4096": true, "PN8192": true} {
		p, err := NewParametersFromPreset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Secure() != wantSecure {
			t.Errorf("%s: secure = %v", name, p.Secure())
		}
		if p.Name() != name {
			t.Errorf("%s: name = %s", name, p.Name())
		}
		if p.SlotCount() != p.N/2 {
			t.Errorf("%s: slot count", name)
		}
	}
	if _, err := NewParametersFromPreset("PN123"); err == nil {
		t.Error("unknown preset should fail")
	}
	if _, err := NewParameters(7, 40, 1); err == nil {
		t.Error("bad degree should fail")
	}
	// Security bounds per HE standard: N=4096 allows logQ ≤ 109.
	p4, _ := NewParametersFromPreset("PN4096")
	if p4.LogQ() > 109 {
		t.Errorf("PN4096 logQ = %d exceeds 109-bit standard bound", p4.LogQ())
	}
	p8, _ := NewParametersFromPreset("PN8192")
	if p8.LogQ() > 218 {
		t.Errorf("PN8192 logQ = %d exceeds 218-bit standard bound", p8.LogQ())
	}
}

func TestMulRejectsHighDegree(t *testing.T) {
	tc := newTestContext(t, nil)
	ct := tc.encryptVec(t, []uint64{1})
	d2, err := tc.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ev.Mul(d2, ct); err == nil {
		t.Error("Mul on degree-2 input should fail")
	}
	if _, err := tc.ev.RotateRows(d2, 1); err == nil {
		t.Error("rotation of degree-2 ciphertext should fail")
	}
}
