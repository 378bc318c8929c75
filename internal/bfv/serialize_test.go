package bfv

import (
	"bytes"
	"testing"
)

func TestParametersSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	restored, err := UnmarshalParameters(tc.params.AppendBinary(nil, tc.params))
	if err != nil {
		t.Fatal(err)
	}
	if restored.N != tc.params.N || len(restored.QPrimes) != len(tc.params.QPrimes) {
		t.Error("parameters round trip lost data")
	}
	for i := range restored.QPrimes {
		if restored.QPrimes[i] != tc.params.QPrimes[i] {
			t.Error("prime basis mismatch")
		}
	}
	if restored.Q().Cmp(tc.params.Q()) != 0 {
		t.Error("derived modulus mismatch")
	}
}

// TestCiphertextSerializationRoundTrip: a fresh ciphertext travels
// seeded (c0 and the seed, about half the bytes of both polynomials),
// decodes into the identical ciphertext with its seed kept, and
// re-encodes byte for byte.
func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, []int{1})
	v := []uint64{11, 22, 33, 44}
	ct := tc.encryptVec(t, v)
	if !ct.Seeded() {
		t.Fatal("fresh encryption carries no seed")
	}
	data := tc.params.AppendBinary(nil, ct)
	poly := tc.params.ringQ.PolyWireSize()
	if want := headerSize + 5 + SeedSize + poly; len(data) != want || len(data) != tc.params.BinarySize(ct) {
		t.Fatalf("seeded ciphertext encodes to %d bytes (BinarySize %d), want %d", len(data), tc.params.BinarySize(ct), want)
	}
	restored, err := tc.params.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Seeded() || !tc.params.CiphertextEqual(restored, ct) {
		t.Fatal("seeded round trip did not reproduce the ciphertext and its seed")
	}
	if again := tc.params.AppendBinary(nil, restored); !bytes.Equal(again, data) {
		t.Fatal("decoded ciphertext re-encodes differently")
	}
	got := tc.decryptVec(restored)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], v[i])
		}
	}
	// The restored ciphertext is fully functional: rotate it.
	rot, err := tc.ev.RotateRows(restored, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tc.decryptVec(rot)[0] != v[1] {
		t.Error("restored ciphertext broken after rotation")
	}
	if rot.Seeded() {
		t.Error("evaluated ciphertext claims a seed")
	}
	if n := tc.params.BinarySize(rot); n != headerSize+5+2*poly {
		t.Errorf("unseeded ciphertext sized at %d bytes, want %d", n, headerSize+5+2*poly)
	}
}

func TestDegree2CiphertextSerialization(t *testing.T) {
	tc := newTestContext(t, nil)
	ct := tc.encryptVec(t, []uint64{5})
	d2, err := tc.ev.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := tc.params.UnmarshalCiphertext(tc.params.AppendBinary(nil, d2))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", restored.Degree())
	}
	if tc.decryptVec(restored)[0] != 25 {
		t.Error("degree-2 round trip wrong")
	}
}

func TestPlaintextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, nil)
	pt, err := tc.enc.EncodeNew([]uint64{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	data := tc.params.AppendBinary(nil, pt)
	if want := headerSize + 4 + tc.params.N*17/8; len(data) != want {
		t.Fatalf("plaintext encodes to %d bytes, want %d (17 bits per coefficient)", len(data), want)
	}
	restored, err := tc.params.UnmarshalPlaintext(data)
	if err != nil {
		t.Fatal(err)
	}
	dec := tc.enc.Decode(restored)
	if dec[0] != 7 || dec[1] != 8 || dec[2] != 9 {
		t.Error("plaintext round trip wrong")
	}
}

func TestEvaluationKeySerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, []int{1, 2})

	rlkData := tc.params.AppendBinary(nil, tc.rlk)
	rlk, err := tc.params.UnmarshalRelinearizationKey(rlkData)
	if err != nil {
		t.Fatal(err)
	}
	gkData := tc.params.AppendBinary(nil, tc.gks)
	gks, err := tc.params.UnmarshalGaloisKeys(gkData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tc.params.AppendBinary(nil, rlk), rlkData) || !bytes.Equal(tc.params.AppendBinary(nil, gks), gkData) {
		t.Fatal("decoded keys re-encode differently")
	}

	// A full pipeline with only deserialized key material.
	enc := NewTestEncryptor(tc.params, tc.sk, 99)
	ev := NewEvaluator(tc.params, rlk, gks)
	pt, err := tc.enc.EncodeNew([]uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := ev.RotateRows(sq, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.decryptVec(rot)
	if got[0] != 16 { // (slot 1 of squared vector) = 4²
		t.Errorf("pipeline with deserialized keys: got %d, want 16", got[0])
	}
}

func TestSerializationRejectsCorruption(t *testing.T) {
	tc := newTestContext(t, nil)
	ct := tc.encryptVec(t, []uint64{1})
	data := tc.params.AppendBinary(nil, ct)
	full := tc.params.AppendBinary(nil, tc.ev.Add(ct, ct))
	flag := headerSize + 4 // the seeded byte follows the polynomial count
	edit := func(d []byte, at int, b byte) []byte {
		d = append([]byte(nil), d...)
		d[at] = b
		return d
	}
	cases := map[string][]byte{
		"empty":              {},
		"bad magic":          append([]byte("XXXX"), data[4:]...),
		"bad ver":            append([]byte("PBFV\x02"), data[5:]...),
		"wrong tag":          append([]byte("PBFV\x03\x01"), data[6:]...),
		"truncated":          data[:len(data)/2],
		"trailing":           append(append([]byte{}, data...), 0),
		"seed flag 2":        edit(data, flag, 2),
		"seeded, 3 polys":    edit(data, headerSize, 3),
		"seed flag unseeded": edit(full, flag, 1),
		"seed flag cleared":  edit(data, flag, 0),
		"no polys":           edit(full, headerSize, 0),
	}
	for name, d := range cases {
		if _, err := tc.params.UnmarshalCiphertext(d); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	if _, err := UnmarshalParameters(data); err == nil {
		t.Error("ciphertext bytes accepted as parameters")
	}
}
