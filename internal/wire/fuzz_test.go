package wire_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
	"porcupine/internal/wire"
)

// wireErrors are the typed error classes every decode failure must
// match.
var wireErrors = []error{
	wire.ErrMagic, wire.ErrVersion, wire.ErrTag, wire.ErrTruncated,
	wire.ErrChecksum, wire.ErrFingerprint, wire.ErrInvalid,
}

// fuzzKeyholder is a keyholder for fuzzing: parameters, a fresh
// (seeded) and an evaluated (unseeded) ciphertext.
type fuzzKeyholder struct {
	params       *bfv.Parameters
	seeded, full *bfv.Ciphertext
}

// fuzzKeyholders builds keyholders with the residue widths of both
// secure presets — 36-bit rows as in PN4096, 43-bit rows as in PN8192 —
// at ring degree 32, so that an input is a few hundred bytes and the
// fuzzer's executions and minimizations stay cheap.
func fuzzKeyholders(f *testing.F) []fuzzKeyholder {
	f.Helper()
	var khs []fuzzKeyholder
	for i, shape := range []struct{ bits, primes int }{{36, 3}, {43, 5}} {
		params, err := bfv.NewParameters(32, shape.bits, shape.primes)
		if err != nil {
			f.Fatal(err)
		}
		sk, err := bfv.NewTestKeyGenerator(params, int64(31+i)).GenSecretKey()
		if err != nil {
			f.Fatal(err)
		}
		pt := params.NewPlaintext()
		for j := range pt.Coeffs {
			pt.Coeffs[j] = uint64(j * j)
		}
		seeded, err := bfv.NewTestEncryptor(params, sk, int64(37+i)).Encrypt(pt)
		if err != nil {
			f.Fatal(err)
		}
		full := bfv.NewEvaluator(params, nil, nil).Add(seeded, seeded)
		if !seeded.Seeded() || full.Seeded() {
			f.Fatal("fixture ciphertexts do not cover both encodings")
		}
		khs = append(khs, fuzzKeyholder{params, seeded, full})
	}
	return khs
}

// fuzzDecode decodes data with every keyholder's parameters, and again
// with its checksum recomputed so mutations reach the validation behind
// it. A decode fails only with a typed error, and one that succeeds
// re-encodes to the same bytes.
func fuzzDecode(t *testing.T, khs []fuzzKeyholder, data []byte, decode func(*bfv.Parameters, []byte) ([]byte, error)) {
	resigned := append([]byte(nil), data...)
	if len(resigned) >= sha256.Size {
		sum := sha256.Sum256(resigned[:len(resigned)-sha256.Size])
		copy(resigned[len(resigned)-sha256.Size:], sum[:])
	}
	for _, d := range [][]byte{data, resigned} {
		for _, kh := range khs {
			again, err := decode(kh.params, d)
			if err != nil {
				typed := false
				for _, class := range wireErrors {
					typed = typed || errors.Is(err, class)
				}
				if !typed {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			if !bytes.Equal(again, d) {
				t.Fatalf("decoded object re-encodes to %d different bytes (input %d)", len(again), len(d))
			}
		}
	}
}

// FuzzDecodeRequest holds DecodeRequest to its contract on arbitrary
// bytes: no panic, typed errors only, and byte-identical re-encoding of
// whatever decodes. The corpus starts from valid requests with seeded
// and unseeded ciphertexts at both row widths, with and without
// plaintext inputs.
func FuzzDecodeRequest(f *testing.F) {
	khs := fuzzKeyholders(f)
	for _, kh := range khs {
		for _, req := range []*wire.Request{
			{CtIn: []*bfv.Ciphertext{kh.seeded}},
			{CtIn: []*bfv.Ciphertext{kh.full}},
			{CtIn: []*bfv.Ciphertext{kh.seeded, kh.full}, PtIn: []quill.Vec{{5, 6, 7}}},
		} {
			data, err := wire.EncodeRequest(kh.params, req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, khs, data, func(params *bfv.Parameters, d []byte) ([]byte, error) {
			req, err := wire.DecodeRequest(params, d)
			if err != nil {
				return nil, err
			}
			defer func() {
				for _, ct := range req.CtIn {
					params.RecycleCiphertext(ct)
				}
			}()
			return wire.EncodeRequest(params, req)
		})
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest's sibling for responses.
func FuzzDecodeResponse(f *testing.F) {
	khs := fuzzKeyholders(f)
	for _, kh := range khs {
		for _, ct := range []*bfv.Ciphertext{kh.full, kh.seeded} {
			data, err := wire.EncodeResponse(kh.params, ct)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, khs, data, func(params *bfv.Parameters, d []byte) ([]byte, error) {
			ct, err := wire.DecodeResponse(params, d)
			if err != nil {
				return nil, err
			}
			defer params.RecycleCiphertext(ct)
			return wire.EncodeResponse(params, ct)
		})
	})
}
