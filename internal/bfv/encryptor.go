package bfv

import (
	"crypto/aes"
	"crypto/cipher"

	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// SeedSize is the size in bytes of the seed a fresh ciphertext's c1
// is expanded from.
const SeedSize = 32

// Encryptor encrypts plaintexts under the secret key. It holds no
// per-call state (scratch comes from the ring pool, randomness from a
// concurrency-safe sampler), so one Encryptor serves any number of
// goroutines.
type Encryptor struct {
	params  *Parameters
	sk      *SecretKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor using secure randomness.
func NewEncryptor(params *Parameters, sk *SecretKey) *Encryptor {
	return &Encryptor{params: params, sk: sk, sampler: ring.NewSampler(params.ringQ)}
}

// NewTestEncryptor returns a deterministic encryptor for tests.
func NewTestEncryptor(params *Parameters, sk *SecretKey, seed int64) *Encryptor {
	return &Encryptor{params: params, sk: sk, sampler: ring.NewTestSampler(params.ringQ, seed)}
}

// deltaTimesPlaintext writes Δ·m (lifted to R_Q) into dst. The
// multiplicand Δ mod p_i is fixed per prime, so a precomputed Shoup
// constant (which accepts an arbitrary 64-bit cofactor) replaces the
// division-based MulMod.
func deltaTimesPlaintext(params *Parameters, dst *ring.Poly, pt *Plaintext) {
	r := params.ringQ
	for i, p := range r.Primes {
		d, dS := params.deltaQi[i], params.deltaQS[i]
		di := dst.Coeffs[i]
		for j, m := range pt.Coeffs {
			di[j] = mathutil.ShoupMul(m, d, dS, p)
		}
	}
}

// Encrypt encrypts pt into a fresh degree-1 secret-key ciphertext
// (c0, c1) = (−a·s + e + Δ·m, a), where a is what a fresh seed expands
// to (expandSeed); the ciphertext keeps the seed, so it encodes as c0
// and the seed. Seed and e come from the encryptor's source, never e
// from the seed. Cost: a seed expansion, an error draw, one NTT and one
// INTT; the only allocation is the returned ciphertext.
func (enc *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	params := enc.params
	r := params.ringQ
	ct := params.NewCiphertextUninit(1)
	c0, a := ct.Value[0], ct.Value[1]
	e := r.GetPolyNoZero()
	defer r.PutPoly(e)
	err := enc.sampler.Bytes(ct.seed[:])
	if err == nil {
		err = params.expandSeed(a, &ct.seed)
	}
	if err == nil {
		err = enc.sampler.Error(e)
	}
	if err != nil {
		params.RecycleCiphertext(ct)
		return nil, err
	}
	r.CopyInto(c0, a)
	r.NTT(c0)
	r.MulCoeffs(c0, c0, enc.sk.SNtt)
	r.INTT(c0)
	r.Sub(c0, e, c0)
	deltaTimesPlaintext(params, e, pt)
	r.Add(c0, c0, e)
	ct.seeded = true
	return ct, nil
}

// expandSeed writes into a the uniform polynomial seed expands to: the
// sampler's uniform draw over the AES-256-CTR keystream under the seed
// (zero IV), which encryptor and decoders alike reproduce bit for bit.
func (p *Parameters) expandSeed(a *ring.Poly, seed *[SeedSize]byte) error {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		return err
	}
	var iv [aes.BlockSize]byte
	return p.expander.UniformFrom(a, keystream{cipher.NewCTR(block, iv[:])})
}

// keystream reads a stream cipher's keystream.
type keystream struct{ cipher.Stream }

func (k keystream) Read(b []byte) (int, error) {
	clear(b)
	k.XORKeyStream(b, b)
	return len(b), nil
}

// Decryptor decrypts ciphertexts with the secret key and measures
// their remaining noise budget. Like Encryptor it is stateless and
// safe for concurrent use.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// phase computes c0 + c1·s + c2·s² + ... in the coefficient domain,
// into a polynomial of the ring pool the caller must PutPoly. The
// powers of s are applied by Horner's rule in the NTT domain: one
// forward NTT per c_d (d ≥ 1) and one inverse NTT in all.
func (dec *Decryptor) phase(ct *Ciphertext) *ring.Poly {
	r := dec.params.ringQ
	acc := r.GetPolyNoZero()
	top := len(ct.Value) - 1
	r.CopyInto(acc, ct.Value[top])
	if top == 0 {
		return acc
	}
	r.NTT(acc)
	if top > 1 {
		tmp := r.GetPolyNoZero()
		for d := top - 1; d >= 1; d-- {
			r.MulCoeffs(acc, acc, dec.sk.SNtt)
			r.CopyInto(tmp, ct.Value[d])
			r.NTT(tmp)
			r.Add(acc, acc, tmp)
		}
		r.PutPoly(tmp)
	}
	r.MulCoeffs(acc, acc, dec.sk.SNtt)
	r.INTT(acc)
	r.Add(acc, acc, ct.Value[0])
	return acc
}

// Decrypt recovers the plaintext: m_j = round(t·v_j / Q) mod t where
// v = c0 + c1·s (+ higher powers for unrelinearized ciphertexts).
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	pt := dec.params.NewPlaintext()
	dec.DecryptInto(pt, ct)
	return pt
}

// DecryptInto is Decrypt into a caller-supplied plaintext (every
// coefficient is overwritten). The rounding is exact word arithmetic
// over the RNS residues (ring.BasisExtender.RoundToPlaintext); with
// the phase in pooled scratch, a call allocates nothing.
func (dec *Decryptor) DecryptInto(pt *Plaintext, ct *Ciphertext) {
	v := dec.phase(ct)
	dec.params.extender.RoundToPlaintext(pt.Coeffs, v)
	dec.params.ringQ.PutPoly(v)
}
