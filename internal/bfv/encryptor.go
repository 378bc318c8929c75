package bfv

import (
	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// Encryptor encrypts plaintexts under a public key. It holds no
// per-call state (scratch comes from the ring pool, randomness from a
// concurrency-safe sampler), so one Encryptor serves any number of
// goroutines.
type Encryptor struct {
	params  *Parameters
	pk      *PublicKey
	sampler *ring.Sampler
}

// NewEncryptor returns an encryptor using secure randomness.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewSampler(params.ringQ)}
}

// NewTestEncryptor returns a deterministic encryptor for tests.
func NewTestEncryptor(params *Parameters, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, pk: pk, sampler: ring.NewTestSampler(params.ringQ, seed)}
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

// Encrypt encrypts pt into a fresh degree-1 ciphertext:
// (c0, c1) = (p0·u + e0 + Δ·m, p1·u + e1). The cost is three draws of
// the sampler, one forward and two inverse NTTs; the only allocation
// is the returned ciphertext.
func (enc *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	r := enc.params.ringQ
	// tmp holds u, then e0, then e1, then Δ·m.
	tmp := r.GetPolyNoZero()
	defer r.PutPoly(tmp)
	if err := enc.sampler.Ternary(tmp); err != nil {
		return nil, err
	}
	r.NTT(tmp)
	ct := enc.params.NewCiphertextUninit(1)
	c0, c1 := ct.Value[0], ct.Value[1]
	r.MulCoeffs(c0, enc.pk.P0Ntt, tmp)
	r.MulCoeffs(c1, enc.pk.P1Ntt, tmp)
	r.INTT(c0)
	r.INTT(c1)
	for _, c := range ct.Value {
		if err := enc.sampler.Error(tmp); err != nil {
			enc.params.RecycleCiphertext(ct)
			return nil, err
		}
		r.Add(c, c, tmp)
	}
	deltaTimesPlaintext(enc.params, tmp, pt)
	r.Add(c0, c0, tmp)
	return ct, nil
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
