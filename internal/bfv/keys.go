package bfv

import (
	"fmt"

	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// SecretKey is a ternary secret s, stored in both coefficient and NTT
// domains.
type SecretKey struct {
	S    *ring.Poly // coefficient domain
	SNtt *ring.Poly // NTT domain
}

// PublicKey is an LWE encryption of zero: (p0, p1) = (-(a·s+e), a),
// stored in the NTT domain for fast encryption.
type PublicKey struct {
	P0Ntt, P1Ntt *ring.Poly
}

// switchingKey holds one key-switching key: per Q-prime i a pair
// (b_i, a_i) with b_i = -(a_i·s + e_i) + P_i·s', where P_i is the CRT
// projector (P_i ≡ 1 mod p_i, ≡ 0 mod p_j). Both stored in NTT domain.
type switchingKey struct {
	B, A []*ring.Poly
}

// RelinearizationKey switches s² back to s after ciphertext
// multiplication.
type RelinearizationKey struct {
	key *switchingKey
}

// GaloisKeys holds key-switching keys for a set of Galois elements,
// enabling slot rotations.
type GaloisKeys struct {
	keys map[uint64]*switchingKey
}

// Steps returns whether a key for the Galois element g is present.
func (gk *GaloisKeys) has(g uint64) bool {
	_, ok := gk.keys[g]
	return ok
}

// HasElement reports whether a key for the Galois element g is
// present (g = Parameters.GaloisElement(step) for slot rotations).
func (gk *GaloisKeys) HasElement(g uint64) bool { return gk.has(g) }

// Elements returns the Galois elements the key set covers, sorted.
func (gk *GaloisKeys) Elements() []uint64 {
	out := make([]uint64, 0, len(gk.keys))
	for g := range gk.keys {
		out = append(out, g)
	}
	sortU64(out)
	return out
}

// KeyGenerator produces the key material for a parameter set.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator returns a generator using cryptographically secure
// randomness.
func NewKeyGenerator(params *Parameters) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.ringQ)}
}

// NewTestKeyGenerator returns a deterministic generator for tests.
func NewTestKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewTestSampler(params.ringQ, seed)}
}

// GenSecretKey samples a fresh ternary secret key.
func (kg *KeyGenerator) GenSecretKey() (*SecretKey, error) {
	r := kg.params.ringQ
	s := r.NewPoly()
	if err := kg.sampler.Ternary(s); err != nil {
		return nil, err
	}
	sNtt := r.Copy(s)
	r.NTT(sNtt)
	return &SecretKey{S: s, SNtt: sNtt}, nil
}

// lweSample returns a fresh NTT-domain pair (b, a) = (-(a·s + e), a).
// a is sampled directly in the NTT domain — the transform is a
// bijection of R_Q, so a uniform evaluation vector is a uniform
// polynomial — which leaves the error as the only forward NTT.
func (kg *KeyGenerator) lweSample(sk *SecretKey) (b, a *ring.Poly, err error) {
	r := kg.params.ringQ
	a = r.NewPoly()
	if err := kg.sampler.Uniform(a); err != nil {
		return nil, nil, err
	}
	b = r.NewPoly()
	if err := kg.sampler.Error(b); err != nil {
		return nil, nil, err
	}
	r.NTT(b)
	r.MulCoeffsAndAdd(b, a, sk.SNtt)
	r.Neg(b, b)
	return b, a, nil
}

// GenPublicKey derives a public key from sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) (*PublicKey, error) {
	p0, p1, err := kg.lweSample(sk)
	if err != nil {
		return nil, err
	}
	return &PublicKey{P0Ntt: p0, P1Ntt: p1}, nil
}

// genSwitchingKey builds a key switching sPrimeNtt (NTT domain) to sk.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrimeNtt *ring.Poly) (*switchingKey, error) {
	r := kg.params.ringQ
	k := len(r.Primes)
	swk := &switchingKey{B: make([]*ring.Poly, k), A: make([]*ring.Poly, k)}
	for i, p := range r.Primes {
		b, a, err := kg.lweSample(sk)
		if err != nil {
			return nil, err
		}
		// b += P_i·s'. The CRT projector P_i = (Q/p_i)·[(Q/p_i)⁻¹]_{p_i}
		// is 1 mod p_i and 0 mod every other prime, so in RNS form the
		// product is row i of s' and nothing else.
		bi, si := b.Coeffs[i], sPrimeNtt.Coeffs[i]
		for j := range bi {
			bi[j] = mathutil.AddMod(bi[j], si[j], p)
		}
		swk.B[i], swk.A[i] = b, a
	}
	return swk, nil
}

// GenRelinearizationKey builds the key for relinearizing degree-2
// ciphertexts (switching s² to s).
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) (*RelinearizationKey, error) {
	r := kg.params.ringQ
	s2 := r.NewPoly()
	r.MulCoeffs(s2, sk.SNtt, sk.SNtt)
	key, err := kg.genSwitchingKey(sk, s2)
	if err != nil {
		return nil, err
	}
	return &RelinearizationKey{key: key}, nil
}

// GenGaloisKeys builds rotation keys for the given slot rotation steps
// (positive = left). Steps are taken over the N/2-slot row.
func (kg *KeyGenerator) GenGaloisKeys(sk *SecretKey, steps []int) (*GaloisKeys, error) {
	r := kg.params.ringQ
	gks := &GaloisKeys{keys: make(map[uint64]*switchingKey)}
	for _, step := range steps {
		g := r.GaloisElementForRotation(step)
		if g == 1 {
			continue // rotation by 0 needs no key
		}
		if _, ok := gks.keys[g]; ok {
			continue
		}
		key, err := kg.genGaloisKey(sk, g)
		if err != nil {
			return nil, err
		}
		gks.keys[g] = key
	}
	return gks, nil
}

// GenGaloisKeysForElements builds keys for explicit Galois elements
// (used for the row-swap element 2N-1).
func (kg *KeyGenerator) GenGaloisKeysForElements(sk *SecretKey, gks *GaloisKeys, elements []uint64) error {
	for _, g := range elements {
		if g == 1 {
			continue
		}
		if _, ok := gks.keys[g]; ok {
			continue
		}
		key, err := kg.genGaloisKey(sk, g)
		if err != nil {
			return err
		}
		gks.keys[g] = key
	}
	return nil
}

func (kg *KeyGenerator) genGaloisKey(sk *SecretKey, g uint64) (*switchingKey, error) {
	r := kg.params.ringQ
	if g%2 == 0 {
		return nil, fmt.Errorf("bfv: galois element %d is not a unit mod 2N", g)
	}
	sG := r.NewPoly()
	r.Automorphism(sG, sk.S, g)
	r.NTT(sG)
	return kg.genSwitchingKey(sk, sG)
}
