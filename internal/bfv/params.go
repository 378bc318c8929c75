// Package bfv implements the Brakerski/Fan-Vercauteren homomorphic
// encryption scheme over the ring R_Q = Z_Q[X]/(X^N+1): batching
// encoder, key generation (secret, public, relinearization and Galois
// keys), encryption, decryption, and the homomorphic evaluator with
// SIMD add/sub/multiply and slot rotation.
//
// It plays the role Microsoft SEAL v3.5 plays in the Porcupine paper:
// the concrete cryptographic backend that lowered Quill kernels
// execute on. Ciphertext multiplication is textbook-exact: the tensor
// product is computed over the integers in an extended RNS basis and
// scaled by t/Q with correct rounding via CRT reconstruction.
package bfv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync"

	"porcupine/internal/mathutil"
	"porcupine/internal/ring"
)

// PlaintextModulus is the plaintext modulus t used throughout this
// repository. 65537 is a Fermat prime with t ≡ 1 (mod 2N) for every
// N ≤ 32768, so batching is available at all supported ring degrees.
const PlaintextModulus uint64 = 65537

// Parameters bundles a BFV parameter set with all precomputed tables.
type Parameters struct {
	N int    // ring degree (power of two)
	T uint64 // plaintext modulus, prime, ≡ 1 mod 2N

	QPrimes []uint64 // RNS basis of the ciphertext modulus Q

	ringQ    *ring.Ring          // R_Q
	ringExt  *ring.Ring          // extended basis for exact tensor products
	extLen   int                 // number of primes in the extended basis
	extender *ring.BasisExtender // pure-RNS Q↔ext conversions for Mul

	q       *big.Int // Q = ∏ QPrimes
	delta   *big.Int // Δ = floor(Q/t)
	deltaQi []uint64 // Δ mod p_i
	deltaQS []uint64 // Shoup companions of deltaQi

	// ptPool recycles plaintext scratch (see GetPlaintext).
	ptPool sync.Pool

	secure bool // true when the preset meets the 128-bit HE standard
	name   string
}

// presetSpec describes a named parameter preset.
type presetSpec struct {
	name   string
	n      int
	qBits  int
	qCount int
	secure bool
}

var presets = map[string]presetSpec{
	// PN2048 is for unit tests only: small and fast, NOT 128-bit secure
	// (Q is far above the standard bound for N=2048; it exists to give
	// tests multiplicative depth ≥ 2 at low cost).
	"PN2048": {name: "PN2048", n: 2048, qBits: 40, qCount: 3, secure: false},
	// PN4096: Q ≈ 108 bits ≤ the HE-standard 109-bit bound for N=4096.
	"PN4096": {name: "PN4096", n: 4096, qBits: 36, qCount: 3, secure: true},
	// PN8192: Q ≈ 215 bits ≤ the HE-standard 218-bit bound for N=8192.
	"PN8192": {name: "PN8192", n: 8192, qBits: 43, qCount: 5, secure: true},
}

// NewParametersFromPreset builds one of the named presets: PN2048
// (tests only), PN4096 (128-bit secure, multiplicative depth ≈ 2) or
// PN8192 (128-bit secure, multiplicative depth ≈ 5).
func NewParametersFromPreset(name string) (*Parameters, error) {
	spec, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("bfv: unknown preset %q", name)
	}
	p, err := NewParameters(spec.n, spec.qBits, spec.qCount)
	if err != nil {
		return nil, err
	}
	p.secure = spec.secure
	p.name = spec.name
	return p, nil
}

// NewParameters constructs a BFV parameter set with ring degree n and a
// ciphertext modulus of qCount primes of qBits bits each. The plaintext
// modulus is fixed to PlaintextModulus.
func NewParameters(n, qBits, qCount int) (*Parameters, error) {
	if n < 16 || n > 32768 {
		return nil, fmt.Errorf("bfv: ring degree %d out of supported range [16, 32768]", n)
	}
	qPrimes, err := mathutil.GenerateNTTPrimes(qBits, n, qCount)
	if err != nil {
		return nil, fmt.Errorf("bfv: generating ciphertext primes: %w", err)
	}
	return newParameters(n, qPrimes)
}

func newParameters(n int, qPrimes []uint64) (*Parameters, error) {
	p := &Parameters{N: n, T: PlaintextModulus, QPrimes: qPrimes, name: "custom"}
	var err error
	p.ringQ, err = ring.NewRing(n, qPrimes)
	if err != nil {
		return nil, err
	}

	p.q = new(big.Int).Set(p.ringQ.Modulus())
	p.delta = new(big.Int).Div(p.q, new(big.Int).SetUint64(p.T))
	p.deltaQi = make([]uint64, len(qPrimes))
	p.deltaQS = make([]uint64, len(qPrimes))
	var tmp, pb big.Int
	for i, pr := range qPrimes {
		pb.SetUint64(pr)
		tmp.Mod(p.delta, &pb)
		p.deltaQi[i] = tmp.Uint64()
		p.deltaQS[i] = mathutil.ShoupPrecomp(p.deltaQi[i], pr)
	}

	// Extended basis for exact tensor products: Q primes plus auxiliary
	// primes so that ∏ext > 2·N·Q² (2× margin over the N·Q²/2 bound on
	// centered tensor coefficients). The extended basis is the hot
	// path's working set, so keep it minimal: prefer the widest aux
	// primes whose magnitude still lets the mixed-radix conversions use
	// branch-free lazy Shoup accumulation (sums of up to K-1 products
	// below 2p each must fit in a 64-bit word).
	bound := new(big.Int).Mul(p.q, p.q)
	bound.Mul(bound, big.NewInt(int64(2*n)))
	extPrimes, err := chooseExtBasis(n, qPrimes, bound)
	if err != nil {
		return nil, err
	}
	p.ringExt, err = ring.NewRing(n, extPrimes)
	if err != nil {
		return nil, err
	}
	p.extLen = len(extPrimes)
	p.extender, err = ring.NewBasisExtender(p.ringQ, p.ringExt, p.T)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SetWorkers bounds the per-operation parallelism of the underlying
// rings (NTT/INTT, pointwise loops and base extension fan out across
// up to w goroutines). w <= 1 means serial execution, the default.
func (p *Parameters) SetWorkers(w int) {
	p.ringQ.SetWorkers(w)
	p.ringExt.SetWorkers(w)
}

// Workers reports the per-operation parallelism currently configured
// on the underlying rings (0 or 1 both mean serial).
func (p *Parameters) Workers() int {
	return p.ringQ.Workers()
}

// chooseExtBasis extends qPrimes with auxiliary NTT primes until the
// product exceeds bound, trying aux bit-sizes from the word-arithmetic
// maximum downward and returning the first (hence smallest-K) basis
// whose largest prime keeps lazy Shoup sums overflow-free. If no
// candidate satisfies the lazy condition, the first assembled basis
// (widest primes, smallest K) is returned; the mixed-radix code then
// falls back to modular sums, which is slower but still exact.
func chooseExtBasis(n int, qPrimes []uint64, bound *big.Int) ([]uint64, error) {
	inQ := make(map[uint64]bool, len(qPrimes))
	maxQ := uint64(0)
	for _, q := range qPrimes {
		inQ[q] = true
		if q > maxQ {
			maxQ = q
		}
	}
	var fallback []uint64
	for bits := mathutil.MaxModulusBits; bits >= 45; bits-- {
		// Generous candidate count; we stop once the product clears bound.
		cand, err := mathutil.GenerateNTTPrimes(bits, n, len(qPrimes)+8)
		if err != nil {
			continue
		}
		ext := append([]uint64(nil), qPrimes...)
		prod := new(big.Int)
		prod.SetUint64(1)
		for _, q := range qPrimes {
			prod.Mul(prod, new(big.Int).SetUint64(q))
		}
		maxP := maxQ
		for _, a := range cand {
			if prod.Cmp(bound) > 0 {
				break
			}
			if inQ[a] {
				continue
			}
			ext = append(ext, a)
			prod.Mul(prod, new(big.Int).SetUint64(a))
			if a > maxP {
				maxP = a
			}
		}
		if prod.Cmp(bound) <= 0 {
			continue // not enough primes at this size
		}
		if fallback == nil {
			fallback = ext
		}
		// Lazy condition: (K-1) products < 2·maxP each must sum within
		// 64 bits.
		k := uint64(len(ext))
		if k >= 2 && maxP <= ^uint64(0)/(2*(k-1)) {
			return ext, nil
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, fmt.Errorf("bfv: could not assemble extended basis for N=%d", n)
}

// RingQ returns the ciphertext ring R_Q.
func (p *Parameters) RingQ() *ring.Ring { return p.ringQ }

// Q returns the ciphertext modulus as a big integer (do not modify).
func (p *Parameters) Q() *big.Int { return p.q }

// Delta returns Δ = floor(Q/t) (do not modify).
func (p *Parameters) Delta() *big.Int { return p.delta }

// SlotCount returns the number of SIMD slots exposed to Quill programs:
// one batching row of N/2 slots, rotated circularly by RotateRows.
func (p *Parameters) SlotCount() int { return p.N / 2 }

// Secure reports whether the preset satisfies the 128-bit
// HomomorphicEncryption.org standard parameter table.
func (p *Parameters) Secure() bool { return p.secure }

// Name returns the preset name ("custom" for NewParameters).
func (p *Parameters) Name() string { return p.name }

// LogQ returns the bit size of the ciphertext modulus.
func (p *Parameters) LogQ() int { return p.q.BitLen() }

// Plaintext is a degree-N polynomial with coefficients modulo t.
// Obtain one from Encoder.EncodeNew or NewPlaintext.
type Plaintext struct {
	Coeffs []uint64
}

// NewPlaintext allocates a zero plaintext for the parameter set.
func (p *Parameters) NewPlaintext() *Plaintext {
	return &Plaintext{Coeffs: make([]uint64, p.N)}
}

// GetPlaintext returns a plaintext from the parameter set's scratch
// pool, allocating one if the pool is empty. Its coefficients are
// stale: use it only as the destination of an operation that writes
// every coefficient (Encoder.Encode, Decryptor.DecryptInto). Return
// it with PutPlaintext.
func (p *Parameters) GetPlaintext() *Plaintext {
	if v := p.ptPool.Get(); v != nil {
		return v.(*Plaintext)
	}
	return p.NewPlaintext()
}

// PutPlaintext returns a plaintext of this parameter set to the
// scratch pool. The caller must not use pt afterwards.
func (p *Parameters) PutPlaintext(pt *Plaintext) {
	if pt == nil || len(pt.Coeffs) != p.N {
		return // not one of ours; let the GC have it
	}
	p.ptPool.Put(pt)
}

// Ciphertext is a BFV ciphertext: a vector of polynomials in R_Q.
// A fresh ciphertext has two polynomials; multiplication without
// relinearization yields three.
type Ciphertext struct {
	Value []*ring.Poly
}

// Degree returns len(Value) - 1.
func (ct *Ciphertext) Degree() int { return len(ct.Value) - 1 }

// NewCiphertext returns a zero ciphertext of the given degree. Its
// polynomials come from the ring buffer pool; pass ciphertexts that
// are no longer needed to RecycleCiphertext to avoid allocation churn.
func (p *Parameters) NewCiphertext(degree int) *Ciphertext {
	v := make([]*ring.Poly, degree+1)
	for i := range v {
		v[i] = p.ringQ.GetPoly()
	}
	return &Ciphertext{Value: v}
}

// NewCiphertextUninit is NewCiphertext without the zeroing pass: the
// polynomials hold stale pool coefficients. Use only as the output of
// an operation that overwrites every coefficient (all evaluator *Into
// forms do) — never as an accumulator or a value read before written.
func (p *Parameters) NewCiphertextUninit(degree int) *Ciphertext {
	v := make([]*ring.Poly, degree+1)
	for i := range v {
		v[i] = p.ringQ.GetPolyNoZero()
	}
	return &Ciphertext{Value: v}
}

// RecycleCiphertext returns ct's polynomials to the ring buffer pool.
// The caller must not use ct (or aliases of its polynomials) after.
func (p *Parameters) RecycleCiphertext(ct *Ciphertext) {
	for _, v := range ct.Value {
		p.ringQ.PutPoly(v)
	}
	ct.Value = nil
}

// CopyCiphertext returns a deep copy of ct.
func (p *Parameters) CopyCiphertext(ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{Value: make([]*ring.Poly, len(ct.Value))}
	for i, v := range ct.Value {
		out.Value[i] = p.ringQ.GetPolyNoZero()
		p.ringQ.CopyInto(out.Value[i], v)
	}
	return out
}

// CiphertextEqual reports whether two ciphertexts are bit-identical:
// same degree and same residue in every slot of every polynomial. This
// is the differential-testing notion of equality (stricter than equal
// decryptions: the noise must match too).
func (p *Parameters) CiphertextEqual(a, b *Ciphertext) bool {
	if len(a.Value) != len(b.Value) {
		return false
	}
	for i := range a.Value {
		if !p.ringQ.Equal(a.Value[i], b.Value[i]) {
			return false
		}
	}
	return true
}

// Fingerprint returns a 16-byte digest pinning everything plan and
// ciphertext compatibility depends on: the ring degree, the plaintext
// modulus, and the exact RNS basis of Q. Two parameter sets with equal
// fingerprints produce bit-identical ciphertext arithmetic; the wire
// format (internal/wire) embeds the fingerprint and refuses artifacts
// whose parameters do not match it.
func (p *Parameters) Fingerprint() [16]byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(p.N))
	buf = binary.LittleEndian.AppendUint64(buf, p.T)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.QPrimes)))
	for _, q := range p.QPrimes {
		buf = binary.LittleEndian.AppendUint64(buf, q)
	}
	sum := sha256.Sum256(buf)
	var fp [16]byte
	copy(fp[:], sum[:16])
	return fp
}

// FingerprintHex returns Fingerprint as a hex string (for reports and
// HTTP status endpoints).
func (p *Parameters) FingerprintHex() string {
	fp := p.Fingerprint()
	return hex.EncodeToString(fp[:])
}

// GaloisElement returns the Galois automorphism element implementing a
// slot rotation by step over the batching row.
func (p *Parameters) GaloisElement(step int) uint64 {
	return p.ringQ.GaloisElementForRotation(step)
}
