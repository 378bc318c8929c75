// Pure-RNS basis extension and rescaling for the BFV hot path.
//
// BFV ciphertext multiplication needs two operations that leave the
// single RNS basis: lifting centered representatives from R_Q into the
// extended ring R_E (E = Q·Q'), and scaling the tensor product by t/Q
// with rounding, back into R_Q. The textbook implementation performs
// per-coefficient CRT reconstruction with math/big, which dominates
// end-to-end latency. BasisExtender performs both operations with only
// word-sized arithmetic — exactly, so results are bit-identical to the
// big.Int reference path (unlike the floating-point base conversion of
// the BEHZ variant, which trades exactness for speed and absorbs the
// error into the noise budget).
//
// The key idea: Garner's mixed-radix conversion gives the digits of a
// coefficient x = Σ d_i·W_i (W_i = p_0···p_{i-1}) using O(K²) Shoup
// multiplications. Digits support exact magnitude comparison (for
// centering against Q/2 or E/2) and — because the extended basis lists
// the Q primes first, so Q = W_k — exact division:
//
//	floor((t·M + Q/2) / Q) = Σ_{i≥k} D_i·(W_i/Q)
//
// where D are the carry-normalized digits of t·M + Q/2 and every
// W_i/Q is an integer with precomputed residues mod each q_j.
package ring

import (
	"fmt"
	"math/big"
	"math/bits"

	"porcupine/internal/mathutil"
)

// BasisExtender converts polynomials between R_Q and an extension R_E
// whose prime basis starts with Q's primes, entirely in word-sized
// arithmetic. It is read-only after construction and safe for
// concurrent use.
type BasisExtender struct {
	rQ, rExt *Ring
	t        uint64 // plaintext modulus for ScaleDown
	k, kExt  int    // len(Q primes), len(ext primes)

	decQ   *mathutil.MRDecomposer // Garner tables over the Q basis
	decExt *mathutil.MRDecomposer // Garner tables over the full basis

	halfQDigits []uint64 // digits of floor(Q/2) over the Q basis
	halfEDigits []uint64 // digits of floor(E/2) over the ext basis
	hqExtDigits []uint64 // digits of floor(Q/2) over the ext basis

	// Lift tables, indexed by auxiliary prime a = 0..kExt-k-1:
	liftW   [][]uint64 // liftW[a][j] = W_j mod p_{k+a}, j < k
	liftWS  [][]uint64 // Shoup companions
	qModAux []uint64   // Q mod p_{k+a}

	// Scale-down tables, indexed by Q prime j: vMod[j][i] = V_i mod q_j
	// where V_i = ∏_{l=k}^{k+i-1} p_l for i = 0..kExt-k (V_0 = 1, the
	// last entry being E/Q for the overflow digit).
	vMod  [][]uint64
	vModS [][]uint64

	// Plaintext-rounding tables (RoundToPlaintext), per Q prime i:
	// tModQ[i] = t mod q_i and plainW[i] = −Q⁻¹·W_i mod t, with Shoup
	// companions.
	tModQ, tModQS   []uint64
	plainW, plainWS []uint64

	auxBars []mathutil.Barrett // Barrett constants of the aux primes
	qBars   []mathutil.Barrett // Barrett constants of the Q primes
	divs    []mathutil.Divider // reciprocal dividers per ext prime
	// Lazy Shoup accumulation flags (sums must fit in 64 bits):
	lazyLift  bool // k products < 2·maxAux in LiftCentered
	lazyScale bool // kExt-k+1 products < 2·maxQ in ScaleDown
}

// NewBasisExtender builds the conversion tables between rQ and rExt.
// rExt must have the same degree as rQ and a prime basis whose prefix
// is exactly rQ's basis. t is the plaintext modulus used by ScaleDown
// and must satisfy t < 2^62.
func NewBasisExtender(rQ, rExt *Ring, t uint64) (*BasisExtender, error) {
	if rQ.N != rExt.N {
		return nil, fmt.Errorf("ring: basis extender degree mismatch: %d vs %d", rQ.N, rExt.N)
	}
	k, kExt := len(rQ.Primes), len(rExt.Primes)
	if kExt <= k {
		return nil, fmt.Errorf("ring: extended basis (%d primes) does not extend base (%d)", kExt, k)
	}
	for i, p := range rQ.Primes {
		if rExt.Primes[i] != p {
			return nil, fmt.Errorf("ring: extended basis prime %d is %d, want base prime %d", i, rExt.Primes[i], p)
		}
	}
	if t == 0 || t >= uint64(1)<<62 {
		return nil, fmt.Errorf("ring: plaintext modulus %d out of range", t)
	}
	be := &BasisExtender{rQ: rQ, rExt: rExt, t: t, k: k, kExt: kExt}
	var err error
	if be.decQ, err = mathutil.NewMRDecomposer(rQ.Primes); err != nil {
		return nil, err
	}
	if be.decExt, err = mathutil.NewMRDecomposer(rExt.Primes); err != nil {
		return nil, err
	}

	q := rQ.Modulus()
	e := rExt.Modulus()
	halfQ := new(big.Int).Rsh(q, 1)
	be.halfQDigits = be.decQ.DigitsOfBig(halfQ)
	be.halfEDigits = be.decExt.DigitsOfBig(new(big.Int).Rsh(e, 1))
	be.hqExtDigits = be.decExt.DigitsOfBig(halfQ)

	// Lift tables: W_j mod p (j < k) and Q mod p for each aux prime p.
	aux := rExt.Primes[k:]
	maxAux, maxQ := uint64(0), uint64(0)
	for _, p := range aux {
		if p > maxAux {
			maxAux = p
		}
	}
	for _, p := range rQ.Primes {
		if p > maxQ {
			maxQ = p
		}
	}
	be.lazyLift = maxAux <= ^uint64(0)/(2*uint64(k))
	be.lazyScale = maxQ <= ^uint64(0)/(2*uint64(kExt-k+1))
	be.auxBars = make([]mathutil.Barrett, len(aux))
	for a, p := range aux {
		be.auxBars[a] = mathutil.NewBarrett(p)
	}
	be.qBars = make([]mathutil.Barrett, k)
	for j, p := range rQ.Primes {
		be.qBars[j] = mathutil.NewBarrett(p)
	}
	be.divs = make([]mathutil.Divider, kExt)
	for i, p := range rExt.Primes {
		be.divs[i] = mathutil.NewDivider(p)
	}
	be.liftW = make([][]uint64, len(aux))
	be.liftWS = make([][]uint64, len(aux))
	be.qModAux = make([]uint64, len(aux))
	var tmp, pb big.Int
	for a, p := range aux {
		be.liftW[a] = make([]uint64, k)
		be.liftWS[a] = make([]uint64, k)
		w := uint64(1)
		for j := 0; j < k; j++ {
			be.liftW[a][j] = w
			be.liftWS[a][j] = mathutil.ShoupPrecomp(w, p)
			w = mathutil.MulMod(w, rQ.Primes[j]%p, p)
		}
		pb.SetUint64(p)
		be.qModAux[a] = tmp.Mod(q, &pb).Uint64()
	}

	// Plaintext-rounding tables. Q is a unit mod t exactly when t
	// shares no factor with the basis, which BFV requires anyway.
	tb := new(big.Int).SetUint64(t)
	negQInv := new(big.Int).ModInverse(q, tb)
	if negQInv == nil {
		return nil, fmt.Errorf("ring: plaintext modulus %d is not coprime to the base modulus", t)
	}
	negQInv.Sub(tb, negQInv)
	be.tModQ = make([]uint64, k)
	be.tModQS = make([]uint64, k)
	be.plainW = make([]uint64, k)
	be.plainWS = make([]uint64, k)
	w := big.NewInt(1) // W_i = q_0···q_{i-1}
	for i, p := range rQ.Primes {
		be.tModQ[i] = t % p
		be.tModQS[i] = mathutil.ShoupPrecomp(be.tModQ[i], p)
		be.plainW[i] = tmp.Mod(tmp.Mul(w, negQInv), tb).Uint64()
		be.plainWS[i] = mathutil.ShoupPrecomp(be.plainW[i], t)
		w.Mul(w, pb.SetUint64(p))
	}

	// Scale-down tables: V_i = ∏_{l=k}^{k+i-1} p_l mod q_j.
	be.vMod = make([][]uint64, k)
	be.vModS = make([][]uint64, k)
	for j, qj := range rQ.Primes {
		be.vMod[j] = make([]uint64, len(aux)+1)
		be.vModS[j] = make([]uint64, len(aux)+1)
		v := uint64(1)
		for i := 0; i <= len(aux); i++ {
			be.vMod[j][i] = v
			be.vModS[j][i] = mathutil.ShoupPrecomp(v, qj)
			if i < len(aux) {
				v = mathutil.MulMod(v, aux[i]%qj, qj)
			}
		}
	}
	return be, nil
}

// LiftCentered writes into dst (a polynomial of the extended ring) the
// residues of the centered representative x_c ∈ (-Q/2, Q/2] of every
// coefficient of src (a polynomial of the base ring). Equivalent to
// CoeffBigCentered + SetCoeffBig per coefficient, without math/big.
func (be *BasisExtender) LiftCentered(dst, src *Poly) {
	k, n := be.k, be.rQ.N
	for i := 0; i < k; i++ {
		copy(dst.Coeffs[i], src.Coeffs[i]) // x_c ≡ x mod q_i
	}
	if be.parChunks(opLift, dst, src, n) {
		return
	}
	be.liftCenteredChunk(dst, src, 0, n)
}

// parChunks submits a coefficient-chunked extender pass (Garner is
// per-coefficient across all primes, so the grid has a single row of
// coefficient chunks). Returns false — caller runs the serial chunk —
// when workers <= 1 or no pool descriptor is free.
func (be *BasisExtender) parChunks(kind opKind, dst, src *Poly, n int) bool {
	w := be.rExt.workers
	if w <= 1 {
		return false
	}
	op := acquireOp()
	if op == nil {
		return false
	}
	op.kind, op.be = kind, be
	op.dst, op.src = dst, src
	op.grid(1, n, w, true)
	runOp(op, w)
	return true
}

// liftCenteredChunk lifts the coefficient range [lo, hi). Digit
// scratch lives on the stack for the common basis sizes, so the
// serial path performs no allocations.
func (be *BasisExtender) liftCenteredChunk(dst, src *Poly, lo, hi int) {
	k := be.k
	nAux := be.kExt - k
	var buf [maxStackDigits]uint64
	digits := buf[:]
	if k > maxStackDigits {
		digits = make([]uint64, k)
	} else {
		digits = digits[:k]
	}
	for j := lo; j < hi; j++ {
		for i := 0; i < k; i++ {
			digits[i] = src.Coeffs[i][j]
		}
		be.decQ.Decompose(digits, digits)
		neg := mathutil.MRGreater(digits, be.halfQDigits)
		for a := 0; a < nAux; a++ {
			p := be.rExt.Primes[k+a]
			w, ws := be.liftW[a], be.liftWS[a]
			var acc uint64
			if be.lazyLift {
				for i := 0; i < k; i++ {
					acc += mathutil.ShoupMulLazy(digits[i], w[i], ws[i], p)
				}
				acc = be.auxBars[a].Reduce64(acc)
			} else {
				for i := 0; i < k; i++ {
					acc = mathutil.AddMod(acc, mathutil.ShoupMul(digits[i], w[i], ws[i], p), p)
				}
			}
			if neg {
				acc = mathutil.SubMod(acc, be.qModAux[a], p)
			}
			dst.Coeffs[k+a][j] = acc
		}
	}
}

// ScaleDown writes into dst (base ring) the coefficient-wise value
//
//	round(t·x_c / Q) mod Q
//
// where x_c is the centered representative of each coefficient of src
// (extended ring) and rounding is half-away-from-zero — exactly the
// big.Int reference computation (t·x_c ± Q/2) quo Q.
func (be *BasisExtender) ScaleDown(dst, src *Poly) {
	n := be.rQ.N
	if be.parChunks(opScaleDown, dst, src, n) {
		return
	}
	be.scaleDownChunk(dst, src, 0, n)
}

// scaleDownChunk rescales the coefficient range [lo, hi). Digit
// scratch lives on the stack for the common basis sizes, so the
// serial path performs no allocations.
func (be *BasisExtender) scaleDownChunk(dst, src *Poly, lo, hi int) {
	k, kExt, t := be.k, be.kExt, be.t
	var bufRes, bufDig [maxStackDigits]uint64
	res, digits := bufRes[:], bufDig[:]
	if kExt > maxStackDigits {
		res = make([]uint64, kExt)
		digits = make([]uint64, kExt)
	} else {
		res = res[:kExt]
		digits = digits[:kExt]
	}
	for j := lo; j < hi; j++ {
		for i := 0; i < kExt; i++ {
			res[i] = src.Coeffs[i][j]
		}
		be.decExt.Decompose(res, digits)
		neg := mathutil.MRGreater(digits, be.halfEDigits)
		if neg {
			// Work with the magnitude M = E - x of the centered value,
			// whose digits are the mixed-radix complement (O(K), no
			// second Garner pass).
			be.decExt.ComplementDigits(digits)
		}
		// digits ← carry-normalized mixed-radix digits of t·M + Q/2,
		// with the final carry as overflow digit (value < t + 2).
		carry := uint64(0)
		for i := 0; i < kExt; i++ {
			hi64, lo64 := bits.Mul64(digits[i], t)
			lo64, c := bits.Add64(lo64, be.hqExtDigits[i]+carry, 0)
			carry, digits[i] = be.divs[i].DivRem128(hi64+c, lo64)
		}
		// floor((t·M + Q/2)/Q) = Σ_{i≥k} digits[i]·(W_i/Q) + carry·(E/Q),
		// reduced mod each q_j with precomputed Shoup constants.
		for jq := 0; jq < k; jq++ {
			p := be.rQ.Primes[jq]
			v, vs := be.vMod[jq], be.vModS[jq]
			var acc uint64
			if be.lazyScale {
				acc = mathutil.ShoupMulLazy(carry, v[kExt-k], vs[kExt-k], p)
				for i := k; i < kExt; i++ {
					acc += mathutil.ShoupMulLazy(digits[i], v[i-k], vs[i-k], p)
				}
				acc = be.qBars[jq].Reduce64(acc)
			} else {
				acc = mathutil.ShoupMul(carry, v[kExt-k], vs[kExt-k], p)
				for i := k; i < kExt; i++ {
					acc = mathutil.AddMod(acc, mathutil.ShoupMul(digits[i], v[i-k], vs[i-k], p), p)
				}
			}
			if neg {
				acc = mathutil.NegMod(acc, p)
			}
			dst.Coeffs[jq][j] = acc
		}
	}
}

// RoundToPlaintext writes into dst the coefficient-wise value
//
//	round(t·x / Q) mod t
//
// for the first len(dst) coefficients x of src (base ring, coefficient
// domain) — the last step of BFV decryption, bit-identical to the
// big.Int computation (t·x_c ± Q/2) quo Q mod t on the centered x_c.
//
// Write t·x = Q·m + w with w = [t·x]_Q centered; Q is odd, so |w| <
// Q/2 strictly and m is the unique nearest integer, whichever
// representative of x is taken. Modulo t the left side vanishes:
// m ≡ −w·Q⁻¹. With the mixed-radix digits d_i of u = t·x mod Q in
// [0, Q), w is u or u − Q, and −(−Q)·Q⁻¹ = 1, so
//
//	m = Σ d_i·(−Q⁻¹·W_i mod t) + [u > Q/2]   (mod t).
func (be *BasisExtender) RoundToPlaintext(dst []uint64, src *Poly) {
	k, t := be.k, be.t
	var buf [maxStackDigits]uint64
	digits := buf[:]
	if k > maxStackDigits {
		digits = make([]uint64, k)
	} else {
		digits = digits[:k]
	}
	for j := range dst {
		for i := 0; i < k; i++ {
			digits[i] = mathutil.ShoupMul(src.Coeffs[i][j], be.tModQ[i], be.tModQS[i], be.rQ.Primes[i])
		}
		be.decQ.Decompose(digits, digits)
		var m uint64
		if mathutil.MRGreater(digits, be.halfQDigits) {
			m = 1
		}
		for i := 0; i < k; i++ {
			m = mathutil.AddMod(m, mathutil.ShoupMul(digits[i], be.plainW[i], be.plainWS[i], t), t)
		}
		dst[j] = m
	}
}

// maxStackDigits bounds the RNS basis size for which the mixed-radix
// conversions keep digit scratch on the stack. Every preset is far
// below it (kExt ≤ 9); larger custom bases fall back to heap scratch.
const maxStackDigits = 16
