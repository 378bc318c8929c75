package bfv

import (
	"math"
	"math/big"
)

// NoiseBudget returns the invariant noise budget of ct in bits:
// log2(Q / (2·max_j |t·v_j mod Q|_centered)). Decryption is correct
// while the budget is positive. Returns 0 when the budget is
// exhausted.
//
// This is a diagnostic, off the keyholder's hot path: unlike Decrypt it
// reconstructs every coefficient into math/big.
func (dec *Decryptor) NoiseBudget(ct *Ciphertext) float64 {
	r := dec.params.ringQ
	v := dec.phase(ct)
	defer r.PutPoly(v)
	t := new(big.Int).SetUint64(dec.params.T)
	q := dec.params.q
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num, rem big.Int
	maxNorm := new(big.Int)
	for j := 0; j < dec.params.N; j++ {
		r.CoeffBigCentered(&x, v, j)
		num.Mul(t, &x)
		// Centered remainder of t·x modulo Q.
		rem.Mod(&num, q)
		if rem.Cmp(halfQ) > 0 {
			rem.Sub(&rem, q)
		}
		rem.Abs(&rem)
		if rem.Cmp(maxNorm) > 0 {
			maxNorm.Set(&rem)
		}
	}
	if maxNorm.Sign() == 0 {
		maxNorm.SetInt64(1)
	}
	budget := bigLog2(q) - bigLog2(maxNorm) - 1
	if budget < 0 {
		return 0
	}
	return budget
}

// bigLog2 returns log2(x) for positive x.
func bigLog2(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}
