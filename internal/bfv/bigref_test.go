package bfv

import (
	"math/big"

	"porcupine/internal/ring"
)

// mulBigInto is the textbook tensor product with per-coefficient
// big.Int CRT reconstruction. It is the reference the pure-RNS path is
// differentially tested against (differential_test.go).
func (ev *Evaluator) mulBigInto(out *Ciphertext, a, b *Ciphertext) error {
	rq := ev.params.ringQ
	rx := ev.params.ringExt

	// Lift the four input polynomials into the extended basis using
	// centered representatives.
	lift := func(p *ring.Poly) *ring.Poly {
		out := rx.NewPoly()
		var x big.Int
		for j := 0; j < ev.params.N; j++ {
			rq.CoeffBigCentered(&x, p, j)
			rx.SetCoeffBig(out, j, &x)
		}
		return out
	}
	a0, a1 := lift(a.Value[0]), lift(a.Value[1])
	b0, b1 := lift(b.Value[0]), lift(b.Value[1])
	rx.NTT(a0)
	rx.NTT(a1)
	rx.NTT(b0)
	rx.NTT(b1)

	e0, e1, e2 := rx.NewPoly(), rx.NewPoly(), rx.NewPoly()
	rx.MulCoeffs(e0, a0, b0)
	rx.MulCoeffs(e1, a0, b1)
	rx.MulCoeffsAndAdd(e1, a1, b0)
	rx.MulCoeffs(e2, a1, b1)
	rx.INTT(e0)
	rx.INTT(e1)
	rx.INTT(e2)

	// Scale each coefficient by t/Q with rounding, landing back in R_Q.
	ev.resize(out, 2)
	t := new(big.Int).SetUint64(ev.params.T)
	q := ev.params.q
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num big.Int
	for i, e := range []*ring.Poly{e0, e1, e2} {
		dst := out.Value[i]
		for j := 0; j < ev.params.N; j++ {
			rx.CoeffBigCentered(&x, e, j)
			num.Mul(t, &x)
			if num.Sign() >= 0 {
				num.Add(&num, halfQ)
			} else {
				num.Sub(&num, halfQ)
			}
			num.Quo(&num, q)
			rq.SetCoeffBig(dst, j, &num)
		}
	}
	return nil
}
