// Package ring implements arithmetic in the quotient ring
// R_Q = Z_Q[X]/(X^N + 1) for a power-of-two degree N and a modulus Q
// given as a product of word-sized NTT-friendly primes (an RNS basis).
//
// Polynomials are stored in residue-number-system form: one []uint64
// coefficient vector per prime. All per-prime operations use the
// negacyclic number-theoretic transform so multiplication is O(N log N).
//
// This package is the arithmetic substrate for the BFV implementation
// in internal/bfv; it corresponds to the polynomial layer of the SEAL
// library used by the paper.
package ring

import (
	"fmt"
	"math/big"
	"sync"

	"porcupine/internal/mathutil"
)

// Ring holds the precomputed tables for R_Q with a fixed degree and
// RNS prime basis.
type Ring struct {
	N      int
	LogN   int
	Primes []uint64

	tables []*nttTable
	crt    *mathutil.CRTReconstructor

	// workers bounds the per-prime parallelism of transforms and
	// pointwise loops (1 = serial). See SetWorkers.
	workers int

	// pool recycles *Poly scratch buffers (see GetPoly / PutPoly) to
	// keep the evaluator hot path free of large allocations.
	pool sync.Pool

	// decompPool recycles key-switching Decomposition scratch (see
	// GetDecomposition / PutDecomposition).
	decompPool sync.Pool

	// permCache caches NTT-domain automorphism permutation tables per
	// Galois element (uint64 -> []uint32; see NTTPermutation).
	permCache sync.Map

	// autoCache caches coefficient-domain automorphism tables per
	// Galois element (uint64 -> []uint32; see AutomorphismTable).
	autoCache sync.Map

	// lazyAccumOK reports that a K-term inner product of reduced
	// operands fits a 128-bit accumulator with the final Barrett
	// reduction still valid: K · max(p) < 2^64. See MulAccumLazy.
	lazyAccumOK bool
}

// Options configures optional Ring behavior.
type Options struct {
	// Workers is the maximum number of goroutines used per ring
	// operation (NTT/INTT and pointwise loops parallelize across the
	// prime basis; base extension across coefficient chunks). Values
	// <= 1 mean serial execution.
	Workers int
}

// nttTable holds per-prime negacyclic NTT twiddle factors in
// bit-reversed order, following the Harvey/SEAL layout. Shoup
// precomputations (floor(w·2^64/p)) accelerate the butterfly
// multiplications.
type nttTable struct {
	p         uint64
	bar       mathutil.Barrett // Barrett constant of p for variable×variable products
	psiRev    []uint64         // powers of psi (2N-th root) in bit-reversed order
	psiRevS   []uint64         // Shoup companions of psiRev
	ipsiRev   []uint64         // powers of psi^-1 in bit-reversed order
	ipsiRevS  []uint64         // Shoup companions of ipsiRev
	nInv      uint64           // N^-1 mod p
	nInvShoup uint64
	psi       uint64
}

// shoupPrecomp returns floor(w * 2^64 / p). Requires w < p.
func shoupPrecomp(w, p uint64) uint64 { return mathutil.ShoupPrecomp(w, p) }

// shoupMul returns (a * w) mod p given wS = shoupPrecomp(w, p).
// Requires w < p < 2^63; a may be any 64-bit value.
func shoupMul(a, w, wS, p uint64) uint64 { return mathutil.ShoupMul(a, w, wS, p) }

// NewRing constructs R_Q for the given degree and prime basis. The
// degree must be a power of two and every prime must satisfy
// p ≡ 1 (mod 2N). Operations run serially; see NewRingWithOptions.
func NewRing(n int, primes []uint64) (*Ring, error) {
	return NewRingWithOptions(n, primes, Options{})
}

// NewRingWithOptions is NewRing with explicit Options.
func NewRingWithOptions(n int, primes []uint64, opts Options) (*Ring, error) {
	logN, err := mathutil.Log2(n)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime basis")
	}
	r := &Ring{N: n, LogN: logN, Primes: append([]uint64(nil), primes...), workers: opts.Workers}
	r.tables = make([]*nttTable, len(primes))
	for i, p := range primes {
		tbl, err := newNTTTable(n, logN, p)
		if err != nil {
			return nil, err
		}
		r.tables[i] = tbl
	}
	r.crt, err = mathutil.NewCRTReconstructor(primes)
	if err != nil {
		return nil, err
	}
	maxP := uint64(0)
	for _, p := range primes {
		if p > maxP {
			maxP = p
		}
	}
	r.lazyAccumOK = maxP <= ^uint64(0)/uint64(len(primes))
	return r, nil
}

func newNTTTable(n, logN int, p uint64) (*nttTable, error) {
	if p >= uint64(1)<<62 {
		// The lazy-reduction butterflies keep intermediates in [0, 4p),
		// which must fit in a word.
		return nil, fmt.Errorf("ring: modulus %d exceeds the 2^62 bound of the lazy-reduction NTT", p)
	}
	if !mathutil.IsPrime(p) {
		return nil, fmt.Errorf("ring: modulus %d is not prime", p)
	}
	if (p-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("ring: prime %d is not ≡ 1 mod 2N (N=%d)", p, n)
	}
	psi, err := mathutil.PrimitiveNthRoot(uint64(2*n), p)
	if err != nil {
		return nil, err
	}
	ipsi, err := mathutil.InvMod(psi, p)
	if err != nil {
		return nil, err
	}
	nInv, err := mathutil.InvMod(uint64(n), p)
	if err != nil {
		return nil, err
	}
	tbl := &nttTable{p: p, bar: mathutil.NewBarrett(p), nInv: nInv, nInvShoup: shoupPrecomp(nInv, p), psi: psi}
	tbl.psiRev = make([]uint64, n)
	tbl.psiRevS = make([]uint64, n)
	tbl.ipsiRev = make([]uint64, n)
	tbl.ipsiRevS = make([]uint64, n)
	fw, iw := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := mathutil.BitReverse(uint64(i), logN)
		tbl.psiRev[j] = fw
		tbl.psiRevS[j] = shoupPrecomp(fw, p)
		tbl.ipsiRev[j] = iw
		tbl.ipsiRevS[j] = shoupPrecomp(iw, p)
		fw = mathutil.MulMod(fw, psi, p)
		iw = mathutil.MulMod(iw, ipsi, p)
	}
	return tbl, nil
}

// Poly is a polynomial in R_Q stored as per-prime coefficient vectors.
// Coeffs[i][j] is the j-th coefficient modulo Primes[i]. A Poly may be
// in the coefficient domain or the NTT (evaluation) domain; the domain
// is tracked by the caller (the bfv package keeps everything in the
// coefficient domain at API boundaries).
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial for the ring.
func (r *Ring) NewPoly() *Poly {
	c := make([][]uint64, len(r.Primes))
	backing := make([]uint64, len(r.Primes)*r.N)
	for i := range c {
		c[i], backing = backing[:r.N:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: c}
}

// SetWorkers sets the maximum per-operation parallelism (see
// Options.Workers). Safe to call between operations, not concurrently
// with them.
func (r *Ring) SetWorkers(w int) { r.workers = w }

// Workers returns the configured per-operation parallelism bound.
func (r *Ring) Workers() int { return r.workers }

// parOp2 submits a two-level (prime × coefficient-chunk) pointwise op
// to the worker pool. It reports false — without touching any data —
// when the ring is serial or no descriptor is free; the caller then
// runs its plain loop.
func (r *Ring) parOp2(kind opKind, dst, a, b *Poly, scalar uint64) bool {
	w := r.workers
	if w <= 1 {
		return false
	}
	op := acquireOp()
	if op == nil {
		return false
	}
	op.kind, op.r = kind, r
	op.dst, op.a, op.b, op.scalar = dst, a, b, scalar
	op.grid(len(r.Primes), r.N, w, true)
	runOp(op, w)
	return true
}

// GetPoly returns a zeroed polynomial from the ring's buffer pool,
// allocating one if the pool is empty. Return it with PutPoly when
// done to avoid allocation churn on hot paths.
func (r *Ring) GetPoly() *Poly {
	if v := r.pool.Get(); v != nil {
		p := v.(*Poly)
		r.Zero(p)
		return p
	}
	return r.NewPoly()
}

// GetPolyNoZero is GetPoly without the zeroing pass: the returned
// polynomial holds arbitrary stale coefficients. Use only when every
// coefficient is overwritten before being read (full transforms,
// copies, base extensions) — never for accumulators.
func (r *Ring) GetPolyNoZero() *Poly {
	if v := r.pool.Get(); v != nil {
		return v.(*Poly)
	}
	return r.NewPoly()
}

// PutPoly returns a polynomial obtained from this ring (NewPoly or
// GetPoly) to the buffer pool. The caller must not use p afterwards.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || len(p.Coeffs) != len(r.Primes) || len(p.Coeffs[0]) != r.N {
		return // not one of ours; let the GC have it
	}
	r.pool.Put(p)
}

// Copy returns a deep copy of p.
func (r *Ring) Copy(p *Poly) *Poly {
	q := r.NewPoly()
	for i := range p.Coeffs {
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	return q
}

// CopyInto copies src into dst.
func (r *Ring) CopyInto(dst, src *Poly) {
	for i := range src.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
}

// Zero clears p in place.
func (r *Ring) Zero(p *Poly) {
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
}

// Equal reports whether a and b have identical coefficients.
func (r *Ring) Equal(a, b *Poly) bool {
	for i := range a.Coeffs {
		for j := range a.Coeffs[i] {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// Hot per-prime ops follow one pattern: the loop body lives in a
// *Range method taking the prime index and a coefficient range, the
// serial path (workers <= 1, the evaluator default) calls it over full
// rows in a plain loop, and the parallel path submits a pre-allocated
// descriptor to the persistent worker pool (parOp2) — no goroutine
// spawn, no WaitGroup, no closure. This keeps steady-state plan
// execution allocation-free at any worker count.

// Add sets dst = a + b. dst may alias a or b.
func (r *Ring) Add(dst, a, b *Poly) {
	if r.parOp2(opAdd, dst, a, b, 0) {
		return
	}
	for i := range r.Primes {
		r.addRange(dst, a, b, i, 0, r.N)
	}
}

func (r *Ring) addRange(dst, a, b *Poly, i, lo, hi int) {
	p := r.Primes[i]
	ai, bi, di := a.Coeffs[i][lo:hi], b.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = mathutil.AddMod(ai[j], bi[j], p)
	}
}

// Sub sets dst = a - b. dst may alias a or b.
func (r *Ring) Sub(dst, a, b *Poly) {
	if r.parOp2(opSub, dst, a, b, 0) {
		return
	}
	for i := range r.Primes {
		r.subRange(dst, a, b, i, 0, r.N)
	}
}

func (r *Ring) subRange(dst, a, b *Poly, i, lo, hi int) {
	p := r.Primes[i]
	ai, bi, di := a.Coeffs[i][lo:hi], b.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = mathutil.SubMod(ai[j], bi[j], p)
	}
}

// Neg sets dst = -a.
func (r *Ring) Neg(dst, a *Poly) {
	if r.parOp2(opNeg, dst, a, nil, 0) {
		return
	}
	for i := range r.Primes {
		r.negRange(dst, a, i, 0, r.N)
	}
}

func (r *Ring) negRange(dst, a *Poly, i, lo, hi int) {
	p := r.Primes[i]
	ai, di := a.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = mathutil.NegMod(ai[j], p)
	}
}

// MulScalar sets dst = a * s for a word-sized scalar s. The per-prime
// scalar is fixed across the coefficient loop, so a Shoup constant
// replaces the division-based MulMod.
func (r *Ring) MulScalar(dst, a *Poly, s uint64) {
	if r.parOp2(opMulScalar, dst, a, nil, s) {
		return
	}
	for i := range r.Primes {
		r.mulScalarRange(dst, a, s, i, 0, r.N)
	}
}

func (r *Ring) mulScalarRange(dst, a *Poly, s uint64, i, lo, hi int) {
	p := r.Primes[i]
	sp := r.tables[i].bar.Reduce64(s)
	spS := shoupPrecomp(sp, p)
	ai, di := a.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = shoupMul(ai[j], sp, spS, p)
	}
}

// NTT transforms p in place, coefficient domain → evaluation domain.
// The parallel grid is one task per residue row: the lazy-reduction
// butterflies carry cross-coefficient dependencies through every pass,
// so rows are the natural (and bit-trivially-identical) split.
func (r *Ring) NTT(p *Poly) {
	if w := r.workers; w > 1 {
		if op := acquireOp(); op != nil {
			op.kind, op.r, op.dst = opNTTFwd, r, p
			op.grid(len(r.Primes), 0, w, false)
			runOp(op, w)
			return
		}
	}
	for i := range r.Primes {
		nttForward(p.Coeffs[i], r.tables[i])
	}
}

// NTTRow forward-transforms a single residue row (for prime index i)
// in place. Callers holding a bare []uint64 — e.g. the encoder's
// plaintext buffer — avoid wrapping it in a Poly, which would escape
// to the heap on every call.
func (r *Ring) NTTRow(i int, row []uint64) { nttForward(row, r.tables[i]) }

// INTTRow inverse-transforms a single residue row in place.
func (r *Ring) INTTRow(i int, row []uint64) { nttInverse(row, r.tables[i]) }

// INTT transforms p in place, evaluation domain → coefficient domain.
func (r *Ring) INTT(p *Poly) {
	if w := r.workers; w > 1 {
		if op := acquireOp(); op != nil {
			op.kind, op.r, op.dst = opNTTInv, r, p
			op.grid(len(r.Primes), 0, w, false)
			runOp(op, w)
			return
		}
	}
	for i := range r.Primes {
		nttInverse(p.Coeffs[i], r.tables[i])
	}
}

// MulCoeffs sets dst = a ⊙ b where both operands are in the NTT domain
// (pointwise product). Both factors vary per coefficient, so the
// reduction uses the precomputed 128-bit Barrett constant instead of a
// hardware divide.
func (r *Ring) MulCoeffs(dst, a, b *Poly) {
	if r.parOp2(opMulCoeffs, dst, a, b, 0) {
		return
	}
	for i := range r.Primes {
		r.mulCoeffsRange(dst, a, b, i, 0, r.N)
	}
}

func (r *Ring) mulCoeffsRange(dst, a, b *Poly, i, lo, hi int) {
	bar := r.tables[i].bar
	ai, bi, di := a.Coeffs[i][lo:hi], b.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = bar.MulMod(ai[j], bi[j])
	}
}

// MulCoeffsAndAdd sets dst += a ⊙ b in the NTT domain.
func (r *Ring) MulCoeffsAndAdd(dst, a, b *Poly) {
	if r.parOp2(opMulCoeffsAndAdd, dst, a, b, 0) {
		return
	}
	for i := range r.Primes {
		r.mulCoeffsAndAddRange(dst, a, b, i, 0, r.N)
	}
}

func (r *Ring) mulCoeffsAndAddRange(dst, a, b *Poly, i, lo, hi int) {
	p := r.Primes[i]
	bar := r.tables[i].bar
	ai, bi, di := a.Coeffs[i][lo:hi], b.Coeffs[i][lo:hi], dst.Coeffs[i][lo:hi]
	for j := range di {
		di[j] = mathutil.AddMod(di[j], bar.MulMod(ai[j], bi[j]), p)
	}
}

// MulPoly sets dst = a * b for operands in the coefficient domain,
// leaving the result in the coefficient domain. a and b are not
// modified; dst must not alias them.
func (r *Ring) MulPoly(dst, a, b *Poly) {
	ta := r.GetPolyNoZero()
	tb := r.GetPolyNoZero()
	r.CopyInto(ta, a)
	r.CopyInto(tb, b)
	r.NTT(ta)
	r.NTT(tb)
	r.MulCoeffs(dst, ta, tb)
	r.INTT(dst)
	r.PutPoly(ta)
	r.PutPoly(tb)
}

// DigitLift writes into dst the "digit" polynomial used by RNS key
// switching: every row l of dst holds row i of src reduced modulo p_l.
// Reductions use per-prime Barrett constants (no hardware divides).
func (r *Ring) DigitLift(dst, src *Poly, i int) {
	if w := r.workers; w > 1 {
		if op := acquireOp(); op != nil {
			op.kind, op.r = opDigitLift, r
			op.dst, op.src, op.digit = dst, src, i
			op.grid(len(r.Primes), r.N, w, true)
			runOp(op, w)
			return
		}
	}
	for l := range r.Primes {
		r.digitLiftRange(dst, src.Coeffs[i], i, l, 0, r.N)
	}
}

func (r *Ring) digitLiftRange(dst *Poly, from []uint64, i, l, lo, hi int) {
	dl := dst.Coeffs[l][lo:hi]
	from = from[lo:hi]
	if l == i {
		copy(dl, from)
		return
	}
	bar := r.tables[l].bar
	for j, v := range from {
		dl[j] = bar.Reduce64(v)
	}
}

// BarrettAt returns the Barrett constant of prime i.
func (r *Ring) BarrettAt(i int) mathutil.Barrett { return r.tables[i].bar }

// nttForward is the Cooley-Tukey negacyclic forward NTT (Harvey's
// bit-reversed twiddle layout with lazy reduction, as in SEAL and
// Lattigo): intermediate values live in [0, 4p) and only the final
// pass normalizes into [0, p), removing two data-dependent branches
// per butterfly. Requires p < 2^62.
func nttForward(a []uint64, tbl *nttTable) {
	p := tbl.p
	twoP := 2 * p
	n := len(a)
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * t
			j2 := j1 + t
			w, wS := tbl.psiRev[m+i], tbl.psiRevS[m+i]
			for j := j1; j < j2; j++ {
				u := a[j] // < 4p
				if u >= twoP {
					u -= twoP
				}
				v := mathutil.ShoupMulLazy(a[j+t], w, wS, p) // < 2p
				a[j] = u + v                                 // < 4p
				a[j+t] = u + twoP - v                        // < 4p
			}
		}
	}
	for j, v := range a {
		if v >= twoP {
			v -= twoP
		}
		if v >= p {
			v -= p
		}
		a[j] = v
	}
}

// nttInverse is the Gentleman-Sande negacyclic inverse NTT with lazy
// reduction: intermediates stay in [0, 2p) and the final N^-1 scaling
// lands exactly in [0, p).
func nttInverse(a []uint64, tbl *nttTable) {
	p := tbl.p
	twoP := 2 * p
	n := len(a)
	t := 1
	for m := n; m > 1; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			j2 := j1 + t
			w, wS := tbl.ipsiRev[h+i], tbl.ipsiRevS[h+i]
			for j := j1; j < j2; j++ {
				u := a[j] // < 2p
				v := a[j+t]
				uu := u + v // < 4p
				if uu >= twoP {
					uu -= twoP
				}
				a[j] = uu                                          // < 2p
				a[j+t] = mathutil.ShoupMulLazy(u+twoP-v, w, wS, p) // < 2p
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := range a {
		a[j] = shoupMul(a[j], tbl.nInv, tbl.nInvShoup, p)
	}
}

// autoNegate flags a coefficient-domain automorphism table entry whose
// coefficient picks up a sign flip (X^k = -X^(k-N) in R). The low 31
// bits hold the destination index, which is always < N ≤ 2^17.
const autoNegate = 1 << 31

// AutomorphismTable returns the coefficient-domain automorphism table
// for g: entry j holds the destination index of coefficient j, with
// autoNegate set when the move crosses the X^N = -1 boundary. Tables
// are built once per Galois element and cached on the ring, the
// coefficient-domain counterpart of NTTPermutation.
func (r *Ring) AutomorphismTable(g uint64) []uint32 {
	if v, ok := r.autoCache.Load(g); ok {
		return v.([]uint32)
	}
	n := uint64(r.N)
	mask := 2*n - 1
	t := make([]uint32, n)
	for j := uint64(0); j < n; j++ {
		k := (j * g) & mask // index of X^(j*g) mod X^2N - 1
		if k >= n {
			t[j] = uint32(k-n) | autoNegate
		} else {
			t[j] = uint32(k)
		}
	}
	actual, _ := r.autoCache.LoadOrStore(g, t)
	return actual.([]uint32)
}

// Automorphism applies the Galois automorphism X → X^g to src (in the
// coefficient domain), writing into dst. g must be odd (a unit mod 2N).
// dst must not alias src.
func (r *Ring) Automorphism(dst, src *Poly, g uint64) {
	r.AutomorphismWithTable(dst, src, r.AutomorphismTable(g))
}

// AutomorphismWithTable is Automorphism with the index table resolved
// by the caller (AutomorphismTable) — the prefetched form used when
// one Galois element is applied to many sources. dst must not alias
// src.
func (r *Ring) AutomorphismWithTable(dst, src *Poly, tab []uint32) {
	for i := range r.Primes {
		si, di := src.Coeffs[i], dst.Coeffs[i]
		p := r.Primes[i]
		for j, e := range tab {
			v := si[j]
			if e&autoNegate != 0 {
				v = mathutil.NegMod(v, p)
			}
			di[e&^autoNegate] = v
		}
	}
}

// GaloisElementForRotation returns the Galois element g = 3^k mod 2N
// implementing a rotation of the batched slot rows by k positions
// (left rotation for positive k), following the SEAL convention.
func (r *Ring) GaloisElementForRotation(k int) uint64 {
	m := uint64(2 * r.N)
	rowSize := r.N / 2
	// Normalize k into [0, rowSize).
	k %= rowSize
	if k < 0 {
		k += rowSize
	}
	return mathutil.PowMod(3, uint64(k), m)
}

// GaloisElementRowSwap returns the Galois element 2N-1 that swaps the
// two batching rows.
func (r *Ring) GaloisElementRowSwap() uint64 { return uint64(2*r.N) - 1 }

// CRT returns the reconstructor for the ring's prime basis.
func (r *Ring) CRT() *mathutil.CRTReconstructor { return r.crt }

// Modulus returns Q = ∏ primes as a big integer (caller must not
// modify the returned value).
func (r *Ring) Modulus() *big.Int { return r.crt.Modulus() }

// SetCoeffBig sets coefficient j of p to x mod Q (x may be negative).
func (r *Ring) SetCoeffBig(p *Poly, j int, x *big.Int) {
	var tmp, pb big.Int
	for i, pr := range r.Primes {
		pb.SetUint64(pr)
		tmp.Mod(x, &pb)
		p.Coeffs[i][j] = tmp.Uint64()
	}
}

// CoeffBigCentered reconstructs coefficient j of p into dst as the
// centered representative in (-Q/2, Q/2].
func (r *Ring) CoeffBigCentered(dst *big.Int, p *Poly, j int) *big.Int {
	res := make([]uint64, len(r.Primes))
	for i := range r.Primes {
		res[i] = p.Coeffs[i][j]
	}
	return r.crt.ReconstructCentered(dst, res)
}
