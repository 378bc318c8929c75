package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"porcupine/internal/mathutil"
)

// extenderFixture builds a Q ring, an extension with extra primes, and
// the BasisExtender between them, mirroring the bfv parameter layout.
func extenderFixture(t *testing.T, n int, workers int) (*Ring, *Ring, *BasisExtender) {
	t.Helper()
	qPrimes, err := mathutil.GenerateNTTPrimes(40, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	aux, err := mathutil.GenerateNTTPrimes(52, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := NewRingWithOptions(n, qPrimes, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewRingWithOptions(n, append(append([]uint64(nil), qPrimes...), aux...), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBasisExtender(rq, rx, 65537)
	if err != nil {
		t.Fatal(err)
	}
	return rq, rx, be
}

// liftCenteredBig is the big.Int reference for LiftCentered.
func liftCenteredBig(rq, rx *Ring, dst, src *Poly) {
	var x big.Int
	for j := 0; j < rq.N; j++ {
		rq.CoeffBigCentered(&x, src, j)
		rx.SetCoeffBig(dst, j, &x)
	}
}

// scaleDownBig is the big.Int reference for ScaleDown with t = 65537.
func scaleDownBig(rq, rx *Ring, dst, src *Poly) {
	t := new(big.Int).SetUint64(65537)
	q := rq.Modulus()
	halfQ := new(big.Int).Rsh(q, 1)
	var x, num big.Int
	for j := 0; j < rq.N; j++ {
		rx.CoeffBigCentered(&x, src, j)
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

func TestLiftCenteredMatchesBigInt(t *testing.T) {
	for _, workers := range []int{0, 4} {
		rq, rx, be := extenderFixture(t, 64, workers)
		src := rq.NewPoly()
		rng := rand.New(rand.NewSource(11))

		fill := func() {
			for i, p := range rq.Primes {
				for j := range src.Coeffs[i] {
					src.Coeffs[i][j] = rng.Uint64() % p
				}
			}
		}
		check := func(name string) {
			t.Helper()
			got, want := rx.NewPoly(), rx.NewPoly()
			be.LiftCentered(got, src)
			liftCenteredBig(rq, rx, want, src)
			if !rx.Equal(got, want) {
				t.Fatalf("workers=%d %s: LiftCentered differs from big.Int reference", workers, name)
			}
		}

		for trial := 0; trial < 20; trial++ {
			fill()
			check("random")
		}

		// Edge coefficients around 0, ±1, Q/2 and Q-1.
		q := rq.Modulus()
		half := new(big.Int).Rsh(q, 1)
		edges := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(-1),
			half, new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Neg(half),
			new(big.Int).Sub(q, big.NewInt(1)),
		}
		rq.Zero(src)
		for j, e := range edges {
			rq.SetCoeffBig(src, j, e)
		}
		check("edges")
	}
}

func TestScaleDownMatchesBigInt(t *testing.T) {
	for _, workers := range []int{0, 4} {
		rq, rx, be := extenderFixture(t, 64, workers)
		src := rx.NewPoly()
		rng := rand.New(rand.NewSource(12))

		check := func(name string) {
			t.Helper()
			got, want := rq.NewPoly(), rq.NewPoly()
			be.ScaleDown(got, src)
			scaleDownBig(rq, rx, want, src)
			if !rq.Equal(got, want) {
				t.Fatalf("workers=%d %s: ScaleDown differs from big.Int reference", workers, name)
			}
		}

		for trial := 0; trial < 20; trial++ {
			for i, p := range rx.Primes {
				for j := range src.Coeffs[i] {
					src.Coeffs[i][j] = rng.Uint64() % p
				}
			}
			check("random")
		}

		// Edge coefficients: 0, ±1, E/2 neighborhood (rounding boundary
		// between positive and negative centered values), ±Q, values
		// whose t-multiple sits near a multiple of Q.
		e := rx.Modulus()
		q := rq.Modulus()
		halfE := new(big.Int).Rsh(e, 1)
		edges := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(-1),
			halfE, new(big.Int).Add(halfE, big.NewInt(1)),
			new(big.Int).Sub(halfE, big.NewInt(1)),
			q, new(big.Int).Neg(q),
			new(big.Int).Rsh(q, 1), new(big.Int).Neg(new(big.Int).Rsh(q, 1)),
			new(big.Int).Sub(e, big.NewInt(1)),
		}
		rx.Zero(src)
		for j, ed := range edges {
			rx.SetCoeffBig(src, j, ed)
		}
		check("edges")
	}
}

func TestGaloisElementForRotationClosedForm(t *testing.T) {
	r, err := NewRing(64, []uint64{257}) // 257 ≡ 1 mod 128
	if err != nil {
		t.Fatal(err)
	}
	m := uint64(2 * r.N)
	for k := -40; k <= 40; k++ {
		// Reference: repeated multiplication.
		rowSize := r.N / 2
		kk := ((k % rowSize) + rowSize) % rowSize
		want := uint64(1)
		for i := 0; i < kk; i++ {
			want = want * 3 % m
		}
		if got := r.GaloisElementForRotation(k); got != want {
			t.Fatalf("GaloisElementForRotation(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestPolyPoolReuse(t *testing.T) {
	r, err := NewRing(32, []uint64{257})
	if err != nil {
		t.Fatal(err)
	}
	p := r.GetPoly()
	p.Coeffs[0][0] = 42
	r.PutPoly(p)
	q := r.GetPoly()
	for i := range q.Coeffs {
		for j, v := range q.Coeffs[i] {
			if v != 0 {
				t.Fatalf("pooled poly not zeroed at [%d][%d]: %d", i, j, v)
			}
		}
	}
}

func TestParallelOpsMatchSerial(t *testing.T) {
	primes, err := mathutil.GenerateNTTPrimes(40, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewRing(64, primes)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRingWithOptions(64, primes, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	mk := func(r *Ring) *Poly {
		p := r.NewPoly()
		for i, pr := range r.Primes {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = rng.Uint64() % pr
			}
		}
		return p
	}
	a := mk(serial)
	b := mk(serial)
	aP, bP := par.Copy(a), par.Copy(b)

	sOut, pOut := serial.NewPoly(), par.NewPoly()

	serial.MulPoly(sOut, a, b)
	par.MulPoly(pOut, aP, bP)
	if !serial.Equal(sOut, pOut) {
		t.Fatal("parallel MulPoly differs from serial")
	}

	serial.MulScalar(sOut, a, 123456789)
	par.MulScalar(pOut, aP, 123456789)
	if !serial.Equal(sOut, pOut) {
		t.Fatal("parallel MulScalar differs from serial")
	}
}

// TestRoundToPlaintextMatchesBigInt compares the pure-RNS decryption
// rounding with round(t·x_c/Q) mod t computed in math/big, on random
// coefficients and on the ones where t·x mod Q sits next to 0, Q/2
// and Q (x = k·Q/t ± 1 puts t·x within t of a multiple of Q).
func TestRoundToPlaintextMatchesBigInt(t *testing.T) {
	rq, _, be := extenderFixture(t, 64, 0)
	tb := new(big.Int).SetUint64(65537)
	q := rq.Modulus()
	halfQ := new(big.Int).Rsh(q, 1)
	src := rq.NewPoly()
	check := func(name string) {
		t.Helper()
		got := make([]uint64, rq.N)
		be.RoundToPlaintext(got, src)
		var x, num big.Int
		for j := range got {
			rq.CoeffBigCentered(&x, src, j)
			num.Mul(tb, &x)
			if num.Sign() >= 0 {
				num.Add(&num, halfQ)
			} else {
				num.Sub(&num, halfQ)
			}
			num.Quo(&num, q)
			if want := num.Mod(&num, tb).Uint64(); got[j] != want {
				t.Fatalf("%s: coefficient %d (x = %s) rounds to %d, big.Int reference %d", name, j, &x, got[j], want)
			}
		}
	}

	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		for i, p := range rq.Primes {
			for j := range src.Coeffs[i] {
				src.Coeffs[i][j] = rng.Uint64() % p
			}
		}
		check("random")
	}

	rq.Zero(src)
	j := 0
	for _, k := range []int64{0, 1, 2, 32768, 32769, 65536} {
		// x near k·Q/t and near (k + ½)·Q/t.
		for _, twice := range []int64{2 * k, 2*k + 1} {
			base := new(big.Int).Mul(q, big.NewInt(twice))
			base.Quo(base, new(big.Int).Lsh(tb, 1))
			for d := int64(-1); d <= 1; d++ {
				rq.SetCoeffBig(src, j, new(big.Int).Add(base, big.NewInt(d)))
				j++
			}
		}
	}
	check("edges")
}
