package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"porcupine/internal/mathutil"
)

func testRing(t testing.TB, n, nPrimes int) *Ring {
	t.Helper()
	primes, err := mathutil.GenerateNTTPrimes(45, n, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randPoly(r *Ring, rng *rand.Rand) *Poly {
	p := r.NewPoly()
	for i, pr := range r.Primes {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % pr
		}
	}
	return p
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(100, []uint64{65537}); err == nil {
		t.Error("non-power-of-two degree should fail")
	}
	if _, err := NewRing(64, nil); err == nil {
		t.Error("empty basis should fail")
	}
	if _, err := NewRing(64, []uint64{65536}); err == nil {
		t.Error("composite modulus should fail")
	}
	if _, err := NewRing(65536, []uint64{65537}); err == nil {
		t.Error("prime not ≡ 1 mod 2N should fail")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	r := testRing(t, 256, 2)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 10; k++ {
		p := randPoly(r, rng)
		q := r.Copy(p)
		r.NTT(q)
		r.INTT(q)
		if !r.Equal(p, q) {
			t.Fatal("INTT(NTT(p)) != p")
		}
	}
}

func TestNTTRoundTripProperty(t *testing.T) {
	r := testRing(t, 64, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(r, rng)
		q := r.Copy(p)
		r.NTT(q)
		r.INTT(q)
		return r.Equal(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// naiveNegacyclicMul computes a*b mod (X^N+1) mod p by schoolbook.
func naiveNegacyclicMul(a, b []uint64, p uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			prod := mathutil.MulMod(a[i], b[j], p)
			k := i + j
			if k < n {
				out[k] = mathutil.AddMod(out[k], prod, p)
			} else {
				out[k-n] = mathutil.SubMod(out[k-n], prod, p)
			}
		}
	}
	return out
}

func TestMulPolyAgainstSchoolbook(t *testing.T) {
	r := testRing(t, 64, 2)
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 5; k++ {
		a := randPoly(r, rng)
		b := randPoly(r, rng)
		dst := r.NewPoly()
		r.MulPoly(dst, a, b)
		for i, p := range r.Primes {
			want := naiveNegacyclicMul(a.Coeffs[i], b.Coeffs[i], p)
			for j := range want {
				if dst.Coeffs[i][j] != want[j] {
					t.Fatalf("prime %d coeff %d: got %d want %d", i, j, dst.Coeffs[i][j], want[j])
				}
			}
		}
	}
}

func TestAddSubNegLaws(t *testing.T) {
	r := testRing(t, 128, 2)
	rng := rand.New(rand.NewSource(3))
	a, b := randPoly(r, rng), randPoly(r, rng)
	sum, diff, back := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.Add(sum, a, b)
	r.Sub(diff, sum, b)
	if !r.Equal(diff, a) {
		t.Error("(a+b)-b != a")
	}
	r.Neg(back, a)
	r.Add(back, back, a)
	zero := r.NewPoly()
	if !r.Equal(back, zero) {
		t.Error("a + (-a) != 0")
	}
	// Commutativity.
	sum2 := r.NewPoly()
	r.Add(sum2, b, a)
	if !r.Equal(sum, sum2) {
		t.Error("a+b != b+a")
	}
}

func TestMulScalar(t *testing.T) {
	r := testRing(t, 64, 2)
	rng := rand.New(rand.NewSource(4))
	a := randPoly(r, rng)
	d1, d2 := r.NewPoly(), r.NewPoly()
	r.MulScalar(d1, a, 7)
	// 7a == a+a+a+a+a+a+a
	r.CopyInto(d2, a)
	for i := 0; i < 6; i++ {
		r.Add(d2, d2, a)
	}
	if !r.Equal(d1, d2) {
		t.Error("MulScalar(7) != 7 additions")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t, 64, 1)
	rng := rand.New(rand.NewSource(5))
	p := randPoly(r, rng)
	m := uint64(2 * r.N)
	g1, g2 := uint64(3), uint64(5)
	a1, a2, a3 := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.Automorphism(a1, p, g1)
	r.Automorphism(a2, a1, g2)
	r.Automorphism(a3, p, g1*g2%m)
	if !r.Equal(a2, a3) {
		t.Error("automorphism composition law violated")
	}
	// Identity automorphism.
	id := r.NewPoly()
	r.Automorphism(id, p, 1)
	if !r.Equal(id, p) {
		t.Error("automorphism by g=1 is not identity")
	}
}

func TestAutomorphismIsRingHom(t *testing.T) {
	r := testRing(t, 64, 1)
	rng := rand.New(rand.NewSource(6))
	a, b := randPoly(r, rng), randPoly(r, rng)
	g := uint64(9)
	prod, autProd := r.NewPoly(), r.NewPoly()
	autA, autB, prodAut := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.MulPoly(prod, a, b)
	r.Automorphism(autProd, prod, g)
	r.Automorphism(autA, a, g)
	r.Automorphism(autB, b, g)
	r.MulPoly(prodAut, autA, autB)
	if !r.Equal(autProd, prodAut) {
		t.Error("automorphism does not commute with multiplication")
	}
}

func TestGaloisElements(t *testing.T) {
	r := testRing(t, 64, 1)
	if r.GaloisElementForRotation(0) != 1 {
		t.Error("rotation by 0 should be identity element")
	}
	if r.GaloisElementForRotation(1) != 3 {
		t.Error("rotation by 1 should be 3")
	}
	// Rotation by rowSize is identity (full cycle).
	if g := r.GaloisElementForRotation(r.N / 2); g != 1 {
		// 3^(N/2) mod 2N generates the cyclic rotation group of order N/2.
		t.Errorf("rotation by rowSize = %d, want 1", g)
	}
	if r.GaloisElementRowSwap() != uint64(2*r.N-1) {
		t.Error("row swap element wrong")
	}
	// Negative rotations normalize.
	if r.GaloisElementForRotation(-1) != r.GaloisElementForRotation(r.N/2-1) {
		t.Error("negative rotation not normalized")
	}
}

func TestSetSmallAndCoeffBig(t *testing.T) {
	r := testRing(t, 64, 2)
	p := r.NewPoly()
	r.SetSmall(p, []int64{5, -3, 0, 7})
	var x big.Int
	if r.CoeffBigCentered(&x, p, 0); x.Int64() != 5 {
		t.Errorf("coeff 0 = %s", &x)
	}
	if r.CoeffBigCentered(&x, p, 1); x.Int64() != -3 {
		t.Errorf("coeff 1 = %s, want -3", &x)
	}
	if r.CoeffBigCentered(&x, p, 63); x.Int64() != 0 {
		t.Errorf("coeff 63 = %s, want 0", &x)
	}
	r.SetCoeffBig(p, 2, big.NewInt(-11))
	if r.CoeffBigCentered(&x, p, 2); x.Int64() != -11 {
		t.Errorf("SetCoeffBig round trip = %s", &x)
	}
}

func TestInfNormCenteredLog2(t *testing.T) {
	r := testRing(t, 64, 2)
	p := r.NewPoly()
	if got := r.InfNormCenteredLog2(p); got != 0 {
		t.Errorf("norm of zero poly = %v", got)
	}
	r.SetSmall(p, []int64{0, 16})
	if got := r.InfNormCenteredLog2(p); got != 4 {
		t.Errorf("norm log2 = %v, want 4", got)
	}
	r.SetSmall(p, []int64{-32, 16})
	if got := r.InfNormCenteredLog2(p); got != 5 {
		t.Errorf("norm log2 = %v, want 5", got)
	}
}

func BenchmarkNTT(b *testing.B) {
	for _, n := range []int{2048, 4096, 8192} {
		primes, _ := mathutil.GenerateNTTPrimes(45, n, 1)
		r, _ := NewRing(n, primes)
		rng := rand.New(rand.NewSource(1))
		p := randPoly(r, rng)
		b.Run(benchName("N", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p)
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
