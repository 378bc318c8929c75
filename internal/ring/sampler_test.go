package ring

import (
	"bytes"
	"errors"
	"io"
	"math"
	mrand "math/rand"
	"strings"
	"testing"
)

// centered returns coefficient j of p as a small signed integer,
// checking that every residue row encodes the same one.
func centered(t *testing.T, r *Ring, p *Poly, j int) int64 {
	t.Helper()
	signed := func(i int) int64 {
		v, pr := p.Coeffs[i][j], r.Primes[i]
		if v > pr/2 {
			return int64(v) - int64(pr)
		}
		return int64(v)
	}
	v := signed(0)
	for i := range r.Primes {
		if signed(i) != v {
			t.Fatalf("coefficient %d: row %d encodes %d, row 0 encodes %d", j, i, signed(i), v)
		}
	}
	return v
}

// countingReader counts the reads made of the source under it.
type countingReader struct {
	src   io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.src.Read(p)
}

func seededReader(seed int64) io.Reader {
	return &deterministicReader{rng: mrand.New(mrand.NewSource(seed))}
}

// TestSamplerStatistics holds each distribution to its moments, within
// four standard deviations of the estimator over 32768 samples (the
// source is seeded, so the test cannot flake), and to one read of the
// source per polynomial — per residue row for Uniform.
func TestSamplerStatistics(t *testing.T) {
	r := testRing(t, 4096, 3)
	src := &countingReader{src: seededReader(42)}
	s := &Sampler{r: r, src: src}
	p := r.NewPoly()
	const polys = 8
	n := float64(polys * r.N)

	counts := map[int64]float64{}
	for k := 0; k < polys; k++ {
		if err := s.Ternary(p); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r.N; j++ {
			counts[centered(t, r, p, j)]++
		}
	}
	if len(counts) != 3 {
		t.Fatalf("ternary support %v, want {-1, 0, 1}", counts)
	}
	sigma := math.Sqrt(n * (1.0 / 3) * (2.0 / 3))
	for _, v := range []int64{-1, 0, 1} {
		if d := math.Abs(counts[v] - n/3); d > 4*sigma {
			t.Errorf("ternary value %d drawn %v times of %v: %.1fσ from a third", v, counts[v], n, d/sigma)
		}
	}
	if src.reads != polys {
		t.Errorf("ternary: %d reads for %d polynomials", src.reads, polys)
	}

	src.reads = 0
	var sum, sumSq float64
	lo, hi := int64(0), int64(0)
	for k := 0; k < polys; k++ {
		if err := s.Error(p); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r.N; j++ {
			e := centered(t, r, p, j)
			lo, hi = min(lo, e), max(hi, e)
			sum += float64(e)
			sumSq += float64(e) * float64(e)
		}
	}
	const variance = cbdK / 2.0
	if lo < -cbdK || hi > cbdK {
		t.Errorf("CBD support [%d, %d] outside [-%d, %d]", lo, hi, cbdK, cbdK)
	}
	if lo > -8 || hi < 8 {
		t.Errorf("CBD support [%d, %d] implausibly narrow for σ = 3.2", lo, hi)
	}
	if mean := sum / n; math.Abs(mean) > 4*math.Sqrt(variance/n) {
		t.Errorf("CBD mean %.4f, want 0", mean)
	}
	// The variance of the sample variance is (μ₄ − σ⁴)/n, and a sum of
	// 42 fair ±½ steps has μ₄ = 3σ⁴ − σ²/2.
	sdVar := math.Sqrt((2*variance*variance - variance/2) / n)
	if got := sumSq / n; math.Abs(got-variance) > 4*sdVar {
		t.Errorf("CBD variance %.3f, want %.1f ± %.3f", got, variance, 4*sdVar)
	}
	if src.reads != polys {
		t.Errorf("error: %d reads for %d polynomials", src.reads, polys)
	}

	src.reads = 0
	if err := s.Uniform(p); err != nil {
		t.Fatal(err)
	}
	for i, pr := range r.Primes {
		var mean float64
		for _, v := range p.Coeffs[i] {
			if v >= pr {
				t.Fatalf("uniform residue %d not below prime %d", v, pr)
			}
			mean += float64(v) / float64(pr)
		}
		// A uniform variate on [0, 1) has variance 1/12.
		if mean /= float64(r.N); math.Abs(mean-0.5) > 4*math.Sqrt(1.0/12/float64(r.N)) {
			t.Errorf("uniform row %d: mean %.4f of the prime, want 0.5", i, mean)
		}
	}
	if src.reads != len(r.Primes) {
		t.Errorf("uniform: %d reads for %d residue rows", src.reads, len(r.Primes))
	}
}

// TestSamplerRejection feeds the sampler a stream in which rejected
// values crowd out the slack of the first read, so that it must draw
// again, and compares the result with a one-value-at-a-time reading of
// the same stream.
func TestSamplerRejection(t *testing.T) {
	r := testRing(t, 256, 2)
	stream := make([]byte, 1<<16)
	if _, err := io.ReadFull(seededReader(9), stream); err != nil {
		t.Fatal(err)
	}
	// Every third byte 0xFF: a third of the ternary draws and — eight
	// 0xFF bytes in a row being rare — the first uniform words only.
	for i := 0; i < len(stream); i += 3 {
		stream[i] = 0xFF
	}
	for i := 0; i < 64; i++ {
		stream[i] = 0xFF
	}

	src := &countingReader{src: bytes.NewReader(stream)}
	p := r.NewPoly()
	if err := (&Sampler{r: r, src: src}).Ternary(p); err != nil {
		t.Fatal(err)
	}
	if src.reads < 2 {
		t.Fatalf("ternary made %d reads of a stream one third rejected; the second-draw path did not run", src.reads)
	}
	j := 0
	for _, b := range stream {
		if j == r.N {
			break
		}
		if b == 0xFF {
			continue
		}
		want := []int64{0, 1, -1}[b%3]
		if got := centered(t, r, p, j); got != want {
			t.Fatalf("ternary coefficient %d = %d, want %d", j, got, want)
		}
		j++
	}

	src = &countingReader{src: bytes.NewReader(stream)}
	if err := (&Sampler{r: r, src: src}).Uniform(p); err != nil {
		t.Fatal(err)
	}
	if src.reads <= len(r.Primes) {
		t.Fatalf("uniform made %d reads with rejected leading words; the second-draw path did not run", src.reads)
	}
	for i, pr := range r.Primes {
		for _, v := range p.Coeffs[i] {
			if v >= pr {
				t.Fatalf("uniform residue %d not below prime %d", v, pr)
			}
		}
	}
	// Row 0 skips the eight all-ones words and continues with the ninth.
	w9 := uint64(0)
	for k := 7; k >= 0; k-- {
		w9 = w9<<8 | uint64(stream[64+k])
	}
	if got, want := p.Coeffs[0][0], w9%r.Primes[0]; got != want {
		t.Errorf("uniform residue 0 = %d, want the first accepted word mod p = %d", got, want)
	}
}

// TestSamplerSourceFailure: a source that runs dry or fails surfaces
// as the wrapped "randomness source failed" error from every
// distribution, never as a short or zero-filled polynomial.
func TestSamplerSourceFailure(t *testing.T) {
	r := testRing(t, 256, 2)
	broken := errors.New("entropy pool on fire")
	sources := map[string]struct {
		src  func() io.Reader
		want error
	}{
		"short":   {func() io.Reader { return io.LimitReader(seededReader(1), 100) }, io.ErrUnexpectedEOF},
		"empty":   {func() io.Reader { return bytes.NewReader(nil) }, io.EOF},
		"failing": {func() io.Reader { return io.MultiReader(io.LimitReader(seededReader(1), 100), errReader{broken}) }, broken},
	}
	for name, c := range sources {
		dists := map[string]func(*Sampler, *Poly) error{
			"uniform": (*Sampler).Uniform, "ternary": (*Sampler).Ternary, "error": (*Sampler).Error,
		}
		for dist, draw := range dists {
			err := draw(&Sampler{r: r, src: c.src()}, r.NewPoly())
			if err == nil {
				t.Errorf("%s source, %s: no error", name, dist)
				continue
			}
			if !errors.Is(err, c.want) || !strings.Contains(err.Error(), "randomness source failed") {
				t.Errorf("%s source, %s: error %q does not wrap %q as a randomness failure", name, dist, err, c.want)
			}
		}
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }
