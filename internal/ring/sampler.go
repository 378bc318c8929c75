package ring

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
)

// Sampler draws random ring elements from the distributions used by
// BFV: uniform over R_Q, ternary secrets, and centered-binomial errors.
// A Sampler created with NewSampler uses crypto/rand; NewTestSampler
// uses a seeded deterministic source for reproducible tests.
//
// Randomness is drawn in bulk: each distribution fills a pooled byte
// buffer with one read of the source per polynomial (per residue row
// for Uniform) and derives every coefficient from it, so sampling
// costs no allocation and no per-coefficient call into the source. A
// Sampler is safe for concurrent use.
type Sampler struct {
	r    *Ring
	src  io.Reader
	bufs sync.Pool // *[]byte of 8·N+16 bytes: the widest draw (one uniform row), or a tiny ring's ternary slack
}

// NewSampler returns a cryptographically secure sampler for the ring.
func NewSampler(r *Ring) *Sampler {
	return &Sampler{r: r, src: rand.Reader}
}

// NewTestSampler returns a deterministic sampler seeded with seed.
// It must only be used in tests and benchmarks.
func NewTestSampler(r *Ring, seed int64) *Sampler {
	return &Sampler{r: r, src: &deterministicReader{rng: mrand.New(mrand.NewSource(seed))}}
}

// deterministicReader is the seeded byte source of test samplers. The
// mutex keeps the Sampler's concurrency contract (math/rand.Rand is
// not safe for concurrent use); the stream a goroutine sees is then
// reproducible only when it is the sampler's sole user.
type deterministicReader struct {
	mu  sync.Mutex
	rng *mrand.Rand
}

func (d *deterministicReader) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], d.rng.Uint64())
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], d.rng.Uint64())
		copy(p[i:], tail[:])
	}
	return len(p), nil
}

// getBuf returns a pooled byte buffer of 8·N+16 bytes.
func (s *Sampler) getBuf() *[]byte {
	if v := s.bufs.Get(); v != nil {
		return v.(*[]byte)
	}
	b := make([]byte, 8*s.r.N+16)
	return &b
}

// fill overwrites b with fresh bytes of the randomness source.
func (s *Sampler) fill(b []byte) error {
	if _, err := io.ReadFull(s.src, b); err != nil {
		return fmt.Errorf("ring: randomness source failed: %w", err)
	}
	return nil
}

// Uniform fills p with coefficients uniform in [0, p_i) per prime.
// The per-prime residues are sampled independently, which yields a
// uniform element of R_Q by CRT. Each residue is a 64-bit word of the
// buffer reduced mod p_i, rejected when it falls in the incomplete
// last interval of length p_i below 2^64 (so the result is unbiased).
func (s *Sampler) Uniform(p *Poly) error {
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	n := s.r.N
	for i, pr := range s.r.Primes {
		bar := s.r.tables[i].bar
		threshold := (^uint64(0) / pr) * pr
		row := p.Coeffs[i]
		for j := 0; j < n; {
			chunk := (*bp)[:8*(n-j)]
			if err := s.fill(chunk); err != nil {
				return err
			}
			for k := 0; k < len(chunk); k += 8 {
				if v := binary.LittleEndian.Uint64(chunk[k:]); v < threshold {
					row[j] = bar.Reduce64(v)
					j++
				}
			}
		}
	}
	return nil
}

// Ternary fills p with coefficients drawn uniformly from {-1, 0, 1},
// represented mod each prime. This is the BFV secret-key distribution.
// One byte per coefficient, taken mod 3; the byte 255 = 3·85 is
// rejected so the three values stay equally likely.
func (s *Sampler) Ternary(p *Poly) error {
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	n := s.r.N
	row := p.Coeffs[0]
	// The slack covers the expected N/256 rejections many times over,
	// so one read serves the polynomial; the loop draws again only if
	// it did not.
	chunk := (*bp)[:n+n/32+16]
	for j := 0; j < n; {
		if err := s.fill(chunk); err != nil {
			return err
		}
		for _, b := range chunk {
			if b == 255 {
				continue
			}
			row[j] = ternary[b%3]
			if j++; j == n {
				break
			}
		}
	}
	s.r.spreadSigned(p)
	return nil
}

// ternary maps a byte mod 3 to 0, 1, -1 in two's complement.
var ternary = [3]uint64{0, 1, ^uint64(0)}

// cbdK is the parameter of the centered binomial distribution used for
// error sampling: sum of cbdK bits minus sum of cbdK bits, giving
// variance cbdK/2 (σ ≈ 3.2 for cbdK = 21, matching the HE standard).
const cbdK = 21

// Error fills p with centered-binomial noise of standard deviation
// ≈ 3.2 (the error distribution mandated by the HE security standard).
// A coefficient consumes 2·cbdK = 42 bits of a 6-byte group: the
// population counts of its two 21-bit halves, subtracted.
func (s *Sampler) Error(p *Poly) error {
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	n := s.r.N
	buf := (*bp)[:6*n+2] // 8-byte loads at stride 6 overrun by 2 masked-off bytes
	if err := s.fill(buf[:6*n]); err != nil {
		return err
	}
	const mask = 1<<cbdK - 1
	row := p.Coeffs[0]
	for j := range row {
		x := binary.LittleEndian.Uint64(buf[6*j:])
		row[j] = uint64(int64(bits.OnesCount64(x&mask)) - int64(bits.OnesCount64(x>>cbdK&mask)))
	}
	s.r.spreadSigned(p)
	return nil
}

// spreadSigned expands row 0 of p, holding small signed integers in
// two's complement, into their residues mod every prime (row 0 last).
func (r *Ring) spreadSigned(p *Poly) {
	src := p.Coeffs[0]
	for i := len(r.Primes) - 1; i >= 0; i-- {
		pr, dst := r.Primes[i], p.Coeffs[i]
		for j, v := range src {
			dst[j] = v + uint64(int64(v)>>63)&pr
		}
	}
}

// SetSmall writes a small signed coefficient vector (e.g. a plaintext
// lifted to R_Q) into p, zeroing any remaining coefficients.
func (r *Ring) SetSmall(p *Poly, coeffs []int64) {
	for j, c := range coeffs {
		for i, pr := range r.Primes {
			if c >= 0 {
				p.Coeffs[i][j] = uint64(c) % pr
			} else {
				p.Coeffs[i][j] = pr - uint64(-c)%pr
			}
		}
	}
	for j := len(coeffs); j < r.N; j++ {
		for i := range r.Primes {
			p.Coeffs[i][j] = 0
		}
	}
}

// InfNormCenteredLog2 returns log2 of the infinity norm of p under the
// centered representative (or 0 for the zero polynomial). Used for
// noise diagnostics and tests.
func (r *Ring) InfNormCenteredLog2(p *Poly) float64 {
	res := make([]uint64, len(r.Primes))
	var tmp big.Int
	maxBits := 0.0
	for j := 0; j < r.N; j++ {
		for i := range r.Primes {
			res[i] = p.Coeffs[i][j]
		}
		r.crt.ReconstructCentered(&tmp, res)
		tmp.Abs(&tmp)
		if tmp.Sign() == 0 {
			continue
		}
		bits := bigLog2(&tmp)
		if bits > maxBits {
			maxBits = bits
		}
	}
	return maxBits
}

// bigLog2 returns log2(x) for a positive big integer x.
func bigLog2(x *big.Int) float64 {
	f := new(big.Float).SetInt(x)
	mant := new(big.Float)
	exp := f.MantExp(mant)
	m, _ := mant.Float64()
	return float64(exp) + math.Log2(m)
}
