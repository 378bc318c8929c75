package ring

import (
	mrand "math/rand"
	"testing"
)

func serializeTestRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRing(64, []uint64{257, 641}) // ≡ 1 mod 2N = 128
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPolyBinaryRoundTrip(t *testing.T) {
	for _, r := range []*Ring{serializeTestRing(t), testRing(t, 4096, 3)} {
		p := r.NewPoly()
		rng := mrand.New(mrand.NewSource(5))
		for i, pr := range r.Primes {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = rng.Uint64() % pr
			}
			p.Coeffs[i][0], p.Coeffs[i][r.N-1] = pr-1, 0 // the extremes of the row
		}
		buf := r.AppendPoly(nil, p)
		if len(buf) != r.PolyWireSize() {
			t.Fatalf("encoded %d bytes, PolyWireSize says %d", len(buf), r.PolyWireSize())
		}
		want := 8
		for _, pr := range r.Primes {
			want += r.N * PackedWidth(pr) / 8
		}
		if len(buf) != want {
			t.Fatalf("N=%d: encoded %d bytes, want %d at ⌈log₂ p⌉ bits per residue", r.N, len(buf), want)
		}
		q := r.GetPolyNoZero()
		n, err := r.ReadPoly(q, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if !r.Equal(p, q) {
			t.Fatal("round trip changed the polynomial")
		}
	}
}

// TestPackedRoundTrip runs the bit packer over every width a modulus
// can have (primes stay below 2^62), value counts that do and do not
// fill whole words, and the largest value of each width, against a
// bit-at-a-time reading.
func TestPackedRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for width := 1; width <= 62; width++ {
		for _, n := range []int{1, 3, 8, 17, 64, 1000} {
			vals := make([]uint64, n)
			mask := uint64(1)<<width - 1
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			vals[n-1] = mask
			prefix := []byte{0xAA}
			buf := AppendPacked(prefix, vals, width)
			if len(buf) != 1+PackedSize(n, width) {
				t.Fatalf("width %d, %d values: %d bytes, want %d", width, n, len(buf)-1, PackedSize(n, width))
			}
			for i, v := range vals {
				var got uint64
				for b := 0; b < width; b++ {
					bit := i*width + b
					got |= uint64(buf[1+bit/8]>>(bit%8)&1) << b
				}
				if got != v {
					t.Fatalf("width %d: value %d packed as %d, want %d", width, i, got, v)
				}
			}
			out := make([]uint64, n)
			if _, err := ReadPacked(out, buf[1:], width, mask); err == nil {
				t.Fatalf("width %d: value at the bound accepted", width)
			}
			m, err := ReadPacked(out, buf[1:], width, mask+1)
			if err != nil {
				t.Fatalf("width %d, %d values: %v", width, n, err)
			}
			if m != len(buf)-1 {
				t.Fatalf("width %d: consumed %d of %d bytes", width, m, len(buf)-1)
			}
			for i := range vals {
				if out[i] != vals[i] {
					t.Fatalf("width %d: value %d read back as %d, want %d", width, i, out[i], vals[i])
				}
			}
		}
	}
}

func TestReadPolyRejectsMalformed(t *testing.T) {
	r := serializeTestRing(t)
	p := r.NewPoly()
	good := r.AppendPoly(nil, p)
	q := r.NewPoly()

	cases := map[string][]byte{
		"empty":            nil,
		"truncated-header": good[:4],
		"truncated-body":   good[:len(good)-1],
	}
	for name, data := range cases {
		if _, err := r.ReadPoly(q, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Wrong shape: a poly of another ring.
	r2, err := NewRing(32, []uint64{193, 257, 449}) // ≡ 1 mod 64
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPoly(q, r2.AppendPoly(nil, r2.NewPoly())); err == nil {
		t.Error("foreign-ring poly accepted")
	}

	// Residue out of range for its prime: decode must refuse rather
	// than hand the NTT an unreduced value. 257 packs at 9 bits, so
	// setting the first residue's bits to all ones gives 511.
	bad := append([]byte(nil), good...)
	bad[8], bad[9] = 0xFF, bad[9]|1
	if _, err := r.ReadPoly(q, bad); err == nil {
		t.Error("out-of-range residue accepted")
	}

	// A packed row whose bit count is not a whole number of bytes must
	// keep its padding bits clear, so an encoding stays canonical.
	padded := AppendPacked(nil, []uint64{5}, 3)
	padded[0] |= 0x80
	if _, err := ReadPacked(make([]uint64, 1), padded, 3, 8); err == nil {
		t.Error("set padding bit accepted")
	}
}
