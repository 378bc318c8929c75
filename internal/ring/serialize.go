package ring

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Binary polynomial encoding: the shared poly layout of the bfv object
// serializers and, through them, of internal/wire. A polynomial is
// encoded against a known Ring: a shape header, then one bit-packed
// row per prime,
//
//	u32 numPrimes | u32 degree | row_0 | … | row_{k-1}
//
// where row i holds the N residues mod p_i at b_i = ⌈log₂ p_i⌉ bits
// each, least-significant bit first (a 36-bit residue takes 4.5 bytes).
// N·b_i is a multiple of 8 at every supported degree, so rows are
// byte-aligned. Decoding validates the shape and that every residue is
// reduced modulo its prime, so hostile input yields an error rather
// than a polynomial that breaks the NTT invariants downstream; the
// encoding is canonical, so a decoded polynomial re-encodes byte for
// byte.

// PackedWidth returns the bit width of a packed value below bound:
// ⌈log₂ bound⌉, the bits of the largest value bound−1.
func PackedWidth(bound uint64) int { return bits.Len64(bound - 1) }

// PackedSize returns the size in bytes of n values packed at width
// bits.
func PackedSize(n, width int) int { return (n*width + 7) / 8 }

// AppendPacked appends vals at width bits each, least-significant bit
// first, growing buf at most once. Every value must fit in width bits.
func AppendPacked(buf []byte, vals []uint64, width int) []byte {
	off := len(buf)
	size := PackedSize(len(vals), width)
	buf = slices.Grow(buf, size)[:off+size]
	out := buf[off:]
	var acc uint64 // pending bits, low-aligned
	have, o := 0, 0
	for _, x := range vals {
		acc |= x << have
		if have += width; have >= 64 {
			binary.LittleEndian.PutUint64(out[o:], acc)
			o += 8
			have -= 64
			acc = x >> (width - have) // the bits of x that did not fit (0 when none)
		}
	}
	for ; have > 0; have -= 8 {
		out[o] = byte(acc)
		acc >>= 8
		o++
	}
	return buf
}

// ReadPacked fills dst with values packed at width bits from the front
// of data and returns the number of bytes consumed. A value at or
// above bound, or a set padding bit in the last byte, is an error.
func ReadPacked(dst []uint64, data []byte, width int, bound uint64) (int, error) {
	size := PackedSize(len(dst), width)
	if len(data) < size {
		return 0, fmt.Errorf("ring: truncated packed row (%d bytes, want %d)", len(data), size)
	}
	data = data[:size]
	mask := uint64(1)<<width - 1
	var acc uint64 // unread bits, low-aligned
	have, o := 0, 0
	for j := range dst {
		var x uint64
		if have >= width {
			x = acc & mask
			acc >>= width
			have -= width
		} else {
			// Refill: the next word supplies the value's high bits and
			// becomes the new reserve.
			var w uint64
			got := 64
			if o+8 <= size {
				w = binary.LittleEndian.Uint64(data[o:])
				o += 8
			} else {
				for k := size - 1; k >= o; k-- {
					w = w<<8 | uint64(data[k])
				}
				got, o = 8*(size-o), size
			}
			x = (acc | w<<have) & mask
			acc = w >> (width - have)
			have = got - (width - have)
		}
		if x >= bound {
			return 0, fmt.Errorf("ring: residue %d out of range for modulus %d", x, bound)
		}
		dst[j] = x
	}
	if acc != 0 {
		return 0, fmt.Errorf("ring: nonzero padding bits after a packed row")
	}
	return size, nil
}

// PolyWireSize returns the encoded size in bytes of one polynomial of
// this ring.
func (r *Ring) PolyWireSize() int {
	n := 8
	for _, p := range r.Primes {
		n += PackedSize(r.N, PackedWidth(p))
	}
	return n
}

// AppendPoly appends the packed encoding of p to buf and returns the
// extended buffer, growing it at most once.
func (r *Ring) AppendPoly(buf []byte, p *Poly) []byte {
	buf = binary.LittleEndian.AppendUint32(slices.Grow(buf, r.PolyWireSize()), uint32(len(r.Primes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.N))
	for i, pr := range r.Primes {
		buf = AppendPacked(buf, p.Coeffs[i], PackedWidth(pr))
	}
	return buf
}

// ReadPoly decodes one polynomial of this ring from the front of data
// into p (every coefficient is overwritten, so p may come from
// GetPolyNoZero) and returns the number of bytes consumed. The shape
// must match the ring exactly and every residue must be reduced modulo
// its prime; on error p holds garbage.
func (r *Ring) ReadPoly(p *Poly, data []byte) (int, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("ring: truncated poly header")
	}
	k, n := int(binary.LittleEndian.Uint32(data)), int(binary.LittleEndian.Uint32(data[4:]))
	if k != len(r.Primes) || n != r.N {
		return 0, fmt.Errorf("ring: poly of %d primes × degree %d, ring has %d × %d", k, n, len(r.Primes), r.N)
	}
	off := 8
	for i, pr := range r.Primes {
		m, err := ReadPacked(p.Coeffs[i], data[off:], PackedWidth(pr), pr)
		if err != nil {
			return 0, err
		}
		off += m
	}
	return off, nil
}
