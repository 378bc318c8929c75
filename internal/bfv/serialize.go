package bfv

import (
	"encoding/binary"
	"fmt"
	"slices"

	"porcupine/internal/ring"
)

// Binary serialization for the BFV objects a client and server
// exchange: parameters, plaintexts, ciphertexts, and the public
// evaluation keys, versioned and little-endian:
//
//	magic "PBFV" | version u8 | tag u8 | payload
//
// Objects encode under a parameter set, which fixes the widths of their
// bit-packed rows, straight into the caller's buffer
// (Parameters.AppendBinary, sized by Parameters.BinarySize). Payloads,
// with "poly" the packed layout of internal/ring:
//
//	parameters     u32 N | u32 k | k × u64 prime
//	plaintext      u32 N | N coefficients packed at ⌈log₂ t⌉ bits
//	ciphertext     u32 polys | u8 seeded | seeded: 32-byte seed | poly c0
//	                                     | else:   polys × poly
//	switching key  u32 digits | digits × (poly b | poly a)
//	relin key      switching key
//	Galois keys    u32 count | count × (u64 element | switching key), ascending
//
// A seeded ciphertext is a fresh secret-key encryption; the decoder
// expands its c1 from the seed again (see Encryptor.Encrypt). Encodings
// are canonical. Secret keys are not serializable: in the paper's
// deployment model (Figure 1) the secret key never leaves the client.

const (
	serialMagic   = "PBFV"
	serialVersion = 3 // v3: bit-packed residue rows and the seeded ciphertext form
	headerSize    = len(serialMagic) + 2
)

const (
	tagParams byte = iota + 1
	tagPlaintext
	tagCiphertext
	tagRelinKey
	tagGaloisKeys
)

// Object is a value with a binary encoding under a parameter set:
// *Parameters, *Plaintext, *Ciphertext, *RelinearizationKey and
// *GaloisKeys.
type Object interface {
	tag() byte
	binarySize(p *Parameters) int
	appendBinary(p *Parameters, buf []byte) []byte
}

// BinarySize returns the exact size in bytes of o's encoding under p.
func (p *Parameters) BinarySize(o Object) int { return headerSize + o.binarySize(p) }

// AppendBinary appends o's encoding under p to buf, growing it at most
// once, and returns the extended buffer.
func (p *Parameters) AppendBinary(buf []byte, o Object) []byte {
	buf = slices.Grow(buf, p.BinarySize(o))
	buf = append(buf, serialMagic...)
	buf = append(buf, serialVersion, o.tag())
	return o.appendBinary(p, buf)
}

func appendU32(buf []byte, v int) []byte { return binary.LittleEndian.AppendUint32(buf, uint32(v)) }

type reader struct {
	buf []byte
	off int
	err error
}

func newReader(data []byte, wantTag byte) *reader {
	r := &reader{buf: data, off: headerSize}
	switch {
	case len(data) < headerSize || string(data[:4]) != serialMagic:
		r.err = fmt.Errorf("bfv: bad magic")
	case data[4] != serialVersion:
		r.err = fmt.Errorf("bfv: unsupported serialization version %d", data[4])
	case data[5] != wantTag:
		r.err = fmt.Errorf("bfv: wrong object tag %d (want %d)", data[5], wantTag)
	}
	return r
}

// take consumes the next n bytes, or fails the reader.
func (r *reader) take(n int) []byte {
	if r.err != nil || n > len(r.buf)-r.off {
		r.fail()
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() int {
	if b := r.take(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// poly reads one packed polynomial into p.
func (r *reader) poly(ringQ *ring.Ring, p *ring.Poly) {
	if r.err == nil {
		r.advance(ringQ.ReadPoly(p, r.buf[r.off:]))
	}
}

// packed reads len(dst) values below bound, packed at ⌈log₂ bound⌉ bits.
func (r *reader) packed(dst []uint64, bound uint64) {
	if r.err == nil {
		r.advance(ring.ReadPacked(dst, r.buf[r.off:], ring.PackedWidth(bound), bound))
	}
}

func (r *reader) advance(n int, err error) {
	if err != nil {
		r.err = fmt.Errorf("bfv: %w", err)
	}
	r.off += n
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("bfv: truncated serialization")
	}
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("bfv: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (p *Parameters) tag() byte                  { return tagParams }
func (p *Parameters) binarySize(*Parameters) int { return 8 + 8*len(p.QPrimes) }
func (p *Parameters) appendBinary(_ *Parameters, buf []byte) []byte {
	buf = appendU32(appendU32(buf, p.N), len(p.QPrimes))
	for _, q := range p.QPrimes {
		buf = binary.LittleEndian.AppendUint64(buf, q)
	}
	return buf
}

// UnmarshalParameters reconstructs a parameter set (with all derived
// tables) from its encoding.
func UnmarshalParameters(data []byte) (*Parameters, error) {
	r := newReader(data, tagParams)
	n, k := r.u32(), r.u32()
	var primes []uint64
	for i := 0; i < k && r.err == nil; i++ {
		primes = append(primes, r.u64())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return newParameters(n, primes)
}

func (pt *Plaintext) tag() byte { return tagPlaintext }
func (pt *Plaintext) binarySize(p *Parameters) int {
	return 4 + ring.PackedSize(len(pt.Coeffs), ring.PackedWidth(p.T))
}
func (pt *Plaintext) appendBinary(p *Parameters, buf []byte) []byte {
	return ring.AppendPacked(appendU32(buf, len(pt.Coeffs)), pt.Coeffs, ring.PackedWidth(p.T))
}

// UnmarshalPlaintext decodes a plaintext for this parameter set.
func (p *Parameters) UnmarshalPlaintext(data []byte) (*Plaintext, error) {
	r := newReader(data, tagPlaintext)
	if n := r.u32(); r.err == nil && n != p.N {
		return nil, fmt.Errorf("bfv: plaintext has %d coefficients, want %d", n, p.N)
	}
	pt := p.NewPlaintext()
	r.packed(pt.Coeffs, p.T)
	if err := r.done(); err != nil {
		return nil, err
	}
	return pt, nil
}

func (ct *Ciphertext) tag() byte { return tagCiphertext }
func (ct *Ciphertext) binarySize(p *Parameters) int {
	if ct.seeded {
		return 5 + SeedSize + p.ringQ.PolyWireSize()
	}
	return 5 + len(ct.Value)*p.ringQ.PolyWireSize()
}
func (ct *Ciphertext) appendBinary(p *Parameters, buf []byte) []byte {
	buf = appendU32(buf, len(ct.Value))
	if ct.seeded {
		buf = append(append(buf, 1), ct.seed[:]...)
		return p.ringQ.AppendPoly(buf, ct.Value[0])
	}
	buf = append(buf, 0)
	for _, v := range ct.Value {
		buf = p.ringQ.AppendPoly(buf, v)
	}
	return buf
}

// UnmarshalCiphertext decodes a ciphertext for this parameter set into
// polynomials of the ring pool (hand it to RecycleCiphertext when
// done). A seeded ciphertext has its c1 expanded from the seed and
// keeps the seed, so it re-encodes in the same compact form.
func (p *Parameters) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := newReader(data, tagCiphertext)
	n, seeded := r.u32(), r.u8()
	if r.err != nil {
		return nil, r.err
	}
	if n < 1 || n > 8 {
		return nil, fmt.Errorf("bfv: implausible ciphertext size %d", n)
	}
	body := n * p.ringQ.PolyWireSize()
	switch {
	case seeded == 1 && n == 2:
		body = SeedSize + p.ringQ.PolyWireSize()
	case seeded != 0:
		return nil, fmt.Errorf("bfv: seed flag %d on a %d-polynomial ciphertext", seeded, n)
	}
	if len(r.buf)-r.off != body {
		return nil, fmt.Errorf("bfv: ciphertext body is %d bytes, want %d", len(r.buf)-r.off, body)
	}
	ct := p.NewCiphertextUninit(n - 1)
	if seeded == 1 {
		copy(ct.seed[:], r.take(SeedSize))
		r.poly(p.ringQ, ct.Value[0])
	} else {
		for _, v := range ct.Value {
			r.poly(p.ringQ, v)
		}
	}
	err := r.done()
	if err == nil && seeded == 1 {
		ct.seeded = true
		err = p.expandSeed(ct.Value[1], &ct.seed)
	}
	if err != nil {
		p.RecycleCiphertext(ct)
		return nil, err
	}
	return ct, nil
}

func (k *switchingKey) binarySize(ringQ *ring.Ring) int {
	return 4 + 2*len(k.B)*ringQ.PolyWireSize()
}

func (k *switchingKey) appendBinary(ringQ *ring.Ring, buf []byte) []byte {
	buf = appendU32(buf, len(k.B))
	for i := range k.B {
		buf = ringQ.AppendPoly(ringQ.AppendPoly(buf, k.B[i]), k.A[i])
	}
	return buf
}

func (r *reader) switchingKey(ringQ *ring.Ring) *switchingKey {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n != len(ringQ.Primes) {
		r.err = fmt.Errorf("bfv: switching key has %d digits, want %d", n, len(ringQ.Primes))
		return nil
	}
	k := &switchingKey{B: make([]*ring.Poly, n), A: make([]*ring.Poly, n)}
	for i := range k.B {
		k.B[i], k.A[i] = ringQ.NewPoly(), ringQ.NewPoly()
		r.poly(ringQ, k.B[i])
		r.poly(ringQ, k.A[i])
	}
	return k
}

func (rk *RelinearizationKey) tag() byte                    { return tagRelinKey }
func (rk *RelinearizationKey) binarySize(p *Parameters) int { return rk.key.binarySize(p.ringQ) }
func (rk *RelinearizationKey) appendBinary(p *Parameters, buf []byte) []byte {
	return rk.key.appendBinary(p.ringQ, buf)
}

// UnmarshalRelinearizationKey decodes a relinearization key.
func (p *Parameters) UnmarshalRelinearizationKey(data []byte) (*RelinearizationKey, error) {
	r := newReader(data, tagRelinKey)
	k := r.switchingKey(p.ringQ)
	if err := r.done(); err != nil {
		return nil, err
	}
	return &RelinearizationKey{key: k}, nil
}

func (gk *GaloisKeys) tag() byte { return tagGaloisKeys }
func (gk *GaloisKeys) binarySize(p *Parameters) int {
	n := 4
	for _, k := range gk.keys {
		n += 8 + k.binarySize(p.ringQ)
	}
	return n
}
func (gk *GaloisKeys) appendBinary(p *Parameters, buf []byte) []byte {
	buf = appendU32(buf, len(gk.keys))
	for _, g := range gk.Elements() {
		buf = binary.LittleEndian.AppendUint64(buf, g)
		buf = gk.keys[g].appendBinary(p.ringQ, buf)
	}
	return buf
}

// UnmarshalGaloisKeys decodes a Galois key set. Elements must be
// strictly ascending, the one order the encoder writes.
func (p *Parameters) UnmarshalGaloisKeys(data []byte) (*GaloisKeys, error) {
	r := newReader(data, tagGaloisKeys)
	n := r.u32()
	gk := &GaloisKeys{keys: map[uint64]*switchingKey{}}
	prev := uint64(0)
	for i := 0; i < n && r.err == nil; i++ {
		g := r.u64()
		if r.err == nil && i > 0 && g <= prev {
			return nil, fmt.Errorf("bfv: Galois elements out of order (%d after %d)", g, prev)
		}
		if k := r.switchingKey(p.ringQ); r.err == nil {
			gk.keys[g], prev = k, g
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return gk, nil
}
