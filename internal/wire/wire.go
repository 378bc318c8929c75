// Package wire is the checksummed binary format that moves compiled
// serving artifacts between processes. The artifact is a registry: a
// manifest of named execution plans compiled for one parameter set,
// with the one key-material section they share (the relinearization
// key and the canonical Galois set every plan and every slot-
// multiplexing lane geometry needs), pinned to a parameter
// fingerprint. A single kernel travels as a registry of one.
//
// The deployment model follows the paper's Figure 1 split, extended
// across processes: one process compiles the kernels, builds keys, and
// exports a registry; any number of serving processes load it and
// execute every plan bit-identically, without ever holding the secret
// key (registries carry only evaluation keys, which are public by
// construction). Requests and responses between a client and a serving
// process use the same envelope with their own tags.
//
// Envelope layout (little-endian):
//
//	magic "PCPN" | version u8 | tag u8 | payloadLen u64 | payload | sha256(all preceding bytes)
//
// The payload embeds bfv objects as length-prefixed sections in bfv's
// own encoding, whose polynomial rows are bit-packed at ⌈log₂ p_i⌉ bits
// per residue (internal/ring). A request ciphertext fresh from the
// keyholder's secret-key encryption travels seeded, as c0 plus the
// 32-byte seed its uniform c1 expands to, and DecodeRequest expands it
// again; every other ciphertext carries all its polynomials. Encoders
// append into one buffer allocated at the envelope's exact size;
// decoders place ciphertexts in ring-pool polynomials.
//
// Version 8 is the one version this build reads and writes: any other
// fails with ErrVersion (artifacts are cheap to re-export). Decoding is
// strict and total: truncation, bit flips, foreign data, and
// semantically malformed payloads (a plan indexing a register it never
// allocated, a residue outside its prime, an undeclared rotation) all
// yield typed errors — never a panic, and never an object that would
// fail later inside a session's execution loop. The error classes are
// ErrMagic, ErrVersion, ErrTag, ErrTruncated, ErrChecksum,
// ErrFingerprint and ErrInvalid; match with errors.Is. Encodings are
// canonical: a decoded object re-encodes to the same bytes.
package wire

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

const (
	magic = "PCPN"
	// Version is the one wire-format version this build reads and
	// writes: v8 bit-packs residue rows, carries fresh ciphertexts
	// seeded, and encodes one member list per plan step (shared
	// rotation groups). Prepared NTT operand forms are derived at decode
	// time, never serialized.
	Version    = 8
	MinVersion = Version
)

// Object tags. The values are part of the v8 encoding and stay
// pinned; tag 1 belonged to the retired single-plan bundle, which every
// decoder now refuses with ErrTag.
const (
	tagRequest  byte = 2
	tagResponse byte = 3
	tagRegistry byte = 4
)

// Typed decode errors (match with errors.Is).
var (
	ErrMagic       = errors.New("wire: bad magic (not a porcupine wire object)")
	ErrVersion     = errors.New("wire: unsupported format version")
	ErrTag         = errors.New("wire: wrong object kind")
	ErrTruncated   = errors.New("wire: truncated stream")
	ErrChecksum    = errors.New("wire: checksum mismatch (corrupted stream)")
	ErrFingerprint = errors.New("wire: parameter fingerprint mismatch")
	ErrInvalid     = errors.New("wire: invalid object")
)

// Request is one serving request: the encrypted inputs and the
// plaintext input vectors of a plan execution.
type Request struct {
	CtIn []*bfv.Ciphertext
	PtIn []quill.Vec
}

// ---- encoder ----

// writer appends one envelope's payload; a sizing writer (nil buf)
// only counts the bytes (see encode).
type writer struct {
	buf    []byte
	n      int             // bytes counted by a sizing writer
	params *bfv.Parameters // the parameter set bfv objects encode under
}

// put reserves the next n bytes for filling (nil when sizing).
func (w *writer) put(n int) []byte {
	if w.buf == nil {
		w.n += n
		return nil
	}
	w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

func (w *writer) raw(b []byte) {
	if p := w.put(len(b)); p != nil {
		copy(p, b)
	}
}

func (w *writer) u8(v byte) { w.raw([]byte{v}) }

func (w *writer) u32(v uint32) {
	if p := w.put(4); p != nil {
		binary.LittleEndian.PutUint32(p, v)
	}
}

func (w *writer) u64(v uint64) {
	if p := w.put(8); p != nil {
		binary.LittleEndian.PutUint64(p, v)
	}
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if p := w.put(len(s)); p != nil {
		copy(p, s)
	}
}

func (w *writer) u64s(v []uint64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}

// obj writes a length-prefixed bfv object.
func (w *writer) obj(o bfv.Object) {
	n := w.params.BinarySize(o)
	w.u32(uint32(n))
	if p := w.put(n); p != nil {
		w.params.AppendBinary(p[:0], o)
	}
}

// fingerprint writes the parameter fingerprint every object leads with.
func (w *writer) fingerprint() {
	fp := w.params.Fingerprint()
	w.raw(fp[:])
}

// encode builds one envelope of the given tag around body's payload:
// body runs once to size the payload and once to write it into a
// buffer allocated at exactly the envelope's size, checksum included.
func encode(params *bfv.Parameters, tag byte, body func(*writer) error) ([]byte, error) {
	size := &writer{params: params}
	if err := body(size); err != nil {
		return nil, err
	}
	w := &writer{buf: make([]byte, headerLen, headerLen+size.n+sumLen), params: params}
	copy(w.buf, magic)
	w.buf[4], w.buf[5] = Version, tag
	binary.LittleEndian.PutUint64(w.buf[6:], uint64(size.n))
	if err := body(w); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...), nil
}

const headerLen = 4 + 1 + 1 + 8 // magic, version, tag, payloadLen
const sumLen = sha256.Size

// ---- decoder ----

type reader struct {
	buf []byte // payload only
	off int
	err error
}

// open validates the envelope (magic, version, tag, length, checksum)
// and returns a reader over the payload. A request or response names
// the serving parameters, whose fingerprint its payload must lead with.
func open(data []byte, wantTag byte, params *bfv.Parameters) (*reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), headerLen)
	}
	if string(data[:4]) != magic {
		return nil, ErrMagic
	}
	if v := data[4]; v < MinVersion || v > Version {
		return nil, fmt.Errorf("%w: got version %d, this build reads version %d", ErrVersion, v, Version)
	}
	if tag := data[5]; tag != wantTag {
		return nil, fmt.Errorf("%w: object tag %d, want %d", ErrTag, tag, wantTag)
	}
	payloadLen := binary.LittleEndian.Uint64(data[6:])
	want := headerLen + payloadLen + sumLen
	if payloadLen > uint64(len(data)) || uint64(len(data)) < want {
		return nil, fmt.Errorf("%w: %d bytes, envelope declares %d", ErrTruncated, len(data), want)
	}
	if uint64(len(data)) > want {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrInvalid, uint64(len(data))-want)
	}
	body := data[:headerLen+payloadLen]
	sum := sha256.Sum256(body)
	if subtle.ConstantTimeCompare(sum[:], data[headerLen+payloadLen:]) != 1 {
		return nil, ErrChecksum
	}
	r := &reader{buf: data[headerLen : headerLen+payloadLen]}
	if params != nil {
		fp, err := r.fingerprint()
		if err == nil && fp != params.Fingerprint() {
			err = fmt.Errorf("%w: object built for %x, serving parameters are %x", ErrFingerprint, fp, params.Fingerprint())
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *reader) fail() {
	if r.err == nil {
		// Inside a checksum-valid payload, running out of bytes means
		// the object is malformed, not truncated in transit.
		r.err = fmt.Errorf("%w: payload ends mid-field", ErrInvalid)
	}
}

// take consumes the next n payload bytes, or fails the reader.
func (r *reader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
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

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads a u32 element count and checks that at least count ×
// elemSize bytes remain, so corrupted counts fail before allocating.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || r.off+n*elemSize > len(r.buf) {
		r.fail()
		return 0
	}
	return n
}

func (r *reader) bytes() []byte { return r.take(r.count(1)) }

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) u64s() []uint64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d unread payload bytes", ErrInvalid, len(r.buf)-r.off)
	}
	return nil
}

// ---- plan section ----

func encodePlan(w *writer, p *plan.ExecutionPlan) error {
	if p.Source == nil {
		return fmt.Errorf("wire: plan has no source program")
	}
	w.u32(uint32(p.N))
	w.u32(uint32(p.VecLen))
	w.u32(uint32(p.NumCtInputs))
	w.u32(uint32(p.NumPtInputs))
	w.u32(uint32(len(p.RegDeg)))
	for _, d := range p.RegDeg {
		w.u8(byte(d))
	}
	// One domain byte per register, in register order.
	for _, d := range p.RegDomain {
		w.u8(byte(d))
	}
	w.u32(uint32(len(p.Steps)))
	for i := range p.Steps {
		st := &p.Steps[i]
		w.u8(byte(st.Op))
		w.u32(uint32(st.Dst))
		w.i64(int64(st.A))
		w.i64(int64(st.B))
		w.i64(int64(st.Rot))
		w.i64(int64(st.Pt))
		w.i64(int64(st.Con))
		// The shared member list, empty for steps of other kinds. A
		// member carries its decomposition slot and a strict 0/1 fill
		// flag.
		w.u32(uint32(len(st.Shared)))
		for _, m := range st.Shared {
			w.i64(int64(m.Src))
			w.u32(uint32(m.Dst))
			w.u32(uint32(m.Slot))
			if m.Fresh {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
	}
	w.u32(uint32(len(p.Consts)))
	for _, pt := range p.Consts {
		w.obj(pt)
	}
	w.u32(uint32(len(p.Rotations)))
	for _, r := range p.Rotations {
		w.i64(int64(r))
	}
	w.i64(int64(p.Out))
	w.str(p.Source.String())
	return nil
}

const (
	stepWireSize   = 1 + 4 + 5*8   // fixed step fields, before the member list
	sharedWireSize = 8 + 4 + 4 + 1 // src i64, dst u32, slot u32, fresh u8
)

func decodePlan(r *reader, params *bfv.Parameters) (*plan.ExecutionPlan, error) {
	p := &plan.ExecutionPlan{
		N:           int(r.u32()),
		VecLen:      int(r.u32()),
		NumCtInputs: int(r.u32()),
		NumPtInputs: int(r.u32()),
	}
	nRegs := r.count(1)
	p.NumRegs = nRegs
	p.RegDeg = make([]int, 0, nRegs)
	for _, d := range r.take(nRegs) {
		p.RegDeg = append(p.RegDeg, int(d))
	}
	p.RegDomain = make([]plan.Domain, 0, nRegs)
	for _, d := range r.take(nRegs) {
		p.RegDomain = append(p.RegDomain, plan.Domain(d))
	}
	nSteps := r.count(stepWireSize)
	p.Steps = make([]plan.Step, 0, nSteps)
	for i := 0; i < nSteps; i++ {
		st := plan.Step{
			Op:  quill.Op(r.u8()),
			Dst: int(r.u32()),
			A:   int(r.i64()),
			B:   int(r.i64()),
			Rot: int(r.i64()),
			Pt:  int(r.i64()),
			Con: int(r.i64()),
		}
		nShared := r.count(sharedWireSize)
		for m := 0; m < nShared; m++ {
			sm := plan.SharedSrc{Src: int(r.i64()), Dst: int(r.u32()), Slot: int(r.u32())}
			// Every live slot pins its source in a distinct register or
			// input, so a well-formed plan never has more slots than
			// operand codes; rejecting larger indices here keeps a
			// flipped slot byte from inflating the derived NumDecomps
			// (and the allocations sized by it) before plan.Validate
			// proves slot denseness.
			if sm.Slot >= p.NumCtInputs+nRegs {
				return nil, fmt.Errorf("%w: decomposition slot %d out of range", ErrInvalid, sm.Slot)
			}
			switch r.u8() {
			case 0:
			case 1:
				sm.Fresh = true
			default:
				return nil, fmt.Errorf("%w: shared member fill flag is neither 0 nor 1", ErrInvalid)
			}
			st.Shared = append(st.Shared, sm)
		}
		p.Steps = append(p.Steps, st)
		// NumDecomps is sized by the register allocator at compile time;
		// derived, not serialized (plan.Validate checks the
		// consistency): the peak slot index + 1.
		for _, sm := range st.Shared {
			if sm.Slot >= 0 && sm.Slot+1 > p.NumDecomps {
				p.NumDecomps = sm.Slot + 1
			}
		}
	}
	nConsts := r.count(4)
	for i := 0; i < nConsts; i++ {
		pt, err := section(r, "plaintext", params.UnmarshalPlaintext)
		if err != nil {
			return nil, err
		}
		p.Consts = append(p.Consts, pt)
	}
	nRots := r.count(8)
	for i := 0; i < nRots; i++ {
		p.Rotations = append(p.Rotations, int(r.i64()))
	}
	p.Out = int(r.i64())
	src := r.str()
	if r.err != nil {
		return nil, r.err
	}
	l, err := quill.ParseLowered(src)
	if err != nil {
		return nil, fmt.Errorf("%w: plan source program: %v", ErrInvalid, err)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("%w: plan source program: %v", ErrInvalid, err)
	}
	if l.VecLen != p.VecLen || l.NumCtInputs != p.NumCtInputs || l.NumPtInputs != p.NumPtInputs {
		return nil, fmt.Errorf("%w: plan source shape (vec=%d ct=%d pt=%d) disagrees with plan (vec=%d ct=%d pt=%d)",
			ErrInvalid, l.VecLen, l.NumCtInputs, l.NumPtInputs, p.VecLen, p.NumCtInputs, p.NumPtInputs)
	}
	p.Source = l
	// Lift slots are derived like NumDecomps, before Validate checks them.
	p.AssignLifts()
	if err := p.Validate(params); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Derive the prepared NTT operand forms (constants and
	// plaintext-input flags) the executor dispatches on. Derived from
	// the validated plan, never trusted from the wire.
	p.Prepare(params)
	return p, nil
}

// ---- request / response ----

func encodeRequestBody(w *writer, req *Request) {
	w.u32(uint32(len(req.CtIn)))
	for _, ct := range req.CtIn {
		w.obj(ct)
	}
	w.u32(uint32(len(req.PtIn)))
	for _, v := range req.PtIn {
		w.u64s(v)
	}
}

func decodeRequestBody(r *reader, params *bfv.Parameters) (*Request, error) {
	req := &Request{}
	fail := func(err error) (*Request, error) {
		recycle(params, req.CtIn)
		return nil, err
	}
	nCt := r.count(4)
	for i := 0; i < nCt; i++ {
		ct, err := section(r, "ciphertext", params.UnmarshalCiphertext)
		if err != nil {
			return fail(err)
		}
		req.CtIn = append(req.CtIn, ct)
	}
	nPt := r.count(4)
	for i := 0; i < nPt; i++ {
		v := r.u64s()
		if r.err != nil {
			return fail(r.err)
		}
		if len(v) > params.SlotCount() {
			return fail(fmt.Errorf("%w: plaintext vector of %d slots exceeds row size %d", ErrInvalid, len(v), params.SlotCount()))
		}
		for _, x := range v {
			if x >= params.T {
				return fail(fmt.Errorf("%w: plaintext value %d outside Z_%d", ErrInvalid, x, params.T))
			}
		}
		req.PtIn = append(req.PtIn, quill.Vec(v))
	}
	if r.err != nil {
		return fail(r.err)
	}
	return req, nil
}

// encodeSample writes an optional self-test: a presence byte, then the
// sample request and the expected output (see decodeSample).
func encodeSample(w *writer, sample *Request, expected *bfv.Ciphertext) {
	if sample == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	encodeRequestBody(w, sample)
	w.obj(expected)
}

// decodeSample reads encodeSample's optional self-test and checks its
// shape against the plan it tests.
func decodeSample(r *reader, params *bfv.Parameters, p *plan.ExecutionPlan) (*Request, *bfv.Ciphertext, error) {
	switch r.u8() {
	case 0:
		return nil, nil, r.err
	case 1:
	default:
		return nil, nil, fmt.Errorf("%w: self-test presence byte is neither 0 nor 1", ErrInvalid)
	}
	sample, err := decodeRequestBody(r, params)
	if err != nil {
		return nil, nil, err
	}
	expected, err := section(r, "ciphertext", params.UnmarshalCiphertext)
	if err != nil {
		return nil, nil, err
	}
	if len(sample.CtIn) != p.NumCtInputs || len(sample.PtIn) != p.NumPtInputs {
		return nil, nil, fmt.Errorf("%w: self-test sample has %d ct / %d pt inputs, plan wants %d / %d",
			ErrInvalid, len(sample.CtIn), len(sample.PtIn), p.NumCtInputs, p.NumPtInputs)
	}
	return sample, expected, nil
}

// recycle returns decoded ciphertexts to the ring pool.
func recycle(params *bfv.Parameters, cts []*bfv.Ciphertext) {
	for _, ct := range cts {
		params.RecycleCiphertext(ct)
	}
}

// EncodeRequest serializes a request, pinning it to the parameter
// fingerprint so a serving process rejects requests encrypted under
// different parameters. Seeded input ciphertexts travel as c0 plus
// their seed.
func EncodeRequest(params *bfv.Parameters, req *Request) ([]byte, error) {
	return encode(params, tagRequest, func(w *writer) error {
		w.fingerprint()
		encodeRequestBody(w, req)
		return nil
	})
}

// RequestSizeBound is the largest legitimate encoded request for a
// plan with numCt ciphertext and numPt plaintext inputs under params:
// every ciphertext a full degree-1 one (a seeded one is smaller), every
// plaintext vector a full slot row. A serving process refuses larger
// bodies before reading them.
func RequestSizeBound(params *bfv.Parameters, numCt, numPt int) int {
	full := params.NewCiphertextUninit(1)
	defer params.RecycleCiphertext(full)
	return headerLen + 16 + 4 + numCt*(4+params.BinarySize(full)) + 4 + numPt*(4+8*params.SlotCount()) + sumLen
}

// DecodeRequest decodes and validates a request against the serving
// parameters. Its ciphertexts come from the ring pool: hand them to
// RecycleCiphertext once the run that reads them has ended.
func DecodeRequest(params *bfv.Parameters, data []byte) (*Request, error) {
	r, err := open(data, tagRequest, params)
	if err != nil {
		return nil, err
	}
	req, err := decodeRequestBody(r, params)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		recycle(params, req.CtIn)
		return nil, err
	}
	return req, nil
}

// EncodeResponse serializes one output ciphertext.
func EncodeResponse(params *bfv.Parameters, out *bfv.Ciphertext) ([]byte, error) {
	return encode(params, tagResponse, func(w *writer) error {
		w.fingerprint()
		w.obj(out)
		return nil
	})
}

// DecodeResponse decodes a response produced under the same
// parameters, into ring-pool polynomials (see DecodeRequest).
func DecodeResponse(params *bfv.Parameters, data []byte) (*bfv.Ciphertext, error) {
	r, err := open(data, tagResponse, params)
	if err != nil {
		return nil, err
	}
	ct, err := section(r, "ciphertext", params.UnmarshalCiphertext)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		params.RecycleCiphertext(ct)
		return nil, err
	}
	return ct, nil
}

// fingerprint reads the leading parameter fingerprint.
func (r *reader) fingerprint() ([16]byte, error) {
	var fp [16]byte
	if b := r.take(len(fp)); b != nil {
		copy(fp[:], b)
	}
	return fp, r.err
}

// params reads the length-prefixed parameter set and checks it against
// the fingerprint the payload led with.
func (r *reader) params(fp [16]byte) (*bfv.Parameters, error) {
	params, err := section(r, "parameters", bfv.UnmarshalParameters)
	if err == nil && params.Fingerprint() != fp {
		err = fmt.Errorf("%w: header %x, decoded parameters %x", ErrFingerprint, fp, params.Fingerprint())
	}
	return params, err
}

// section decodes the next length-prefixed bfv object, typing its
// failure as ErrInvalid.
func section[T any](r *reader, what string, decode func([]byte) (T, error)) (T, error) {
	var v T
	blob := r.bytes()
	if r.err != nil {
		return v, r.err
	}
	v, err := decode(blob)
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", ErrInvalid, what, err)
	}
	return v, err
}

// uncovered returns the first of rots whose Galois key gk lacks.
func uncovered(params *bfv.Parameters, gk *bfv.GaloisKeys, rots []int) (int, bool) {
	for _, rot := range rots {
		if g := params.GaloisElement(rot); g != 1 && !gk.HasElement(g) {
			return rot, true
		}
	}
	return 0, false
}
