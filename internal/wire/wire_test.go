package wire_test

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"porcupine/internal/backend"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// testProgram exercises every plan feature that crosses the wire:
// rotation (Galois key), ct-ct multiply + relinearization (relin key),
// a plaintext input, and a pre-encoded constant.
func testProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 3},
			{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
			{Op: quill.OpMulCtCt, Dst: 4, A: 3, B: 0},
			{Op: quill.OpRelin, Dst: 5, A: 4},
			{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: 0}},
			{Op: quill.OpAddCtPt, Dst: 7, A: 6, P: quill.PtRef{Input: -1, Const: []int64{5}}},
			{Op: quill.OpSubCtCt, Dst: 8, A: 7, B: 1},
		},
		Output: 8,
	}
}

// exportOneKernel builds a one-entry registry (with self-test sample)
// from a deterministic PN2048 context: the artifact a single kernel
// travels as.
func exportOneKernel(t *testing.T) (*backend.Context, *wire.Registry, []byte) {
	t.Helper()
	l := testProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 11, l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	mk := func() quill.Vec {
		v := make(quill.Vec, l.VecLen)
		for j := range v {
			v[j] = rng.Uint64() % 64
		}
		return v
	}
	sample := &wire.Request{PtIn: []quill.Vec{mk()}}
	for i := 0; i < l.NumCtInputs; i++ {
		ct, err := ctx.EncryptVec(mk())
		if err != nil {
			t.Fatal(err)
		}
		sample.CtIn = append(sample.CtIn, ct)
	}
	reg, err := serve.ExportRegistry(ctx, []string{"wire-test"}, plans, []*wire.Request{sample})
	if err != nil {
		t.Fatal(err)
	}
	data, err := reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ctx, reg, data
}

func TestOneKernelRegistryRoundTrip(t *testing.T) {
	ctx, orig, data := exportOneKernel(t)
	got, err := wire.DecodeRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Name != "wire-test" || got.Preset != orig.Preset {
		t.Fatalf("identity: got %v/%q, want [wire-test]/%q", got.Kernels(), got.Preset, orig.Preset)
	}
	if got.Params.Fingerprint() != ctx.Params.Fingerprint() {
		t.Error("decoded parameters have a different fingerprint")
	}
	p, q := orig.Entries[0].Plan, got.Entries[0].Plan
	if len(q.Steps) != len(p.Steps) || q.NumRegs != p.NumRegs || q.Out != p.Out || q.VecLen != p.VecLen {
		t.Fatalf("plan shape changed: %d steps / %d regs, want %d / %d", len(q.Steps), q.NumRegs, len(p.Steps), p.NumRegs)
	}
	for i := range p.Steps {
		if !reflect.DeepEqual(p.Steps[i], q.Steps[i]) {
			t.Fatalf("step %d changed across the wire: %+v != %+v", i, p.Steps[i], q.Steps[i])
		}
	}
	if q.NumDecomps != p.NumDecomps {
		t.Fatalf("NumDecomps = %d across the wire, want %d", q.NumDecomps, p.NumDecomps)
	}
	if q.NumLifts != p.NumLifts {
		t.Fatalf("NumLifts = %d across the wire, want %d", q.NumLifts, p.NumLifts)
	}

	// The decoded artifact must execute bit-identically in a sealed
	// context (no secret key) fed only from the registry.
	cat, err := serve.LoadRegistry(got, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Ctx.CanDecrypt() {
		t.Error("sealed context claims to hold the secret key")
	}
	ok, err := cat.SelfTest("wire-test")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("loaded plan output is not bit-identical to the exporter's")
	}
}

func TestOneKernelRegistryFileRoundTrip(t *testing.T) {
	_, orig, _ := exportOneKernel(t)
	path := filepath.Join(t.TempDir(), "kernel.pregistry")
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadRegistryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Name != "wire-test" || len(got.Entries[0].Plan.Steps) != len(orig.Entries[0].Plan.Steps) {
		t.Error("file round trip changed the registry")
	}
}

// resign recomputes the trailing checksum after a deliberate payload
// edit, so tests reach the validation layers behind it.
func resign(data []byte) {
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, _, data := exportOneKernel(t)

	check := func(t *testing.T, mutate func([]byte) []byte, want error) {
		t.Helper()
		d := mutate(append([]byte(nil), data...))
		_, err := wire.DecodeRegistry(d)
		if err == nil {
			t.Fatal("corrupted registry decoded successfully")
		}
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}

	t.Run("empty", func(t *testing.T) {
		check(t, func(d []byte) []byte { return nil }, wire.ErrTruncated)
	})
	t.Run("truncated-header", func(t *testing.T) {
		check(t, func(d []byte) []byte { return d[:7] }, wire.ErrTruncated)
	})
	t.Run("truncated-payload", func(t *testing.T) {
		check(t, func(d []byte) []byte { return d[:len(d)/2] }, wire.ErrTruncated)
	})
	t.Run("truncated-checksum", func(t *testing.T) {
		check(t, func(d []byte) []byte { return d[:len(d)-5] }, wire.ErrTruncated)
	})
	t.Run("bad-magic", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[0] = 'X'; return d }, wire.ErrMagic)
	})
	t.Run("future-version", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[4] = 250; resign(d); return d }, wire.ErrVersion)
	})
	t.Run("wrong-tag", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[5]++; resign(d); return d }, wire.ErrTag)
	})
	t.Run("flipped-checksum-byte", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }, wire.ErrChecksum)
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[len(d)/2] ^= 0x80; return d }, wire.ErrChecksum)
	})
	t.Run("wrong-fingerprint", func(t *testing.T) {
		// The fingerprint sits right after the 14-byte envelope
		// header; flip one of its bytes and resign so the checksum
		// passes — the semantic fingerprint check must still refuse.
		check(t, func(d []byte) []byte { d[14] ^= 0xFF; resign(d); return d }, wire.ErrFingerprint)
	})
	t.Run("trailing-junk", func(t *testing.T) {
		check(t, func(d []byte) []byte { return append(d, 0xAB) }, wire.ErrInvalid)
	})
}

// TestOtherVersionsRefused: v8 is the one readable version. An
// envelope of any earlier format (v1–v7, all retired) or of a future
// one fails with ErrVersion, whatever object it holds — even with a
// valid checksum over the restamped bytes. An envelope tagged 1, the
// retired single-plan bundle, fails every decoder with ErrTag.
func TestOtherVersionsRefused(t *testing.T) {
	ctx, one, _ := exportOneKernel(t)
	req, err := wire.EncodeRequest(ctx.Params, one.Entries[0].Sample)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.EncodeResponse(ctx.Params, one.Entries[0].Expected)
	if err != nil {
		t.Fatal(err)
	}
	_, _, registry := exportTestRegistry(t)
	decoders := map[string]struct {
		data   []byte
		decode func([]byte) error
	}{
		"request":  {req, func(d []byte) error { _, err := wire.DecodeRequest(ctx.Params, d); return err }},
		"response": {resp, func(d []byte) error { _, err := wire.DecodeResponse(ctx.Params, d); return err }},
		"registry": {registry, func(d []byte) error { _, err := wire.DecodeRegistry(d); return err }},
	}
	for name, c := range decoders {
		if c.data[4] != wire.Version {
			t.Fatalf("%s written as version %d, want %d", name, c.data[4], wire.Version)
		}
		if err := c.decode(c.data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255} {
			if v == wire.Version {
				continue
			}
			d := append([]byte(nil), c.data...)
			d[4] = v
			resign(d)
			if err := c.decode(d); !errors.Is(err, wire.ErrVersion) {
				t.Errorf("%s stamped version %d: got %v, want ErrVersion", name, v, err)
			}
		}
		d := append([]byte(nil), c.data...)
		d[5] = 1
		resign(d)
		if err := c.decode(d); !errors.Is(err, wire.ErrTag) {
			t.Errorf("%s stamped with the retired bundle tag: got %v, want ErrTag", name, err)
		}
	}
	// A checked-in fuzz reproducer of another version stops at the
	// version check and never reaches the decoder path it was saved for:
	// every corpus file must carry the current version byte.
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in wire fuzz corpus files")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte fuzz corpus file", f)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) < 5 || data[4] != wire.Version {
			t.Errorf("%s: corpus envelope does not carry wire version %d; re-stamp byte 4", f, wire.Version)
		}
	}
}

// TestDecodeNeverPanics sweeps random corruptions — truncations, bit
// flips, resigned bit flips — through every decoder. Any outcome is
// acceptable except a panic.
func TestDecodeNeverPanics(t *testing.T) {
	ctx, one, data := exportOneKernel(t)
	reqData, err := wire.EncodeRequest(ctx.Params, one.Entries[0].Sample)
	if err != nil {
		t.Fatal(err)
	}
	respData, err := wire.EncodeResponse(ctx.Params, one.Entries[0].Expected)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	corpora := [][]byte{data, reqData, respData}
	for trial := 0; trial < 300; trial++ {
		src := corpora[trial%len(corpora)]
		d := append([]byte(nil), src...)
		switch trial % 3 {
		case 0: // truncate
			d = d[:rng.Intn(len(d)+1)]
		case 1: // flip a byte
			d[rng.Intn(len(d))] ^= byte(1 << rng.Intn(8))
		case 2: // flip a payload byte and resign (reaches deep validation)
			if len(d) > sha256.Size+20 {
				d[14+rng.Intn(len(d)-14-sha256.Size)] ^= byte(1 << rng.Intn(8))
				resign(d)
			}
		}
		wire.DecodeRegistry(d)
		wire.DecodeRequest(ctx.Params, d)
		wire.DecodeResponse(ctx.Params, d)
	}
}

func TestRequestRoundTripAndFingerprintPinning(t *testing.T) {
	ctx, one, _ := exportOneKernel(t)
	sample := one.Entries[0].Sample
	data, err := wire.EncodeRequest(ctx.Params, sample)
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.DecodeRequest(ctx.Params, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.CtIn) != len(sample.CtIn) || len(req.PtIn) != len(sample.PtIn) {
		t.Fatalf("request shape changed: %d ct / %d pt", len(req.CtIn), len(req.PtIn))
	}
	for i := range req.CtIn {
		if !ctx.Params.CiphertextEqual(req.CtIn[i], sample.CtIn[i]) {
			t.Fatalf("ciphertext input %d changed across the wire", i)
		}
	}

	// A request pinned to one parameter set must be refused by another.
	other, err := backend.NewTestContext("PN4096", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeRequest(other.Params, data); !errors.Is(err, wire.ErrFingerprint) {
		t.Fatalf("foreign-parameter request: got %v, want ErrFingerprint", err)
	}
}
