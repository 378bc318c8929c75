package wire_test

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"porcupine/internal/backend"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// muxableProgram is a small-vector stencil (VecLen 32, reach ±2):
// stride 64, 8 lanes on PN2048's 1024-slot row.
func muxableProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 32, NumCtInputs: 1, NumPtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: -2},
			{Op: quill.OpAddCtCt, Dst: 3, A: 1, B: 2},
			{Op: quill.OpMulCtPt, Dst: 4, A: 3, P: quill.PtRef{Input: -1, Const: []int64{3}}},
			{Op: quill.OpAddCtPt, Dst: 5, A: 4, P: quill.PtRef{Input: 0}},
		},
		Output: 5,
	}
}

// exportTestRegistry builds a two-kernel registry — one mux-eligible
// stencil, one full-width kernel — with embedded samples for both.
func exportTestRegistry(t *testing.T) (*backend.Context, *wire.Registry, []byte) {
	t.Helper()
	programs := []*quill.Lowered{muxableProgram(), testProgram()}
	ctx, plans, err := backend.NewTestMuxServingContext("PN2048", 29, 0, programs...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	samples := make([]*wire.Request, len(plans))
	for i, l := range programs {
		mk := func() quill.Vec {
			v := make(quill.Vec, l.VecLen)
			for j := range v {
				v[j] = rng.Uint64() % 64
			}
			return v
		}
		s := &wire.Request{}
		for k := 0; k < l.NumCtInputs; k++ {
			ct, err := ctx.EncryptVec(mk())
			if err != nil {
				t.Fatal(err)
			}
			s.CtIn = append(s.CtIn, ct)
		}
		for k := 0; k < l.NumPtInputs; k++ {
			s.PtIn = append(s.PtIn, mk())
		}
		samples[i] = s
	}
	reg, err := serve.ExportRegistry(ctx, []string{"stencil", "wide"}, plans, samples)
	if err != nil {
		t.Fatal(err)
	}
	data, err := reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ctx, reg, data
}

// TestRegistryRoundTrip checks the byte-level round trip: manifest
// order, mux geometry, samples and key material all survive, and the
// decoded registry loads into a working sealed catalog.
func TestRegistryRoundTrip(t *testing.T) {
	_, orig, data := exportTestRegistry(t)
	got, err := wire.DecodeRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Preset != orig.Preset || len(got.Entries) != len(orig.Entries) {
		t.Fatalf("preset %q / %d entries, want %q / %d", got.Preset, len(got.Entries), orig.Preset, len(orig.Entries))
	}
	for i := range orig.Entries {
		o, g := &orig.Entries[i], &got.Entries[i]
		if g.Name != o.Name || g.MuxStride != o.MuxStride || g.MuxLanes != o.MuxLanes {
			t.Errorf("entry %d: (%q, %d, %d), want (%q, %d, %d)",
				i, g.Name, g.MuxStride, g.MuxLanes, o.Name, o.MuxStride, o.MuxLanes)
		}
		if g.Sample == nil || g.Expected == nil {
			t.Errorf("entry %q lost its self-test sample", o.Name)
		}
	}
	if s := got.Entry("stencil"); s == nil || s.MuxLanes < 2 {
		t.Fatal("stencil entry lost its mux geometry")
	}
	if w := got.Entry("wide"); w == nil || w.MuxLanes != 0 || w.MuxStride != 0 {
		t.Fatal("full-width entry gained a mux geometry")
	}

	cat, err := serve.LoadRegistry(got, serve.Config{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for _, name := range got.Kernels() {
		ok, err := cat.SelfTest(name)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("kernel %q not bit-identical after round trip", name)
		}
	}
}

func TestRegistryFileRoundTrip(t *testing.T) {
	_, orig, _ := exportTestRegistry(t)
	path := filepath.Join(t.TempDir(), "suite.pregistry")
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadRegistryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(orig.Entries) {
		t.Fatal("file round trip changed the registry")
	}
}

// TestRegistryRejectsCorruption is the registry corruption matrix:
// envelope-level damage plus the manifest-specific fields — version
// downgrade (registries are v5-only), names, mux geometry (re-derived
// legality, not trust), and sample shape.
func TestRegistryRejectsCorruption(t *testing.T) {
	ctx, reg, data := exportTestRegistry(t)

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
	// reencode round-trips the registry through a field mutation: the
	// encoder writes whatever the struct holds, so decode-side
	// validation is what must refuse it.
	reencode := func(t *testing.T, mutate func(r *wire.Registry), want error) {
		t.Helper()
		cp := *reg
		cp.Entries = append([]wire.RegistryEntry(nil), reg.Entries...)
		mutate(&cp)
		d, err := cp.Encode()
		if err != nil {
			t.Fatalf("mutated registry failed to encode: %v", err)
		}
		if _, err := wire.DecodeRegistry(d); err == nil {
			t.Fatal("illegal manifest decoded successfully")
		} else if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		check(t, func(d []byte) []byte { return d[:len(d)/3] }, wire.ErrTruncated)
	})
	t.Run("bad-magic", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[0] = 'X'; return d }, wire.ErrMagic)
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }, wire.ErrChecksum)
	})
	t.Run("wrong-tag", func(t *testing.T) {
		// A request envelope handed to the registry decoder.
		rd, err := wire.EncodeRequest(ctx.Params, reg.Entries[0].Sample)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeRegistry(rd); !errors.Is(err, wire.ErrTag) {
			t.Fatalf("got %v, want ErrTag", err)
		}
	})
	t.Run("version-downgrade", func(t *testing.T) {
		// Registries are new in v5: an artifact stamped v4 is a forgery
		// or a corrupted byte, never a legitimate old file.
		check(t, func(d []byte) []byte { d[4] = 4; resign(d); return d }, wire.ErrVersion)
	})
	t.Run("wrong-fingerprint", func(t *testing.T) {
		check(t, func(d []byte) []byte { d[14] ^= 0xFF; resign(d); return d }, wire.ErrFingerprint)
	})
	t.Run("trailing-junk", func(t *testing.T) {
		check(t, func(d []byte) []byte { return append(d, 0xAB) }, wire.ErrInvalid)
	})

	t.Run("duplicate-names", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) { r.Entries[1].Name = r.Entries[0].Name }, wire.ErrInvalid)
	})
	t.Run("mux-stride-not-pow2", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) { r.Entries[0].MuxStride = 96 }, wire.ErrInvalid)
	})
	t.Run("mux-stride-below-reach-bound", func(t *testing.T) {
		// Stride 32 < VecLen 32 + reach 2: lanes would interfere.
		reencode(t, func(r *wire.Registry) { r.Entries[0].MuxStride = 32 }, wire.ErrInvalid)
	})
	t.Run("mux-lanes-exceed-row", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) { r.Entries[0].MuxLanes = 32 }, wire.ErrInvalid)
	})
	t.Run("mux-half-set", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) { r.Entries[0].MuxLanes = 0 }, wire.ErrInvalid)
	})
	t.Run("mux-on-full-width", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) {
			r.Entries[1].MuxStride, r.Entries[1].MuxLanes = 512, 2
		}, wire.ErrInvalid)
	})
	t.Run("sample-shape-mismatch", func(t *testing.T) {
		reencode(t, func(r *wire.Registry) {
			s := *r.Entries[1].Sample
			s.CtIn = s.CtIn[:1]
			r.Entries[1].Sample = &s
		}, wire.ErrInvalid)
	})
}

// TestRegistryEncodeRefusals: encoder-side sanity that never reaches
// the wire.
func TestRegistryEncodeRefusals(t *testing.T) {
	_, reg, _ := exportTestRegistry(t)
	empty := *reg
	empty.Entries = nil
	if _, err := empty.Encode(); err == nil {
		t.Error("empty manifest encoded")
	}
	unnamed := *reg
	unnamed.Entries = append([]wire.RegistryEntry(nil), reg.Entries...)
	unnamed.Entries[0].Name = ""
	if _, err := unnamed.Encode(); err == nil {
		t.Error("unnamed entry encoded")
	}
	half := *reg
	half.Entries = append([]wire.RegistryEntry(nil), reg.Entries...)
	half.Entries[0].Expected = nil
	if _, err := half.Encode(); err == nil {
		t.Error("sample without expected output encoded")
	}
}

// TestRegistryDecodeNeverPanics sweeps random corruptions through the
// registry decoder; any outcome but a panic is acceptable.
func TestRegistryDecodeNeverPanics(t *testing.T) {
	_, _, data := exportTestRegistry(t)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		d := append([]byte(nil), data...)
		switch trial % 3 {
		case 0:
			d = d[:rng.Intn(len(d)+1)]
		case 1:
			d[rng.Intn(len(d))] ^= byte(1 << rng.Intn(8))
		case 2:
			if len(d) > sha256.Size+20 {
				d[14+rng.Intn(len(d)-14-sha256.Size)] ^= byte(1 << rng.Intn(8))
				resign(d)
			}
		}
		wire.DecodeRegistry(d)
	}
}
