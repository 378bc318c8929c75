package wire_test

// The cross-process differential leg: a plan exported by THIS process
// must load and run bit-identically in a FRESH process that never saw
// the secret key, the lowered program, or this process's memory.
//
// The parent test compiles each kernel's plan, runs it in-process (plan
// path and interpreter path), exports it as a one-entry registry, then
// re-executes the test binary as a genuine child process
// (helper-process pattern). The child loads the registry through the
// wire decoder, executes the embedded sample through the catalog's
// batched scheduler, and writes the wire-encoded output; the parent
// requires all three outputs — interpreter, in-process plan,
// out-of-process plan — to be bit-identical ciphertexts.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

const (
	envRegistry = "PORCUPINE_WIRE_CHILD_REGISTRY"
	envOut      = "PORCUPINE_WIRE_CHILD_OUT"
)

// TestHelperLoadAndRun is not a test of this process: it is the body
// of the child process spawned by TestCrossProcessBitIdentity, gated
// on the env vars the parent sets.
func TestHelperLoadAndRun(t *testing.T) {
	regPath := os.Getenv(envRegistry)
	if regPath == "" {
		t.Skip("helper: runs only as a child of TestCrossProcessBitIdentity")
	}
	reg, err := wire.ReadRegistryFile(regPath)
	if err != nil {
		t.Fatalf("helper: loading registry: %v", err)
	}
	cat, err := serve.LoadRegistry(reg, serve.Config{Sessions: 2})
	if err != nil {
		t.Fatalf("helper: building sealed catalog: %v", err)
	}
	defer cat.Close()
	if cat.Ctx.CanDecrypt() {
		t.Fatal("helper: loaded context holds a secret key; registries must carry only public material")
	}
	e := &reg.Entries[0]
	res := cat.Do(e.Name, e.Sample.CtIn, e.Sample.PtIn)
	if res.Err != nil {
		t.Fatalf("helper: executing plan: %v", res.Err)
	}
	data, err := wire.EncodeResponse(reg.Params, res.Out)
	if err != nil {
		t.Fatalf("helper: encoding response: %v", err)
	}
	if err := os.WriteFile(os.Getenv(envOut), data, 0o644); err != nil {
		t.Fatalf("helper: writing output: %v", err)
	}
}

func TestCrossProcessBitIdentity(t *testing.T) {
	if os.Getenv(envRegistry) != "" {
		t.Skip("already in the helper process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"box-blur", "dot-product", "hamming-distance", "l2-distance",
		"linear-regression", "polynomial-regression", "gx", "gy",
		"roberts-cross", "sobel", "harris",
	}
	if testing.Short() {
		// One single-step and one composed kernel keep the short suite
		// fast while still crossing a real process boundary.
		names = []string{"box-blur", "sobel"}
	}
	dir := t.TempDir()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec := kernels.ByName(name)
			l, err := baseline.Lowered(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, plans, err := backend.NewTestServingContext(backend.PresetFor(l), 7, l)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(3))
			assign := make([]uint64, spec.NumVars)
			for i := range assign {
				assign[i] = rng.Uint64() % 64
			}
			ex := spec.NewExample(assign)
			sample := &wire.Request{PtIn: ex.PtIn}
			for _, v := range ex.CtIn {
				ct, err := ctx.EncryptVec(v)
				if err != nil {
					t.Fatal(err)
				}
				sample.CtIn = append(sample.CtIn, ct)
			}

			// Leg 1: the interpreter (differential reference).
			interp, err := backend.RuntimeOver(ctx).RunInterpreter(l, sample.CtIn, sample.PtIn)
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			// Leg 2: the in-process plan (also becomes the registry's
			// embedded expectation inside ExportRegistry).
			reg, err := serve.ExportRegistry(ctx, []string{name}, plans, []*wire.Request{sample})
			if err != nil {
				t.Fatal(err)
			}
			expected := reg.Entries[0].Expected
			if !ctx.Params.CiphertextEqual(interp, expected) {
				t.Fatal("in-process plan output differs from the interpreter")
			}

			regPath := filepath.Join(dir, name+".pregistry")
			outPath := filepath.Join(dir, name+".out")
			if err := reg.WriteFile(regPath); err != nil {
				t.Fatal(err)
			}

			// Leg 3: a fresh process, fed the artifact alone.
			cmd := exec.Command(exe, "-test.run", "^TestHelperLoadAndRun$", "-test.count=1")
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("%s=%s", envRegistry, regPath),
				fmt.Sprintf("%s=%s", envOut, outPath),
			)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("child process failed: %v\n%s", err, out)
			}
			respData, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			var childOut *bfv.Ciphertext
			if childOut, err = wire.DecodeResponse(ctx.Params, respData); err != nil {
				t.Fatal(err)
			}
			if !ctx.Params.CiphertextEqual(childOut, expected) {
				t.Fatal("cross-process plan output is not bit-identical to the in-process plan")
			}

			// And the decrypted result still matches the plaintext
			// reference (only the exporting side can check this).
			if got := ctx.DecryptVec(childOut, spec.VecLen); !spec.Matches(got, ex) {
				t.Fatal("cross-process output disagrees with the plaintext reference")
			}
		})
	}
}
