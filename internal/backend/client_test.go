package backend

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/quill"
)

// TestClientCryptoConcurrent is the keyholder side of the serving
// model: many goroutines encrypt, run and decrypt against one shared
// Context (one Encryptor, Decryptor, Encoder and their pools), each
// result checked against the kernel's plaintext reference. Run with
// -race in CI.
func TestClientCryptoConcurrent(t *testing.T) {
	spec := kernels.ByName("gx")
	l, err := baseline.Lowered(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, plans, err := NewTestServingContext("PN2048", 7, l)
	if err != nil {
		t.Fatal(err)
	}
	const clients, iters = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			s := ctx.NewSession()
			for i := 0; i < iters; i++ {
				ex := spec.RandomExample(rng)
				cts := make([]*bfv.Ciphertext, len(ex.CtIn))
				for k, v := range ex.CtIn {
					var err error
					if cts[k], err = ctx.EncryptVec(v); err != nil {
						errs <- err
						return
					}
				}
				out, err := s.Run(plans[0], cts, ex.PtIn)
				if err != nil {
					errs <- err
					return
				}
				if got := ctx.DecryptVec(out, spec.VecLen); !spec.Matches(got, ex) {
					errs <- fmt.Errorf("client %d, request %d: decrypted result differs from the plaintext reference", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecryptVecWindow: DecryptVec returns exactly the slots asked
// for, and a window outside the row is reported as such, not as a bare
// slice-bounds panic.
func TestDecryptVecWindow(t *testing.T) {
	ctx, err := NewTestContext("PN2048", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := ctx.Params.SlotCount()
	v := make(quill.Vec, row)
	for j := range v {
		v[j] = uint64(j*7+1) % ctx.Params.T
	}
	ct, err := ctx.EncryptVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 100, row} {
		got := ctx.DecryptVec(ct, n)
		if len(got) != n {
			t.Fatalf("DecryptVec(%d) returned %d slots", n, len(got))
		}
		for j := range got {
			if got[j] != v[j] {
				t.Fatalf("DecryptVec(%d): slot %d = %d, want %d", n, j, got[j], v[j])
			}
		}
	}
	for _, n := range []int{-1, row + 1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("row size %d", row)) {
					t.Errorf("DecryptVec(%d): panic %q does not name the row size", n, msg)
				}
			}()
			ctx.DecryptVec(ct, n)
		}()
	}
}

// TestClientCryptoAllocations pins the steady-state allocation budget
// of the keyholder's two calls: the returned ciphertext, respectively
// the returned vector, and nothing per coefficient.
func TestClientCryptoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless under -race")
	}
	ctx, err := NewTestContext("PN2048", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := quill.Vec{1, 2, 3, 4, 5, 6, 7, 8}
	ct, err := ctx.EncryptVec(v)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(10, func() {
		c, err := ctx.EncryptVec(v)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Params.RecycleCiphertext(c)
	})
	dec := testing.AllocsPerRun(10, func() { ctx.DecryptVec(ct, len(v)) })
	if enc > 8 || dec > 8 {
		t.Errorf("EncryptVec allocates %.0f objects/call, DecryptVec %.0f; want ≤ 8 each", enc, dec)
	}
}
