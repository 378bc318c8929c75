package bfv

import (
	"math/rand"
	"testing"
)

// benchRuntime builds keys and two fresh ciphertexts for a preset.
func benchRuntime(b *testing.B, preset string) (*Evaluator, *Ciphertext, *Ciphertext) {
	b.Helper()
	params, err := NewParametersFromPreset(preset)
	if err != nil {
		b.Fatal(err)
	}
	kg := NewTestKeyGenerator(params, 1)
	sk, err := kg.GenSecretKey()
	if err != nil {
		b.Fatal(err)
	}
	rlk, err := kg.GenRelinearizationKey(sk)
	if err != nil {
		b.Fatal(err)
	}
	gks, err := kg.GenGaloisKeys(sk, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		b.Fatal(err)
	}
	encryptor := NewTestEncryptor(params, sk, 2)
	rng := rand.New(rand.NewSource(3))
	fresh := func() *Ciphertext {
		vals := make([]uint64, enc.SlotCount())
		for i := range vals {
			vals[i] = rng.Uint64() % 64
		}
		pt, err := enc.EncodeNew(vals)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := encryptor.Encrypt(pt)
		if err != nil {
			b.Fatal(err)
		}
		return ct
	}
	return NewEvaluator(params, rlk, gks), fresh(), fresh()
}

// BenchmarkEvaluatorMul measures the ciphertext–ciphertext tensor
// product (the pure-RNS hot path) per preset: x·y lifts both operands
// and takes four pointwise products, the square x·x lifts once and
// takes three. The benchmark's bfv.mul_us probe times x·x.
func BenchmarkEvaluatorMul(b *testing.B) {
	for _, preset := range []string{"PN4096", "PN8192"} {
		ev, x, y := benchRuntime(b, preset)
		for _, c := range []struct {
			name string
			y    *Ciphertext
		}{{"distinct", y}, {"square", x}} {
			b.Run(preset+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ev.Mul(x, c.y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEvaluatorMulRelin measures multiply + key switch.
func BenchmarkEvaluatorMulRelin(b *testing.B) {
	for _, preset := range []string{"PN4096", "PN8192"} {
		b.Run(preset, func(b *testing.B) {
			ev, x, y := benchRuntime(b, preset)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.MulRelin(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluatorRotate measures a slot rotation (key switch path).
func BenchmarkEvaluatorRotate(b *testing.B) {
	for _, preset := range []string{"PN4096", "PN8192"} {
		b.Run(preset, func(b *testing.B) {
			ev, x, _ := benchRuntime(b, preset)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.RotateRows(x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluatorRotateFanOut measures a fan-out of distinct
// rotations of one ciphertext, serial vs hoisted (decompose once,
// permute per rotation) — the per-plan win of hoisted key switching.
func BenchmarkEvaluatorRotateFanOut(b *testing.B) {
	steps := []int{1, 2, 4, 8}
	for _, preset := range []string{"PN4096", "PN8192"} {
		params, err := NewParametersFromPreset(preset)
		if err != nil {
			b.Fatal(err)
		}
		kg := NewTestKeyGenerator(params, 1)
		sk, _ := kg.GenSecretKey()
		gks, err := kg.GenGaloisKeys(sk, steps)
		if err != nil {
			b.Fatal(err)
		}
		enc, _ := NewEncoder(params)
		vals := make([]uint64, enc.SlotCount())
		for i := range vals {
			vals[i] = uint64(i % 64)
		}
		pt, _ := enc.EncodeNew(vals)
		ct, err := NewTestEncryptor(params, sk, 2).Encrypt(pt)
		if err != nil {
			b.Fatal(err)
		}
		ev := NewEvaluator(params, nil, gks)
		outs := make([]*Ciphertext, len(steps))
		for i := range outs {
			outs[i] = params.NewCiphertext(1)
		}
		b.Run(preset+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, k := range steps {
					if err := ev.RotateRowsInto(outs[j], ct, k); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(preset+"/hoisted", func(b *testing.B) {
			dec := params.NewDecomposition()
			var br BatchedRotation
			for i := 0; i < b.N; i++ {
				if err := ev.DecomposeForKeySwitch(dec, ct); err != nil {
					b.Fatal(err)
				}
				for j, k := range steps {
					if err := ev.BeginBatchedRotation(&br, k); err != nil {
						b.Fatal(err)
					}
					if err := ev.RotateRowsSharedInto(outs[j], ct, dec, &br); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
