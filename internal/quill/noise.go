package quill

import (
	"fmt"
	"math"
)

// NoiseParams describes a BFV parameter set for static noise
// estimation: the quantities the invariant-noise growth rules depend
// on. Use backend-independent values (bfv.Parameters exposes them).
type NoiseParams struct {
	N           int     // ring degree
	LogQ        float64 // bits of the ciphertext modulus
	LogMaxPrime float64 // bits of the largest RNS prime (key-switch digit size)
	NumPrimes   int     // RNS basis size
	T           uint64  // plaintext modulus
}

// errStdDev is the standard deviation of the error distribution
// (centered binomial, ring.Sampler).
const errStdDev = 3.2

// NoiseEstimate reports per-value and output noise in bits, plus the
// predicted remaining invariant-noise budget.
type NoiseEstimate struct {
	// Bits[i] is the estimated log2 of the scaled invariant noise of
	// SSA value i (inputs hold fresh-encryption noise).
	Bits []float64
	// OutputBits is Bits at the program output.
	OutputBits float64
	// Budget is the predicted decryption budget in bits:
	// LogQ − 1 − OutputBits. Decryption fails when it reaches zero.
	Budget float64
}

// EstimateNoise statically predicts the noise of every value of a
// lowered program under the paper's Table-1 growth rules, extended
// from multiplicative-depth bookkeeping to quantitative bit estimates:
//
//	fresh       2·log2(t)                    (secret-key encryption)
//	add ct,ct   max + 1
//	add ct,pt   unchanged (rounding-level contribution only)
//	mul ct,pt   + log2(t) + log2(N)/2        (plaintext magnitude ≤ t)
//	mul ct,ct   max + log2(t) + log2(N) + 2  (BFV tensor scaling)
//	rot/relin   max(v, key-switch floor) + 1
//
// A fresh secret-key ciphertext's scaled noise is t·e − (Q mod t)·m,
// where the rounding term (below t²) dominates t·e (|e| ≤ 21). The
// key-switch floor is log2(t · N · err · p_max · k). These are
// heuristic worst-case-shaped rules, calibrated against the bfv
// backend (see noise_test.go); they are intended for the same use as
// the paper's noise metadata — ranking candidate programs and sizing
// parameters — not as a cryptographic bound.
func EstimateNoise(l *Lowered, np NoiseParams) (*NoiseEstimate, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if np.N <= 0 || np.LogQ <= 0 || np.T == 0 {
		return nil, fmt.Errorf("quill: EstimateNoise: incomplete noise parameters")
	}
	logT := math.Log2(float64(np.T))
	logN := math.Log2(float64(np.N))
	fresh := 2 * logT
	ksFloor := logT + logN + math.Log2(errStdDev) + np.LogMaxPrime + math.Log2(float64(max(np.NumPrimes, 1)))

	bits := make([]float64, l.NumValues())
	for i := 0; i < l.NumCtInputs; i++ {
		bits[i] = fresh
	}
	for _, in := range l.Instrs {
		a := bits[in.A]
		var out float64
		switch in.Op {
		case OpAddCtCt, OpSubCtCt:
			out = math.Max(a, bits[in.B]) + 1
		case OpAddCtPt, OpSubCtPt:
			out = a
		case OpMulCtPt:
			out = a + logT + logN/2
		case OpMulCtCt:
			out = math.Max(a, bits[in.B]) + logT + logN + 2
		case OpRotCt, OpRelin:
			out = math.Max(a, ksFloor) + 1
		default:
			return nil, fmt.Errorf("quill: EstimateNoise: unknown opcode %v", in.Op)
		}
		bits[in.Dst] = out
	}
	est := &NoiseEstimate{Bits: bits, OutputBits: bits[l.Output]}
	est.Budget = np.LogQ - 1 - est.OutputBits
	if est.Budget < 0 {
		est.Budget = 0
	}
	return est, nil
}

// BudgetGain reports the change in predicted decryption budget going
// from program a to program b under np: EstimateNoise(b).Budget −
// EstimateNoise(a).Budget. Under the growth rules above a serial
// reduction chain pays one rotation (key-switch floor + 1) and one
// addition (+1) per accumulated offset, while the log-depth tree of
// treereduce.go pays that only per level, so the rewrite's gain is
// never negative; noise_test.go pins tree ≥ serial for every
// reduction kernel.
func BudgetGain(a, b *Lowered, np NoiseParams) (float64, error) {
	ea, err := EstimateNoise(a, np)
	if err != nil {
		return 0, err
	}
	eb, err := EstimateNoise(b, np)
	if err != nil {
		return 0, err
	}
	return eb.Budget - ea.Budget, nil
}

// FitsParams reports whether the program is predicted to decrypt
// correctly under the given parameters, with the requested safety
// margin in bits.
func FitsParams(l *Lowered, np NoiseParams, marginBits float64) (bool, error) {
	est, err := EstimateNoise(l, np)
	if err != nil {
		return false, err
	}
	return est.Budget > marginBits, nil
}
