// Package baseline provides the expert hand-written HE kernels the
// paper compares against (§7.1): implementations that follow the
// state-of-the-art heuristic of minimizing logic depth — align all
// window elements with rotations first, then combine them in balanced
// reduction trees — with packed inputs. These are the "Baseline"
// columns of Table 2 and the denominators of Figure 4.
package baseline

import (
	"fmt"

	"porcupine/internal/compose"
	"porcupine/internal/kernels"
	"porcupine/internal/quill"
)

// ref is shorthand for a rotated ciphertext reference.
func ref(id, rot int) quill.CtRef { return quill.CtRef{ID: id, Rot: rot} }

// BoxBlur is the depth-minimized 2×2 box blur of Figure 5(b):
// three rotations at level one, then a balanced add tree
// (6 instructions, depth 3).
func BoxBlur() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.ImgVecLen,
		NumCtInputs: 1,
		Instrs: []quill.Instr{
			{Op: quill.OpAddCtCt, A: ref(0, 1), B: ref(0, 0)}, // c1 = x(i+1) + x(i)
			{Op: quill.OpAddCtCt, A: ref(0, 5), B: ref(0, 6)}, // c2 = x(i+5) + x(i+6)
			{Op: quill.OpAddCtCt, A: ref(1, 0), B: ref(2, 0)}, // c3 = c1 + c2
		},
		Output: 3,
	}
}

// Gx aligns all six window elements of the x-gradient with rotations,
// then combines them in a balanced tree, substituting the ×2 with an
// addition (12 instructions, depth 4 — Figure 6(b)'s strategy).
//
// out[i] = x[i-4] - x[i-6] + 2·(x[i+1] - x[i-1]) + x[i+6] - x[i+4].
func Gx() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.ImgVecLen,
		NumCtInputs: 1,
		Instrs: []quill.Instr{
			{Op: quill.OpSubCtCt, A: ref(0, -4), B: ref(0, -6)}, // c1: top row
			{Op: quill.OpSubCtCt, A: ref(0, 1), B: ref(0, -1)},  // c2: middle row
			{Op: quill.OpSubCtCt, A: ref(0, 6), B: ref(0, 4)},   // c3: bottom row
			{Op: quill.OpAddCtCt, A: ref(2, 0), B: ref(2, 0)},   // c4 = 2·c2 (mul-by-2 as add)
			{Op: quill.OpAddCtCt, A: ref(1, 0), B: ref(3, 0)},   // c5 = c1 + c3
			{Op: quill.OpAddCtCt, A: ref(4, 0), B: ref(5, 0)},   // c6
		},
		Output: 6,
	}
}

// Gy is the transposed variant of Gx (12 instructions, depth 4).
//
// out[i] = x[i+4] + 2·x[i+5] + x[i+6] - x[i-6] - 2·x[i-5] - x[i-4].
func Gy() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.ImgVecLen,
		NumCtInputs: 1,
		Instrs: []quill.Instr{
			{Op: quill.OpSubCtCt, A: ref(0, 4), B: ref(0, -4)}, // c1
			{Op: quill.OpSubCtCt, A: ref(0, 5), B: ref(0, -5)}, // c2
			{Op: quill.OpSubCtCt, A: ref(0, 6), B: ref(0, -6)}, // c3
			{Op: quill.OpAddCtCt, A: ref(2, 0), B: ref(2, 0)},  // c4 = 2·c2
			{Op: quill.OpAddCtCt, A: ref(1, 0), B: ref(3, 0)},  // c5 = c1 + c3
			{Op: quill.OpAddCtCt, A: ref(4, 0), B: ref(5, 0)},  // c6
		},
		Output: 6,
	}
}

// RobertsCross squares the two diagonal differences and sums them
// (10 instructions, depth 5, matching Table 2 exactly).
func RobertsCross() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.ImgVecLen,
		NumCtInputs: 1,
		Instrs: []quill.Instr{
			{Op: quill.OpSubCtCt, A: ref(0, 0), B: ref(0, 6)}, // c1 = x(r,c) - x(r+1,c+1)
			{Op: quill.OpSubCtCt, A: ref(0, 5), B: ref(0, 1)}, // c2 = x(r+1,c) - x(r,c+1)
			{Op: quill.OpMulCtCt, A: ref(1, 0), B: ref(1, 0)}, // c3 = c1²  (+ relin)
			{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(2, 0)}, // c4 = c2²  (+ relin)
			{Op: quill.OpAddCtCt, A: ref(3, 0), B: ref(4, 0)},
		},
		Output: 5,
	}
}

// DotProduct multiplies by the plaintext weights then reduces with a
// balanced rotate-add tree (7 instructions, depth 7).
func DotProduct() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.DotN,
		NumCtInputs: 1,
		NumPtInputs: 1,
		Instrs: []quill.Instr{
			{Op: quill.OpMulCtPt, A: ref(0, 0), P: quill.PtRef{Input: 0}}, // c1 = x ⊙ w
			{Op: quill.OpAddCtCt, A: ref(1, 4), B: ref(1, 0)},             // c2
			{Op: quill.OpAddCtCt, A: ref(2, 2), B: ref(2, 0)},             // c3
			{Op: quill.OpAddCtCt, A: ref(3, 1), B: ref(3, 0)},             // c4: slot 0 holds Σ
		},
		Output: 4,
	}
}

// HammingDistance subtracts, squares, and tree-reduces (7 lowered
// instructions including the relinearization; depth 7).
func HammingDistance() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.HammingN,
		NumCtInputs: 2,
		Instrs: []quill.Instr{
			{Op: quill.OpSubCtCt, A: ref(0, 0), B: ref(1, 0)},
			{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(2, 0)},
			{Op: quill.OpAddCtCt, A: ref(3, 2), B: ref(3, 0)},
			{Op: quill.OpAddCtCt, A: ref(4, 1), B: ref(4, 0)},
		},
		Output: 5,
	}
}

// L2Distance subtracts, squares, and tree-reduces over 8 elements
// (9 instructions, depth 9 — Table 2 exactly).
func L2Distance() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.L2N,
		NumCtInputs: 2,
		Instrs: []quill.Instr{
			{Op: quill.OpSubCtCt, A: ref(0, 0), B: ref(1, 0)},
			{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(2, 0)},
			{Op: quill.OpAddCtCt, A: ref(3, 4), B: ref(3, 0)},
			{Op: quill.OpAddCtCt, A: ref(4, 2), B: ref(4, 0)},
			{Op: quill.OpAddCtCt, A: ref(5, 1), B: ref(5, 0)},
		},
		Output: 6,
	}
}

// LinearRegression: multiply by packed weights, fold the feature pair,
// add the bias (4 instructions, depth 4).
func LinearRegression() *quill.Program {
	return &quill.Program{
		VecLen:      2 * kernels.LinRegSamples,
		NumCtInputs: 1,
		NumPtInputs: 2,
		Instrs: []quill.Instr{
			{Op: quill.OpMulCtPt, A: ref(0, 0), P: quill.PtRef{Input: 0}}, // x ⊙ w
			{Op: quill.OpAddCtCt, A: ref(1, 1), B: ref(1, 0)},             // fold pairs
			{Op: quill.OpAddCtPt, A: ref(2, 0), P: quill.PtRef{Input: 1}}, // + b
		},
		Output: 3,
	}
}

// PolynomialRegression evaluates a·x² + b·x + c directly: x² first,
// both products in parallel levels, then the sum (8 lowered
// instructions, depth 6 — the depth-minimized shape).
func PolynomialRegression() *quill.Program {
	return &quill.Program{
		VecLen:      kernels.PolyRegN,
		NumCtInputs: 3, // x, a, b
		NumPtInputs: 1, // c
		Instrs: []quill.Instr{
			{Op: quill.OpMulCtCt, A: ref(0, 0), B: ref(0, 0)},             // c3 = x²
			{Op: quill.OpMulCtCt, A: ref(1, 0), B: ref(3, 0)},             // c4 = a·x²
			{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(0, 0)},             // c5 = b·x
			{Op: quill.OpAddCtCt, A: ref(4, 0), B: ref(5, 0)},             // c6
			{Op: quill.OpAddCtPt, A: ref(6, 0), P: quill.PtRef{Input: 0}}, // + c
		},
		Output: 7,
	}
}

// serialReduce appends the fan-out-1 shift-accumulate reduction
//
//	acc = base; repeat m-1 times: acc = rot(acc, 1) + base
//
// to p and points the output at the final accumulator. This is the
// naive serial form of the slot reduction the depth-minimized
// baselines write as a balanced tree: m−1 rotations, each of a
// DIFFERENT source, so rotation sharing and domain assignment both see
// fan-out 1. It computes exactly the same function
// as the tree (the same multiset of literal offsets {0..m-1}).
func serialReduce(p *quill.Program, base, m int) {
	acc := base
	for k := 1; k < m; k++ {
		p.Instrs = append(p.Instrs, quill.Instr{Op: quill.OpAddCtCt, A: ref(acc, 1), B: ref(base, 0)})
		acc = p.NumCtInputs + len(p.Instrs) - 1
	}
	p.Output = acc
}

// SerialReductionNames lists the kernels with a serial-chain variant.
func SerialReductionNames() []string {
	return []string{"dot-product", "hamming-distance", "l2-distance"}
}

// SerialReduction returns the serial shift-accumulate form of a
// reduction kernel: identical prologue to the depth-minimized
// baseline, but the slot reduction written as a fan-out-1 chain
// (dot-product and l2-distance: 7 rotations; hamming-distance: 3).
// These are the "before" programs of the tree-reduction rewrite
// (quill.TreeReduceLowered), which the baseline tests run through it.
func SerialReduction(name string) (*quill.Program, error) {
	switch name {
	case "dot-product":
		p := &quill.Program{
			VecLen:      kernels.DotN,
			NumCtInputs: 1,
			NumPtInputs: 1,
			Instrs: []quill.Instr{
				{Op: quill.OpMulCtPt, A: ref(0, 0), P: quill.PtRef{Input: 0}}, // c1 = x ⊙ w
			},
		}
		serialReduce(p, 1, kernels.DotN)
		return p, nil
	case "hamming-distance":
		p := &quill.Program{
			VecLen:      kernels.HammingN,
			NumCtInputs: 2,
			Instrs: []quill.Instr{
				{Op: quill.OpSubCtCt, A: ref(0, 0), B: ref(1, 0)},
				{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(2, 0)},
			},
		}
		serialReduce(p, 3, kernels.HammingN)
		return p, nil
	case "l2-distance":
		p := &quill.Program{
			VecLen:      kernels.L2N,
			NumCtInputs: 2,
			Instrs: []quill.Instr{
				{Op: quill.OpSubCtCt, A: ref(0, 0), B: ref(1, 0)},
				{Op: quill.OpMulCtCt, A: ref(2, 0), B: ref(2, 0)},
			},
		}
		serialReduce(p, 3, kernels.L2N)
		return p, nil
	}
	return nil, fmt.Errorf("baseline: no serial-reduction variant of %q", name)
}

// SerialLowered lowers the serial-reduction variant of a kernel.
func SerialLowered(name string) (*quill.Lowered, error) {
	p, err := SerialReduction(name)
	if err != nil {
		return nil, err
	}
	return quill.Lower(p, quill.DefaultLowerOptions())
}

// Sobel composes the baseline Gx and Gy with squaring and a final add
// (the baseline for the multi-step §7.2 evaluation).
func Sobel() (*quill.Lowered, error) {
	return compose.Sobel(Gx(), Gy())
}

// Harris composes gradients, structure-tensor products, box blurs and
// the integerized response 16·det − trace² (the multi-step baseline).
func Harris() (*quill.Lowered, error) {
	return compose.Harris(Gx(), Gy(), BoxBlur())
}

// Programs returns the nine directly written baseline kernels keyed by
// the spec names in kernels.All.
func Programs() map[string]*quill.Program {
	return map[string]*quill.Program{
		"box-blur":              BoxBlur(),
		"dot-product":           DotProduct(),
		"hamming-distance":      HammingDistance(),
		"l2-distance":           L2Distance(),
		"linear-regression":     LinearRegression(),
		"polynomial-regression": PolynomialRegression(),
		"gx":                    Gx(),
		"gy":                    Gy(),
		"roberts-cross":         RobertsCross(),
	}
}

// Names lists every baseline kernel — the Programs map plus the
// multi-step sobel and harris — in a fixed, reproducible order.
func Names() []string {
	return []string{
		"box-blur",
		"dot-product",
		"hamming-distance",
		"l2-distance",
		"linear-regression",
		"polynomial-regression",
		"gx",
		"gy",
		"roberts-cross",
		"sobel",
		"harris",
	}
}

// Lowered returns the lowered baseline for any kernel name, including
// the multi-step sobel and harris.
func Lowered(name string) (*quill.Lowered, error) {
	if p, ok := Programs()[name]; ok {
		return quill.Lower(p, quill.DefaultLowerOptions())
	}
	switch name {
	case "sobel":
		return Sobel()
	case "harris":
		return Harris()
	}
	return nil, fmt.Errorf("baseline: unknown kernel %q", name)
}
