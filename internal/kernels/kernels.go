package kernels

import "porcupine/internal/symbolic"

// Image kernels use a 5×5 gray-scale image packed row-major into a
// 32-slot vector (slot r*ImgW+c), with the image border acting as zero
// padding for the 3×3 stencils, as in the paper's Gx walkthrough
// (Figure 7 packs the whole image into one ciphertext).
const (
	ImgH = 5
	ImgW = 5
	// ImgVecLen is the abstract vector length for image kernels: large
	// enough that stencil rotations (±1, ±5, ±6) never wrap cared
	// values around the vector boundary.
	ImgVecLen = 32
)

// imageLayout packs the H×W image row-major at slots 0..H*W-1.
func imageLayout() Layout { return Packed(ImgH * ImgW) }

// imgIdx returns the logical element index of pixel (r, c).
func imgIdx(r, c int) int { return r*ImgW + c }

// interiorSlots returns the cared output slots for centered 3×3
// stencils: the interior pixels.
func interiorSlots() []int {
	var slots []int
	for r := 1; r < ImgH-1; r++ {
		for c := 1; c < ImgW-1; c++ {
			slots = append(slots, imgIdx(r, c))
		}
	}
	return slots
}

// stencil3x3 lifts a centered 3×3 filter into a RefFunc over the image
// interior.
func stencil3x3(filter [3][3]int64) RefFunc {
	return func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
		img := ct[0]
		var out []*symbolic.Poly
		for r := 1; r < ImgH-1; r++ {
			for c := 1; c < ImgW-1; c++ {
				acc := symbolic.Zero()
				for dr := -1; dr <= 1; dr++ {
					for dc := -1; dc <= 1; dc++ {
						w := filter[dr+1][dc+1]
						if w == 0 {
							continue
						}
						acc = acc.Add(img[imgIdx(r+dr, c+dc)].ScalarMul(w))
					}
				}
				out = append(out, acc)
			}
		}
		return out
	}
}

// BoxBlur is the paper's box blur (Figure 5): a 2×2 window sum,
// out[r,c] = Σ_{dr,dc ∈ {0,1}} img[r+dr][c+dc], over the 4×4 valid
// region of a 5×5 image.
func BoxBlur() *Spec {
	var outSlots []int
	for r := 0; r < ImgH-1; r++ {
		for c := 0; c < ImgW-1; c++ {
			outSlots = append(outSlots, imgIdx(r, c))
		}
	}
	return MustBuild("box-blur", ImgVecLen,
		[]Layout{imageLayout()}, nil, outSlots,
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			img := ct[0]
			var out []*symbolic.Poly
			for r := 0; r < ImgH-1; r++ {
				for c := 0; c < ImgW-1; c++ {
					acc := img[imgIdx(r, c)]
					acc = acc.Add(img[imgIdx(r, c+1)])
					acc = acc.Add(img[imgIdx(r+1, c)])
					acc = acc.Add(img[imgIdx(r+1, c+1)])
					out = append(out, acc)
				}
			}
			return out
		})
}

// GxFilter is the standard Sobel x-gradient filter.
var GxFilter = [3][3]int64{{-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}}

// GyFilter is the standard Sobel y-gradient filter.
var GyFilter = [3][3]int64{{-1, -2, -1}, {0, 0, 0}, {1, 2, 1}}

// Gx is the x-gradient image kernel (paper §4.3 running example).
func Gx() *Spec {
	return MustBuild("gx", ImgVecLen, []Layout{imageLayout()}, nil,
		interiorSlots(), stencil3x3(GxFilter))
}

// Gy is the y-gradient image kernel.
func Gy() *Spec {
	return MustBuild("gy", ImgVecLen, []Layout{imageLayout()}, nil,
		interiorSlots(), stencil3x3(GyFilter))
}

// RobertsCross computes the Roberts cross edge detector (squared):
// out[r,c] = (img[r,c] - img[r+1,c+1])² + (img[r+1,c] - img[r,c+1])².
func RobertsCross() *Spec {
	var outSlots []int
	for r := 0; r < ImgH-1; r++ {
		for c := 0; c < ImgW-1; c++ {
			outSlots = append(outSlots, imgIdx(r, c))
		}
	}
	return MustBuild("roberts-cross", ImgVecLen,
		[]Layout{imageLayout()}, nil, outSlots,
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			img := ct[0]
			var out []*symbolic.Poly
			for r := 0; r < ImgH-1; r++ {
				for c := 0; c < ImgW-1; c++ {
					d1 := img[imgIdx(r, c)].Sub(img[imgIdx(r+1, c+1)])
					d2 := img[imgIdx(r+1, c)].Sub(img[imgIdx(r, c+1)])
					out = append(out, d1.Mul(d1).Add(d2.Mul(d2)))
				}
			}
			return out
		})
}

// DotN is the vector length of the dot-product kernel.
const DotN = 8

// DotProduct computes the inner product of an encrypted 8-vector with
// a server-side plaintext 8-vector, result in slot 0 (Figure 2's
// walkthrough generalized to n=8).
func DotProduct() *Spec {
	return MustBuild("dot-product", DotN,
		[]Layout{Packed(DotN)}, []Layout{Packed(DotN)}, []int{0},
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			acc := symbolic.Zero()
			for i := 0; i < DotN; i++ {
				acc = acc.Add(ct[0][i].Mul(pt[0][i]))
			}
			return []*symbolic.Poly{acc}
		})
}

// HammingN is the vector length of the Hamming-distance kernel.
const HammingN = 4

// HammingDistance computes Σ (a_i - b_i)² over two encrypted
// 4-vectors, result in slot 0. For binary inputs this is the Hamming
// distance; the polynomial spec is exact for all inputs.
func HammingDistance() *Spec {
	return MustBuild("hamming-distance", HammingN,
		[]Layout{Packed(HammingN), Packed(HammingN)}, nil, []int{0},
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			acc := symbolic.Zero()
			for i := 0; i < HammingN; i++ {
				d := ct[0][i].Sub(ct[1][i])
				acc = acc.Add(d.Mul(d))
			}
			return []*symbolic.Poly{acc}
		})
}

// L2N is the vector length of the L2-distance kernel.
const L2N = 8

// L2Distance computes the squared Euclidean distance between two
// encrypted 8-vectors, result in slot 0 (the paper drops the square
// root, §7.1).
func L2Distance() *Spec {
	return MustBuild("l2-distance", L2N,
		[]Layout{Packed(L2N), Packed(L2N)}, nil, []int{0},
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			acc := symbolic.Zero()
			for i := 0; i < L2N; i++ {
				d := ct[0][i].Sub(ct[1][i])
				acc = acc.Add(d.Mul(d))
			}
			return []*symbolic.Poly{acc}
		})
}

// LinRegSamples is the number of packed samples in the linear
// regression kernel.
const LinRegSamples = 4

// LinearRegression evaluates y = w0·x0 + w1·x1 + b for a batch of
// two-feature samples packed [x0 x1 x0 x1 ...] in one ciphertext, with
// plaintext weights (packed [w0 w1 ...]) and bias. Outputs land at the
// even slots.
func LinearRegression() *Spec {
	n := 2 * LinRegSamples
	var outSlots []int
	for s := 0; s < LinRegSamples; s++ {
		outSlots = append(outSlots, 2*s)
	}
	// Weights replicated per sample, bias replicated at even slots.
	return MustBuild("linear-regression", n,
		[]Layout{Packed(n)},
		[]Layout{Packed(n), Strided(LinRegSamples, 2, 0)},
		outSlots,
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			x, w, b := ct[0], pt[0], pt[1]
			var out []*symbolic.Poly
			for s := 0; s < LinRegSamples; s++ {
				y := x[2*s].Mul(w[2*s]).Add(x[2*s+1].Mul(w[2*s+1])).Add(b[s])
				out = append(out, y)
			}
			return out
		})
}

// PolyRegN is the number of packed samples in the polynomial
// regression kernel.
const PolyRegN = 8

// PolynomialRegression evaluates y = a·x² + b·x + c element-wise over
// an encrypted feature vector with encrypted coefficient vectors
// (model privacy): three ciphertext inputs x, a-vector, b-vector and a
// plaintext c-vector.
func PolynomialRegression() *Spec {
	return MustBuild("polynomial-regression", PolyRegN,
		[]Layout{Packed(PolyRegN), Packed(PolyRegN), Packed(PolyRegN)},
		[]Layout{Packed(PolyRegN)},
		seqSlots(PolyRegN),
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			x, a, b := ct[0], ct[1], ct[2]
			c := pt[0]
			var out []*symbolic.Poly
			for i := 0; i < PolyRegN; i++ {
				y := a[i].Mul(x[i]).Mul(x[i]).Add(b[i].Mul(x[i])).Add(c[i])
				out = append(out, y)
			}
			return out
		})
}

func seqSlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Sobel computes the squared gradient magnitude Gx² + Gy² over the
// image interior. It is compiled with multi-step synthesis (§6.3) from
// the Gx and Gy kernels.
func Sobel() *Spec {
	return MustBuild("sobel", ImgVecLen, []Layout{imageLayout()}, nil,
		interiorSlots(),
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			img := ct[0]
			gx := applyStencil(img, GxFilter)
			gy := applyStencil(img, GyFilter)
			var out []*symbolic.Poly
			for i := range gx {
				out = append(out, gx[i].Mul(gx[i]).Add(gy[i].Mul(gy[i])))
			}
			return out
		})
}

// applyStencil evaluates a centered 3×3 stencil over the interior,
// returning one polynomial per interior pixel (row-major).
func applyStencil(img []*symbolic.Poly, filter [3][3]int64) []*symbolic.Poly {
	var out []*symbolic.Poly
	for r := 1; r < ImgH-1; r++ {
		for c := 1; c < ImgW-1; c++ {
			acc := symbolic.Zero()
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					w := filter[dr+1][dc+1]
					if w != 0 {
						acc = acc.Add(img[imgIdx(r+dr, c+dc)].ScalarMul(w))
					}
				}
			}
			out = append(out, acc)
		}
	}
	return out
}

// HarrisK16 documents the integerized Harris response used here:
// R = 16·det(M) − trace(M)², i.e. k = 1/16.
const HarrisK16 = 16

// Harris computes the integerized Harris corner response over the
// image interior: with Ixx = Gx², Iyy = Gy², Ixy = Gx·Gy summed over a
// 2×2 window (the paper's box blur), R = 16·(Sxx·Syy − Sxy²) −
// (Sxx+Syy)². Compiled with multi-step synthesis from Gx, Gy and box
// blur. Cared outputs are the pixels where the full 2×2 window of
// interior gradients exists.
func Harris() *Spec {
	var outSlots []int
	for r := 1; r < ImgH-2; r++ {
		for c := 1; c < ImgW-2; c++ {
			outSlots = append(outSlots, imgIdx(r, c))
		}
	}
	return MustBuild("harris", ImgVecLen, []Layout{imageLayout()}, nil,
		outSlots,
		func(ct, pt [][]*symbolic.Poly) []*symbolic.Poly {
			img := ct[0]
			// Gradients at every pixel where the stencil fits (zero
			// padding elsewhere, matching the HE data layout).
			gx := fullStencil(img, GxFilter)
			gy := fullStencil(img, GyFilter)
			var out []*symbolic.Poly
			for r := 1; r < ImgH-2; r++ {
				for c := 1; c < ImgW-2; c++ {
					sxx, syy, sxy := symbolic.Zero(), symbolic.Zero(), symbolic.Zero()
					for dr := 0; dr <= 1; dr++ {
						for dc := 0; dc <= 1; dc++ {
							i := imgIdx(r+dr, c+dc)
							sxx = sxx.Add(gx[i].Mul(gx[i]))
							syy = syy.Add(gy[i].Mul(gy[i]))
							sxy = sxy.Add(gx[i].Mul(gy[i]))
						}
					}
					det := sxx.Mul(syy).Sub(sxy.Mul(sxy))
					tr := sxx.Add(syy)
					out = append(out, det.ScalarMul(HarrisK16).Sub(tr.Mul(tr)))
				}
			}
			return out
		})
}

// fullStencil evaluates the stencil at every pixel, treating
// out-of-image accesses as zero (the padding semantics of the packed
// layout). Indexed by imgIdx.
func fullStencil(img []*symbolic.Poly, filter [3][3]int64) []*symbolic.Poly {
	out := make([]*symbolic.Poly, ImgH*ImgW)
	for r := 0; r < ImgH; r++ {
		for c := 0; c < ImgW; c++ {
			acc := symbolic.Zero()
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr < 0 || rr >= ImgH || cc < 0 || cc >= ImgW {
						continue
					}
					w := filter[dr+1][dc+1]
					if w != 0 {
						acc = acc.Add(img[imgIdx(rr, cc)].ScalarMul(w))
					}
				}
			}
			out[imgIdx(r, c)] = acc
		}
	}
	return out
}

// All returns the nine directly synthesized kernels in the paper's
// Table 3 order.
func All() []*Spec {
	return []*Spec{
		BoxBlur(),
		DotProduct(),
		HammingDistance(),
		L2Distance(),
		LinearRegression(),
		PolynomialRegression(),
		Gx(),
		Gy(),
		RobertsCross(),
	}
}

// ByName returns the named kernel spec (including the multi-step
// sobel and harris), or nil.
func ByName(name string) *Spec {
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	switch name {
	case "sobel":
		return Sobel()
	case "harris":
		return Harris()
	}
	return nil
}
