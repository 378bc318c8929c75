package quill

import "sort"

// treereduce.go rewrites serial slot-reduction chains into the
// cheapest key-switch shape: a decompose-once rotation FAN off the
// base value for narrow windows, or a log-depth doubling TREE for wide
// ones.
//
// A slot reduction accumulates a contiguous window of rotations of one
// value,
//
//	acc = rot(x,c) + rot(x,c+1) + ... + rot(x,c+m-1),
//
// and the natural way to write it — acc = rot(acc,1) + x repeated —
// lowers to a serial fan-out-1 chain: m−1 rotations, each of a
// DIFFERENT source, so neither rotation CSE, the plan's rotation
// sharing (every fan-out is 1), nor domain assignment (each rotation
// ends a chain) can touch it. The rewrite re-associates the same sum into one of two
// shapes:
//
//	fan:  acc = Σ_i rot(x, c+i)              — m rotations, ONE source
//	tree: t = x + rot(x, 1); t = t + rot(t, 2); t = t + rot(t, 4); ...
//	                                         — ⌈log m⌉ rotations, each
//	                                           of a DIFFERENT source
//
// The shapes trade the two halves of a key-switch against each other:
// every distinct rotated source needs one RNS digit decomposition
// (digit lift + forward NTTs — the expensive, hoistable prefix), while
// each rotation amount then costs only a digit permutation + lazy
// inner product against that shared decomposition. ksCost models this
// as decompCost per source + 1 per rotation; the rewrite emits
// whichever shape is cheaper. Fans win for the narrow windows real
// kernels have (one decomposition feeds every amount — the
// double-hoisted shape internal/plan's sharing pass executes from one
// decomposition slot), trees win asymptotically. Both shapes cut the
// serial chain's noise growth too, since EstimateNoise charges every
// rotation and addition one bit of depth and both have O(log m) add
// depth. Parallel reductions over different sources come out
// level-aligned, which is exactly the shape the plan layer's
// cross-source shared groups fuse.
//
// Exactness: either rewrite preserves the multiset of LITERAL rotation
// offsets applied to the base value — it only re-associates the
// additions. Slot addition is associative and commutative in the
// plaintext ring on both the abstract machine and the HE backend, and
// literal offsets compose additively on both (see NormRot for why
// amounts must stay literal), so the rewritten program computes the
// same full vector, zero padding and wraparound included, for every
// vector length.

// maxTreeOffsets bounds the tracked offset-set size so descriptor
// propagation stays linear in program size.
const maxTreeOffsets = 4096

// reduceDesc describes an SSA value as a sum of distinct literal
// rotations of one base value: v = Σ_{k∈offs} rot(base, k). Every
// value has the trivial descriptor (itself, {0}).
type reduceDesc struct {
	base int
	offs []int // sorted, strictly increasing
}

// reduceDescriptors abstractly interprets the program over reduction
// descriptors. Rotation shifts every offset by the literal amount;
// addition of two sums over the same base with disjoint offset sets
// unions them; everything else resets to the trivial descriptor.
func reduceDescriptors(l *Lowered) []reduceDesc {
	descs := make([]reduceDesc, l.NumValues())
	for i := 0; i < l.NumCtInputs; i++ {
		descs[i] = reduceDesc{base: i, offs: []int{0}}
	}
	for _, in := range l.Instrs {
		d := reduceDesc{base: in.Dst, offs: []int{0}}
		switch in.Op {
		case OpRotCt:
			src := descs[in.A]
			offs := make([]int, len(src.offs))
			for j, o := range src.offs {
				offs[j] = o + in.Rot
			}
			d = reduceDesc{base: src.base, offs: offs}
		case OpAddCtCt:
			da, db := descs[in.A], descs[in.B]
			if da.base == db.base && len(da.offs)+len(db.offs) <= maxTreeOffsets {
				if merged, ok := mergeDisjoint(da.offs, db.offs); ok {
					d = reduceDesc{base: da.base, offs: merged}
				}
			}
		}
		descs[in.Dst] = d
	}
	return descs
}

// mergeDisjoint merges two sorted strictly-increasing offset lists,
// reporting failure on any shared offset (x + x is 2·x, not a plain
// reduction).
func mergeDisjoint(a, b []int) ([]int, bool) {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			return nil, false
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

// RotationCount returns the number of rot-ct instructions — the static
// quantity the tree rewrite drives from O(n) to O(log n) on reduction
// kernels.
func (l *Lowered) RotationCount() int {
	c := 0
	for _, in := range l.Instrs {
		if in.Op == OpRotCt {
			c++
		}
	}
	return c
}

// decompCost is the static cost of one RNS digit decomposition
// relative to one shared-decomposition rotation apply. In the
// NTT-domain evaluator the decomposition (digit lift + K forward NTTs
// + the c1 INTT) costs several NTT passes while the per-amount apply
// is pure pointwise work, so a decomposition is worth roughly four
// applies; the exact constant only moves the fan/tree cutover
// (m ≈ 20+), far above real kernel windows.
const decompCost = 4

// ksCost is the static key-switch cost of a program under the
// double-hoisted execution model: one digit decomposition per DISTINCT
// rotation source plus one automorphism apply per rotation.
func ksCost(l *Lowered) int {
	srcs := map[int]bool{}
	rots := 0
	for _, in := range l.Instrs {
		if in.Op == OpRotCt {
			rots++
			srcs[in.A] = true
		}
	}
	return decompCost*len(srcs) + rots
}

// DecompositionCount returns the number of distinct rotation sources —
// the static count of digit decompositions a double-hoisted plan needs
// for the program's rotations.
func (l *Lowered) DecompositionCount() int {
	srcs := map[int]bool{}
	for _, in := range l.Instrs {
		if in.Op == OpRotCt {
			srcs[in.A] = true
		}
	}
	return len(srcs)
}

// TreeReduceLowered rewrites serial slot-reduction chains in l into
// the cheaper of a decompose-once rotation fan or a log-depth
// rotate-and-add tree, and returns the rewritten (and CSE/DCE-cleaned)
// program plus whether anything changed. A candidate chain is
// rewritten only when doing so strictly reduces the program's static
// key-switch cost (ksCost), so programs already in optimal shape — and
// chains whose partial sums have other consumers — pass through
// unchanged. OptimizeLowered runs this as part of its fixpoint.
func TreeReduceLowered(l *Lowered) (*Lowered, bool, error) {
	if err := l.Validate(); err != nil {
		return nil, false, err
	}
	cur, err := cseDce(l)
	if err != nil {
		return nil, false, err
	}
	changed := false
	for {
		next, ch, err := treeReduceOnce(cur)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return cur, changed, nil
		}
		cur, changed = next, true
	}
}

// cseDce runs the CSE/DCE cleanup to fixpoint (the non-tree half of
// OptimizeLowered).
func cseDce(l *Lowered) (*Lowered, error) {
	cur := l
	for {
		next, changed, err := optimizeOnce(cur)
		if err != nil {
			return nil, err
		}
		if !changed {
			return next, nil
		}
		cur = next
	}
}

// treeReduceOnce finds the best reduction chain whose rewrite strictly
// lowers the static key-switch cost, applies it, and returns the
// cleaned program. Both shapes (fan and tree) are tried for every
// candidate and compared on the CLEANED whole-program cost, so a fan
// whose base is already rotated elsewhere correctly pays no second
// decomposition. l must already be CSE/DCE-clean so costs compare like
// with like.
func treeReduceOnce(l *Lowered) (*Lowered, bool, error) {
	descs := reduceDescriptors(l)
	type candidate struct{ idx, base, start, m int }
	var cands []candidate
	for idx, in := range l.Instrs {
		d := descs[in.Dst]
		m := len(d.offs)
		if d.base == in.Dst || m < 3 {
			continue
		}
		// Contiguous window: sorted distinct offsets spanning m−1.
		if d.offs[m-1]-d.offs[0] != m-1 {
			continue
		}
		cands = append(cands, candidate{idx: idx, base: d.base, start: d.offs[0], m: m})
	}
	// Widest chain first; later candidates are often its own partial
	// sums and disappear with it.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].m != cands[j].m {
			return cands[i].m > cands[j].m
		}
		return cands[i].idx < cands[j].idx
	})
	before := ksCost(l)
	for _, c := range cands {
		var best *Lowered
		bestCost := before
		for _, fan := range []bool{true, false} {
			rw, err := rewriteReduction(l, c.idx, c.base, c.start, c.m, fan)
			if err != nil {
				return nil, false, err
			}
			cleaned, err := cseDce(rw)
			if err != nil {
				return nil, false, err
			}
			if cost := ksCost(cleaned); cost < bestCost {
				best, bestCost = cleaned, cost
			}
		}
		if best != nil {
			return best, true, nil
		}
	}
	return l, false, nil
}

// rewriteReduction rebuilds l with the instruction at candIdx replaced
// by the requested reduction shape over a window of width m starting
// at offset `start`: the decompose-once fan (every offset rotated
// directly off the base, summed by a balanced add tree) or the
// canonical doubling tree prefixed by rot(base, start) when start ≠ 0.
// The chain's intermediate instructions are left in place for DCE to
// collect — if any of them has another consumer it simply survives.
func rewriteReduction(l *Lowered, candIdx, base, start, m int, fan bool) (*Lowered, error) {
	out := &Lowered{VecLen: l.VecLen, NumCtInputs: l.NumCtInputs, NumPtInputs: l.NumPtInputs}
	remap := make([]int, l.NumValues())
	for i := 0; i < l.NumCtInputs; i++ {
		remap[i] = i
	}
	next := l.NumCtInputs
	emit := func(in LInstr) int {
		in.Dst = next
		out.Instrs = append(out.Instrs, in)
		next++
		return in.Dst
	}
	for idx, in := range l.Instrs {
		if idx == candIdx {
			b := remap[base]
			if fan {
				remap[in.Dst] = emitFan(emit, b, start, m)
			} else {
				if start != 0 {
					b = emit(LInstr{Op: OpRotCt, A: b, Rot: start})
				}
				remap[in.Dst] = emitTree(emit, b, m)
			}
			continue
		}
		ni := in
		ni.A = remap[in.A]
		if in.Op.IsCtCt() {
			ni.B = remap[in.B]
		}
		remap[in.Dst] = emit(ni)
	}
	out.Output = remap[l.Output]
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// emitFan emits instructions computing Σ_{k=0}^{m-1} rot(b, start+k)
// with every rotation taken DIRECTLY off the base value — one digit
// decomposition feeds all m amounts under double-hoisted execution —
// followed by a balanced pairwise add tree (O(log m) add depth, same
// as the doubling tree, so the noise estimate does not regress). The
// literal offset start+k is emitted as-is; offset 0 contributes the
// base itself.
func emitFan(emit func(LInstr) int, b, start, m int) int {
	terms := make([]int, 0, m)
	for k := 0; k < m; k++ {
		if start+k == 0 {
			terms = append(terms, b)
		} else {
			terms = append(terms, emit(LInstr{Op: OpRotCt, A: b, Rot: start + k}))
		}
	}
	for len(terms) > 1 {
		var half []int
		for i := 0; i+1 < len(terms); i += 2 {
			half = append(half, emit(LInstr{Op: OpAddCtCt, A: terms[i], B: terms[i+1]}))
		}
		if len(terms)%2 == 1 {
			half = append(half, terms[len(terms)-1])
		}
		terms = half
	}
	return terms[0]
}

// emitTree emits instructions computing Σ_{k=0}^{m-1} rot(b, k) with
// O(log m) rotations: even widths double the half-width tree
// (T(m) = T(m/2) + rot(T(m/2), m/2)), odd widths add the one missing
// offset from the base (T(m) = T(m−1) + rot(b, m−1)).
func emitTree(emit func(LInstr) int, b, m int) int {
	if m == 1 {
		return b
	}
	if m%2 == 0 {
		t := emitTree(emit, b, m/2)
		r := emit(LInstr{Op: OpRotCt, A: t, Rot: m / 2})
		return emit(LInstr{Op: OpAddCtCt, A: t, B: r})
	}
	t := emitTree(emit, b, m-1)
	r := emit(LInstr{Op: OpRotCt, A: b, Rot: m - 1})
	return emit(LInstr{Op: OpAddCtCt, A: t, B: r})
}
