package plan

import "porcupine/internal/quill"

// Domain assignment: a dataflow pass over the scheduled program that
// tags every value with the representation its defining step writes —
// coefficient or evaluation (NTT) domain — choosing the assignment
// that minimizes the static count of key-switch-external NTT/INTT
// transforms the plan executes.
//
// The lever: additions and subtractions are pointwise in either
// domain, plaintext products are pointwise in the NTT domain, and the
// key-switching inner products of a rotation are already NTT-resident
// — so a rotation that feeds a pointwise chain can skip its two
// output INTTs entirely (its destination stays in the evaluation
// domain), at the price of one forward NTT of the source's c0 that a
// rotation fan shares across all of its NTT-destined members. True
// domain boundaries remain: tensor products and relinearization read
// coefficient operands, and the program output leaves in the
// coefficient domain; the compiler materializes explicit OpNTT/OpINTT
// conversion steps ("twins") exactly there.
//
// The transform-cost model (one unit = one forward or inverse NTT of
// a full R_Q polynomial, counting only transforms OUTSIDE the fixed
// key-switching inner products):
//
//	rotation, coeff src → coeff dst: 2   (INTT f0, INTT f1)
//	rotation, coeff src → NTT dst:   1   (NTT c0; shared per fan)
//	rotation, NTT src → NTT dst:     1   (INTT of c1 for digit extraction)
//	rotation, NTT src → coeff dst:   —   (forbidden; no such variant)
//	relinearization:                 2   (INTT f0, INTT f1; operands pinned coeff)
//	mul-plain (prepared operand):    2·[src coeff] + 2·[dst coeff]
//	add/sub (ct-ct and ct-pt):       0   (pointwise in the dst's domain)
//	conversion twin (OpNTT/OpINTT):  2   (both rows of a degree-1 value)
//	add/sub-plain w/ runtime pt, NTT dst: 1 per distinct input per run
//
// Tensor-product extended-basis transforms are excluded: they are
// internal to MulInto and unchanged by any assignment (as are the
// transforms inside key-switching itself).
//
// The solver is deterministic local search from the all-coefficient
// assignment, with three move classes evaluated against the exact
// model above: whole connected components of flexible values (joined
// by producer-consumer edges), components minus their rotation
// sources (the "fan outputs go NTT, fan source stays coeff" split a
// whole-component flip cannot see), and single values. Only strictly
// improving moves are accepted, to a fixpoint. Kernels are small
// (tens of values), so this converges in a handful of passes; any
// assignment it returns is correct by construction — optimality only
// affects how many transforms are saved.

// Domain tags the representation a plan register (or value) holds:
// coefficient domain or evaluation (NTT) domain. NTT-resident
// registers always hold degree-1 ciphertexts.
type Domain uint8

const (
	// DomCoeff is the coefficient domain — the form the encryptor,
	// decryptor, tensor product and relinearization consume.
	DomCoeff Domain = 0
	// DomNTT is the evaluation domain: both polynomials of the
	// ciphertext are forward-NTT'd. Pointwise ops execute natively.
	DomNTT Domain = 1
)

func (d Domain) String() string {
	if d == DomNTT {
		return "ntt"
	}
	return "coeff"
}

// domainForbidden prices an assignment with no implemented execution
// path (an NTT-resident source rotated into a coefficient
// destination) out of the search.
const domainForbidden = 1 << 20

// domainCost evaluates the static transform count of an assignment
// under the model in the package comment. It is the single source of
// truth the solver optimizes; ExecutionPlan.ExternalTransforms
// reports the same model over the emitted step list.
func domainCost(l *quill.Lowered, canon, deg []int, sched []schedEntry, nIn, output int, dom []Domain) int {
	n := len(canon)
	needC := make([]bool, n) // home-NTT values read in coefficient form
	needN := make([]bool, n) // home-coeff values read in NTT form
	ptAdd := make([]bool, l.NumPtInputs)
	total := 0
	twin := func(v int, d Domain) {
		if dom[v] == d {
			return
		}
		if d == DomNTT {
			needN[v] = true
		} else {
			needC[v] = true
		}
	}
	for _, e := range sched {
		in := l.Instrs[e.idx]
		a := canon[in.A]
		if e.members != nil {
			if dom[a] == DomNTT {
				total++ // INTT of c1 to extract the shared digits
				for _, m := range e.members {
					if dom[nIn+m] == DomCoeff {
						total += domainForbidden
					}
				}
			} else {
				anyN := false
				for _, m := range e.members {
					if dom[nIn+m] == DomNTT {
						anyN = true
					} else {
						total += 2
					}
				}
				if anyN {
					total++ // NTT of c0, shared by every NTT member
				}
			}
			continue
		}
		dstv := nIn + e.idx
		d := dom[dstv]
		switch in.Op {
		case quill.OpRotCt:
			switch {
			case dom[a] == DomNTT && d == DomNTT:
				total++
			case dom[a] == DomNTT:
				total += domainForbidden
			case d == DomNTT:
				total++
			default:
				total += 2
			}
		case quill.OpRelin:
			total += 2
		case quill.OpMulCtCt:
			twin(a, DomCoeff)
			twin(canon[in.B], DomCoeff)
		case quill.OpAddCtCt, quill.OpSubCtCt:
			twin(a, d)
			twin(canon[in.B], d)
		case quill.OpAddCtPt, quill.OpSubCtPt:
			twin(a, d)
			if d == DomNTT && in.P.Input >= 0 {
				ptAdd[in.P.Input] = true // NTT(Δ·m) once per run
			}
		case quill.OpMulCtPt:
			if dom[a] == DomCoeff {
				total += 2
			}
			if d == DomCoeff {
				total += 2
			}
		}
	}
	twin(output, DomCoeff)
	for v := 0; v < n; v++ {
		if needC[v] {
			total += 2
		}
		if needN[v] {
			total += 2
		}
	}
	for _, b := range ptAdd {
		if b {
			total++
		}
	}
	return total
}

// assignDomains picks the home domain of every canonical value.
// Inputs, degree-2 values, and relinearization / tensor-product
// results are pinned to the coefficient domain; everything else is
// flexible.
func assignDomains(l *quill.Lowered, canon, deg []int, sched []schedEntry, nIn, output int) []Domain {
	n := len(canon)
	dom := make([]Domain, n) // all DomCoeff

	flexible := make([]bool, n)
	for _, e := range sched {
		if e.members != nil {
			for _, m := range e.members {
				flexible[nIn+m] = true
			}
			continue
		}
		in := l.Instrs[e.idx]
		dstv := nIn + e.idx
		if in.Op == quill.OpRelin || in.Op == quill.OpMulCtCt || deg[dstv] != 1 {
			continue
		}
		flexible[dstv] = true
	}

	// Connected components of flexible values over producer-consumer
	// edges: values that feed each other pointwise (or through a
	// rotation) want to agree on a domain, so they flip together.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if !flexible[a] || !flexible[b] {
			return
		}
		if ra, rb := find(a), find(b); ra != rb {
			parent[rb] = ra
		}
	}
	rotSrc := make([]bool, n)
	for _, e := range sched {
		in := l.Instrs[e.idx]
		a := canon[in.A]
		if e.members != nil {
			if flexible[a] {
				rotSrc[a] = true
			}
			prev := -1
			for _, m := range e.members {
				union(a, nIn+m)
				if prev >= 0 {
					union(prev, nIn+m)
				}
				prev = nIn + m
			}
			continue
		}
		dstv := nIn + e.idx
		switch in.Op {
		case quill.OpRotCt:
			if flexible[a] {
				rotSrc[a] = true
			}
			union(a, dstv)
		case quill.OpAddCtCt, quill.OpSubCtCt:
			union(a, dstv)
			union(canon[in.B], dstv)
		case quill.OpAddCtPt, quill.OpSubCtPt, quill.OpMulCtPt:
			union(a, dstv)
		}
	}
	compIdx := make(map[int]int)
	var comps [][]int
	for v := 0; v < n; v++ {
		if !flexible[v] {
			continue
		}
		r := find(v)
		ci, ok := compIdx[r]
		if !ok {
			ci = len(comps)
			comps = append(comps, nil)
			compIdx[r] = ci
		}
		comps[ci] = append(comps[ci], v)
	}

	best := domainCost(l, canon, deg, sched, nIn, output, dom)
	try := func(vals []int) bool {
		if len(vals) == 0 {
			return false
		}
		for _, v := range vals {
			dom[v] ^= 1
		}
		if c := domainCost(l, canon, deg, sched, nIn, output, dom); c < best {
			best = c
			return true
		}
		for _, v := range vals {
			dom[v] ^= 1
		}
		return false
	}
	single := make([]int, 1)
	for pass := 0; pass < 32; pass++ {
		improved := false
		for _, comp := range comps {
			if try(comp) {
				improved = true
			}
			var sub []int
			for _, v := range comp {
				if !rotSrc[v] {
					sub = append(sub, v)
				}
			}
			if len(sub) < len(comp) && try(sub) {
				improved = true
			}
		}
		for v := 0; v < n; v++ {
			if flexible[v] {
				single[0] = v
				if try(single) {
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return dom
}
