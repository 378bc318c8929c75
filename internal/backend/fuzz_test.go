package backend

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/quill"
)

// fuzzVecLen is the abstract vector length of fuzzed programs: the
// full PN2048 HE row, so abstract circular rotation and BFV row
// rotation have identical wrap semantics on every slot.
const fuzzVecLen = 1024

// fuzzRots is the rotation vocabulary of fuzzed programs (kept small
// so each program needs at most a handful of Galois keys).
var fuzzRots = []int{0, 1, -1, 2, -3, 5, 17, -64, 300, 511, -1000}

// decodeProgram turns arbitrary fuzz bytes into a well-formed
// local-rotate Quill program plus matching concrete inputs. The
// decoder is total: every byte string yields a valid program. The
// multiply budget is capped at two so PN2048's noise budget is never
// exhausted, mirroring TestDifferentialInterpreterVsBFV.
func decodeProgram(data []byte) (*quill.Program, []quill.Vec, []quill.Vec) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}

	p := &quill.Program{
		VecLen:      fuzzVecLen,
		NumCtInputs: 1 + int(next())%2,
		NumPtInputs: int(next()) % 2,
	}
	nInstr := 1 + int(next())%4
	muls := 0
	nVals := p.NumCtInputs
	for i := 0; i < nInstr; i++ {
		pick := func() quill.CtRef {
			return quill.CtRef{
				ID:  int(next()) % nVals,
				Rot: fuzzRots[int(next())%len(fuzzRots)],
			}
		}
		var in quill.Instr
		switch op := next() % 6; op {
		case 0:
			in = quill.Instr{Op: quill.OpAddCtCt, A: pick(), B: pick()}
		case 1:
			in = quill.Instr{Op: quill.OpSubCtCt, A: pick(), B: pick()}
		case 2:
			if muls >= 2 {
				in = quill.Instr{Op: quill.OpAddCtCt, A: pick(), B: pick()}
			} else {
				muls++
				in = quill.Instr{Op: quill.OpMulCtCt, A: pick(), B: pick()}
			}
		case 3:
			if p.NumPtInputs > 0 && next()%2 == 0 {
				in = quill.Instr{Op: quill.OpAddCtPt, A: pick(), P: quill.PtRef{Input: 0}}
			} else {
				in = quill.Instr{Op: quill.OpAddCtPt, A: pick(), P: quill.PtRef{Input: -1, Const: []int64{int64(next()%19) - 9}}}
			}
		case 4:
			in = quill.Instr{Op: quill.OpSubCtPt, A: pick(), P: quill.PtRef{Input: -1, Const: []int64{int64(next()%19) - 9}}}
		default:
			// Small constants keep plaintext-multiply noise growth
			// within the PN2048 budget.
			if muls >= 2 {
				in = quill.Instr{Op: quill.OpSubCtCt, A: pick(), B: pick()}
			} else {
				muls++
				in = quill.Instr{Op: quill.OpMulCtPt, A: pick(), P: quill.PtRef{Input: -1, Const: []int64{int64(next()%9) - 4}}}
			}
		}
		p.Instrs = append(p.Instrs, in)
		nVals++
	}
	p.Output = nVals - 1

	// Inputs: a PRNG seeded from the tail bytes, so input data is
	// fuzz-controlled without consuming kilobytes of corpus.
	var seedBytes [8]byte
	for i := range seedBytes {
		seedBytes[i] = next()
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seedBytes[:]))))
	ctIn := make([]quill.Vec, p.NumCtInputs)
	for i := range ctIn {
		ctIn[i] = randVec(rng, fuzzVecLen)
	}
	ptIn := make([]quill.Vec, p.NumPtInputs)
	for i := range ptIn {
		ptIn[i] = randVec(rng, fuzzVecLen)
	}
	return p, ctIn, ptIn
}

func randVec(rng *rand.Rand, n int) quill.Vec {
	v := make(quill.Vec, n)
	for i := range v {
		v[i] = rng.Uint64() % quill.Modulus
	}
	return v
}

// FuzzQuillVsBFV is the differential fuzzer of the full compilation
// stack: every fuzz input decodes to a well-formed local-rotate Quill
// program, which must produce identical slot values through four
// routes — the abstract interpreter on the local-rotate form, the
// abstract interpreter on the lowered form, the instruction-at-a-time
// BFV interpreter (encrypt → evaluate → decrypt), and the execution
// plan on the BFV backend, whose output ciphertext must additionally
// be bit-identical to the BFV interpreter's. The checked-in corpus
// under testdata/fuzz covers every opcode, rotation wrap-around,
// plaintext inputs, the multiply/relinearization path, the planner's
// register-reuse edge cases (diamond-shaped sharing, dead values),
// log-depth reduction trees over a shared source, and cross-source
// rotations that fuse into shared key-switch groups (pinned by
// TestFuzzCorpusBatchSeeds).
//
// Run `go test -fuzz FuzzQuillVsBFV ./internal/backend` to explore
// beyond the corpus.
func FuzzQuillVsBFV(f *testing.F) {
	if testing.Short() {
		f.Skip("differential fuzzing decrypts on the BFV backend (slow)")
	}
	// Baseline seeds; the richer corpus is checked in under
	// testdata/fuzz/FuzzQuillVsBFV.
	f.Add([]byte{})
	f.Add([]byte{1, 1, 3, 0, 5, 2, 1, 7, 2, 0, 2, 1, 4, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, ctIn, ptIn := decodeProgram(data)
		if err := prog.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid program: %v\n%s", err, prog)
		}
		want, err := quill.Run(prog, quill.ConcreteSem{}, ctIn, ptIn)
		if err != nil {
			t.Fatalf("interpreting local-rotate form: %v", err)
		}
		lowered, err := quill.Lower(prog, quill.DefaultLowerOptions())
		if err != nil {
			t.Fatalf("lowering: %v", err)
		}
		lw, err := quill.RunLowered(lowered, quill.ConcreteSem{}, ctIn, ptIn)
		if err != nil {
			t.Fatalf("interpreting lowered form: %v", err)
		}
		for i := range want {
			if want[i] != lw[i] {
				t.Fatalf("lowered interpretation diverges at slot %d: %d != %d\n%s", i, lw[i], want[i], prog)
			}
		}

		rt, err := NewTestRuntime("PN2048", 7, lowered)
		if err != nil {
			t.Fatalf("building runtime: %v", err)
		}
		cts := make([]*bfv.Ciphertext, len(ctIn))
		for i, v := range ctIn {
			if cts[i], err = rt.EncryptVec(v); err != nil {
				t.Fatalf("encrypting input %d: %v", i, err)
			}
		}
		out, err := rt.RunInterpreter(lowered, cts, ptIn)
		if err != nil {
			t.Fatalf("BFV interpreter execution: %v", err)
		}
		if b := rt.NoiseBudget(out); b <= 0 {
			t.Fatalf("noise budget exhausted (%.0f bits)\n%s", b, prog)
		}
		got := rt.DecryptVec(out, fuzzVecLen)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("BFV diverges from interpreter at slot %d: %d != %d\n%s", i, got[i], want[i], prog)
			}
		}

		// Third leg: the execution plan must reproduce the interpreter's
		// output ciphertext bit for bit (same ops in the same order, just
		// scheduled over reusable buffers).
		p, err := rt.Plan(lowered)
		if err != nil {
			t.Fatalf("plan compilation: %v\n%s", err, prog)
		}
		s := rt.NewSession()
		pout, err := s.Run(p, cts, ptIn)
		if err != nil {
			t.Fatalf("plan execution: %v\n%s", err, prog)
		}
		if !sameCiphertext(rt.Params, out, pout) {
			t.Fatalf("plan output ciphertext differs from BFV interpreter\n%s", prog)
		}
		pdec := rt.DecryptVec(pout, fuzzVecLen)
		for i := range want {
			if pdec[i] != want[i] {
				t.Fatalf("plan diverges from interpreter at slot %d: %d != %d\n%s", i, pdec[i], want[i], prog)
			}
		}
	})
}

// corpusSeed is one fuzz corpus seed and the rotation shape its default
// plan must reach.
type corpusSeed struct {
	name       string
	data       []byte
	sharedG    int // shared key-switch groups in the default plan
	sharedR    int // rotations covered by those groups
	replayed   int // members reusing a resident decomposition
	numDecomps int // peak live decomposition slots
}

// checkCorpusSeeds decodes, lowers and compiles each seed and pins its
// plan's shared groups and decomposition slots. If the decoder or the
// sharing pass changes shape, this fails instead of the corpus silently
// degrading to programs that never reach the shapes they were written
// for.
func checkCorpusSeeds(t *testing.T, cases []corpusSeed) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, _, _ := decodeProgram(c.data)
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			lowered, err := quill.Lower(prog, quill.DefaultLowerOptions())
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewTestRuntime("PN2048", 7, lowered)
			if err != nil {
				t.Fatal(err)
			}
			p, err := rt.Plan(lowered)
			if err != nil {
				t.Fatal(err)
			}
			g, r, rep := p.SharedGroups()
			if g != c.sharedG || r != c.sharedR || rep != c.replayed {
				t.Errorf("shared groups = %d (%d rotations, %d replayed), want %d (%d, %d)\n%s",
					g, r, rep, c.sharedG, c.sharedR, c.replayed, prog)
			}
			if p.NumDecomps != c.numDecomps {
				t.Errorf("NumDecomps = %d, want %d\n%s", p.NumDecomps, c.numDecomps, prog)
			}
		})
	}
}

// TestFuzzCorpusBatchSeeds pins the tree and cross-source corpus seeds:
// a reduction tree over one source (no group: each value is rotated
// once, by its own amount), two sources rotated by one amount (one
// cross-source group) and sibling tree levels over two sources (a
// cross-source group per level).
func TestFuzzCorpusBatchSeeds(t *testing.T) {
	checkCorpusSeeds(t, []corpusSeed{
		{
			// v1 = v0 + rot(v0,2); v2 = v1 + rot(v1,1): a log-depth
			// reduction tree over one shared source.
			name: "tree-shared-source",
			data: []byte{0, 0, 1, 0, 0, 3, 0, 0, 0, 1, 1, 1, 0,
				0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18},
		},
		{
			// rot(ct0,1) and rot(ct1,1): two sources, one amount — one
			// group of two, each member filling its own slot.
			name: "batched-cross-source",
			data: []byte{1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 2, 0,
				0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28},
			sharedG: 1, sharedR: 2, numDecomps: 2,
		},
		{
			// Sibling tree levels over ct0 and ct1: rot-2 pair then
			// rot-1 pair — two groups of two.
			name: "batched-tree-levels",
			data: []byte{1, 0, 2, 0, 0, 3, 0, 0, 0, 1, 3, 1, 0, 0, 2, 1, 3, 1,
				0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38},
			sharedG: 2, sharedR: 4, numDecomps: 2,
		},
	})
}

// TestFuzzCorpusSharedSeeds pins the double-hoisted corpus seeds: a
// single source rotated by three amounts across two tree levels (one
// decomposition, two replays) and a source whose decomposition outlives
// the cross-source group it was filled for (later singleton replay).
func TestFuzzCorpusSharedSeeds(t *testing.T) {
	checkCorpusSeeds(t, []corpusSeed{
		{
			// c1 = rot(c0,1)+rot(c0,2); c2 = rot(c1,1)+rot(c0,5): c0 is
			// rotated at two tree levels by three amounts — one fill,
			// two replays of the same slot. c1, rotated once, stays a
			// plain (level-parallel) rotation.
			name: "shared-fan-two-levels",
			data: []byte{0, 0, 2,
				0, 0, 1, 0, 3,
				0, 1, 1, 0, 5,
				0, 2, 0, 0, 0,
				0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48},
			sharedG: 3, sharedR: 3, replayed: 2, numDecomps: 1,
		},
		{
			// rot(c0,1)+rot(c1,1) then rot(c0,2): the amount-1 group
			// fills both sources' slots; c0's decomposition crosses the
			// batch window and replays in the amount-2 singleton.
			name: "shared-cross-window",
			data: []byte{1, 0, 1,
				0, 0, 1, 1, 1,
				0, 2, 0, 0, 3,
				0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58},
			sharedG: 2, sharedR: 3, replayed: 1, numDecomps: 2,
		},
	})
}
