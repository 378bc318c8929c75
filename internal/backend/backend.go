// Package backend executes lowered Quill programs on the real BFV
// implementation (internal/bfv) — the role SEAL plays in the paper —
// and profiles per-instruction latencies to fit the Quill cost model.
//
// The execution stack is split for concurrent serving:
//
//   - Context is the immutable shared state: parameters, keys,
//     encoder, evaluator. One Context serves any number of goroutines.
//   - Session is the cheap per-goroutine state: the register file and
//     plaintext scratch an execution plan runs in. Sessions are not
//     safe for concurrent use; create one per worker.
//   - Runtime wraps a Context with a session pool behind the
//     historical one-call API (Run, TimedRun).
//
// Programs run through execution plans (internal/plan): compiled
// once per program, then executed allocation-free from any number of
// sessions. The original instruction-at-a-time interpreter is kept as
// RunInterpreter, the differential reference the plan path is tested
// against.
package backend

import (
	"fmt"
	"sync"
	"time"

	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/ring"
)

// Context bundles the immutable BFV state shared by every session:
// parameters, keys, encoder, and evaluator. All methods are safe for
// concurrent use.
type Context struct {
	Params  *bfv.Parameters
	Encoder *bfv.Encoder
	Enc     *bfv.Encryptor
	Dec     *bfv.Decryptor
	Eval    *bfv.Evaluator
	sk      *bfv.SecretKey

	// rlk and gks are the public evaluation keys behind Eval, retained
	// so the context can be exported as a wire bundle (EvalKeys). In a
	// sealed context they are the only key material present.
	rlk *bfv.RelinearizationKey
	gks *bfv.GaloisKeys

	// plans caches compiled execution plans per lowered program (keyed
	// by pointer), so the one-call Runtime API compiles each program
	// once.
	plans sync.Map // *quill.Lowered -> *plan.ExecutionPlan
}

// NewContext generates fresh keys for the preset and prepares Galois
// keys for the given rotation steps (canonical amounts, e.g. from
// plan.RotationSet or RotationSteps).
func NewContext(preset string, rotations []int) (*Context, error) {
	params, err := bfv.NewParametersFromPreset(preset)
	if err != nil {
		return nil, err
	}
	encoder, err := bfv.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	kg := bfv.NewKeyGenerator(params)
	return newContext(params, encoder, kg, rotations)
}

// NewTestContext is NewContext with deterministic randomness for tests
// and benchmarks.
func NewTestContext(preset string, seed int64, rotations []int) (*Context, error) {
	params, err := bfv.NewParametersFromPreset(preset)
	if err != nil {
		return nil, err
	}
	encoder, err := bfv.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	kg := bfv.NewTestKeyGenerator(params, seed)
	return newContext(params, encoder, kg, rotations)
}

func newContext(params *bfv.Parameters, encoder *bfv.Encoder, kg *bfv.KeyGenerator, rotations []int) (*Context, error) {
	sk, err := kg.GenSecretKey()
	if err != nil {
		return nil, err
	}
	rlk, err := kg.GenRelinearizationKey(sk)
	if err != nil {
		return nil, err
	}
	gks, err := kg.GenGaloisKeys(sk, rotations)
	if err != nil {
		return nil, err
	}
	return &Context{
		Params:  params,
		Encoder: encoder,
		Enc:     bfv.NewEncryptor(params, sk),
		Dec:     bfv.NewDecryptor(params, sk),
		Eval:    bfv.NewEvaluator(params, rlk, gks),
		sk:      sk,
		rlk:     rlk,
		gks:     gks,
	}, nil
}

// NewSealedContext builds an execute-only context from public
// evaluation keys alone — the serving half of a multi-process
// deployment, where the artifact (plan + relin + Galois keys) crossed
// the wire and the secret key stayed with the exporting process. A
// sealed context runs plans and produces bit-identical ciphertexts,
// but cannot encrypt or decrypt (CanDecrypt reports false; EncryptVec,
// DecryptVec and NoiseBudget return errors or panic).
func NewSealedContext(params *bfv.Parameters, rlk *bfv.RelinearizationKey, gks *bfv.GaloisKeys) (*Context, error) {
	encoder, err := bfv.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	return &Context{
		Params:  params,
		Encoder: encoder,
		Eval:    bfv.NewEvaluator(params, rlk, gks),
		rlk:     rlk,
		gks:     gks,
	}, nil
}

// EvalKeys returns the public evaluation keys (relinearization +
// Galois) the context executes with — the key material a wire
// registry exports. The secret key is never exposed.
func (c *Context) EvalKeys() (*bfv.RelinearizationKey, *bfv.GaloisKeys) {
	return c.rlk, c.gks
}

// CanDecrypt reports whether the context holds the secret key (false
// for sealed contexts built from a wire registry).
func (c *Context) CanDecrypt() bool { return c.Dec != nil }

// PresetFor names the parameter preset deep enough for every given
// program: PN8192 when any multiplicative depth exceeds 2, else PN4096,
// the smaller 128-bit-secure preset, whose noise budget runs out
// beyond depth 2.
func PresetFor(programs ...*quill.Lowered) string {
	for _, l := range programs {
		if l.MultDepth() > 2 {
			return "PN8192"
		}
	}
	return "PN4096"
}

// NewServingContext compiles execution plans for the given programs
// and builds a context holding exactly the Galois keys those plans
// need — the setup path of a serving deployment. The returned plans
// are in program order and also cached on the context (Plan).
func NewServingContext(preset string, programs ...*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	return newServingContext(preset, nil, programs)
}

// NewTestServingContext is NewServingContext with deterministic keys.
func NewTestServingContext(preset string, seed int64, programs ...*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	return newServingContext(preset, &seed, programs)
}

// NewMuxServingContext is NewServingContext for a slot-multiplexing
// deployment (a registry export): the Galois key set additionally
// covers the pack/demux rotations (±j·stride) of every mux-eligible
// plan, so one context can serve both per-request and lane-packed
// execution. maxLanes ≤ 0 means plan.DefaultMaxLanes.
func NewMuxServingContext(preset string, maxLanes int, programs ...*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	return newMuxServingContext(preset, nil, maxLanes, programs)
}

// NewTestMuxServingContext is NewMuxServingContext with deterministic
// keys.
func NewTestMuxServingContext(preset string, seed int64, maxLanes int, programs ...*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	return newMuxServingContext(preset, &seed, maxLanes, programs)
}

func newServingContext(preset string, seed *int64, programs []*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	params, err := bfv.NewParametersFromPreset(preset)
	if err != nil {
		return nil, nil, err
	}
	encoder, err := bfv.NewEncoder(params)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*plan.ExecutionPlan, len(programs))
	for i, l := range programs {
		if plans[i], err = plan.Compile(params, encoder, l); err != nil {
			return nil, nil, err
		}
	}
	kg := bfv.NewKeyGenerator(params)
	if seed != nil {
		kg = bfv.NewTestKeyGenerator(params, *seed)
	}
	ctx, err := newContext(params, encoder, kg, plan.RotationSet(plans...))
	if err != nil {
		return nil, nil, err
	}
	for i, l := range programs {
		ctx.plans.Store(l, plans[i])
	}
	return ctx, plans, nil
}

func newMuxServingContext(preset string, seed *int64, maxLanes int, programs []*quill.Lowered) (*Context, []*plan.ExecutionPlan, error) {
	params, err := bfv.NewParametersFromPreset(preset)
	if err != nil {
		return nil, nil, err
	}
	encoder, err := bfv.NewEncoder(params)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]*plan.ExecutionPlan, len(programs))
	for i, l := range programs {
		if plans[i], err = plan.Compile(params, encoder, l); err != nil {
			return nil, nil, err
		}
	}
	kg := bfv.NewKeyGenerator(params)
	if seed != nil {
		kg = bfv.NewTestKeyGenerator(params, *seed)
	}
	ctx, err := newContext(params, encoder, kg, plan.MuxRotationSet(params.SlotCount(), maxLanes, plans...))
	if err != nil {
		return nil, nil, err
	}
	for i, l := range programs {
		ctx.plans.Store(l, plans[i])
	}
	return ctx, plans, nil
}

// CompilePlan compiles a lowered program into an execution plan for
// this context's parameters (no cache; see Plan for the cached form).
func (c *Context) CompilePlan(l *quill.Lowered) (*plan.ExecutionPlan, error) {
	return plan.Compile(c.Params, c.Encoder, l)
}

// Plan returns the cached execution plan for a program, compiling it
// on first use. The cache is keyed by program identity (pointer).
func (c *Context) Plan(l *quill.Lowered) (*plan.ExecutionPlan, error) {
	if p, ok := c.plans.Load(l); ok {
		return p.(*plan.ExecutionPlan), nil
	}
	p, err := plan.Compile(c.Params, c.Encoder, l)
	if err != nil {
		return nil, err
	}
	actual, _ := c.plans.LoadOrStore(l, p)
	return actual.(*plan.ExecutionPlan), nil
}

// RotationSteps collects the distinct literal rotation amounts of the
// programs (for Galois key generation) — the amounts execution
// performs. Rotations by 0 need no key (identity) and are skipped.
func RotationSteps(programs ...*quill.Lowered) []int {
	seen := map[int]bool{}
	var steps []int
	for _, p := range programs {
		if p == nil {
			continue
		}
		for _, in := range p.Instrs {
			if in.Op != quill.OpRotCt {
				continue
			}
			if in.Rot != 0 && !seen[in.Rot] {
				seen[in.Rot] = true
				steps = append(steps, in.Rot)
			}
		}
	}
	return steps
}

// EncryptVec encodes and encrypts an abstract Quill vector. The
// program vector (length VecLen) occupies the first slots of the HE
// row; remaining slots are zero, so the small signed rotations of
// lowered programs behave identically to the abstract machine.
func (c *Context) EncryptVec(v quill.Vec) (*bfv.Ciphertext, error) {
	if c.Enc == nil {
		return nil, fmt.Errorf("backend: sealed context holds no secret key; encrypt on the exporting side")
	}
	if len(v) > c.Params.SlotCount() {
		return nil, fmt.Errorf("backend: vector of %d slots exceeds row size %d", len(v), c.Params.SlotCount())
	}
	pt := c.Params.GetPlaintext()
	defer c.Params.PutPlaintext(pt)
	if err := c.Encoder.Encode(v, pt); err != nil {
		return nil, err
	}
	return c.Enc.Encrypt(pt)
}

// DecryptVec decrypts and returns the first vecLen slots. It panics on
// a sealed context (guard with CanDecrypt): decryption requires the
// secret key, which never crosses the wire. It also panics when vecLen
// is outside the row, a caller bug. The returned vector is the only
// allocation.
func (c *Context) DecryptVec(ct *bfv.Ciphertext, vecLen int) quill.Vec {
	if c.Dec == nil {
		panic("backend: DecryptVec on a sealed context (no secret key); check CanDecrypt")
	}
	if vecLen < 0 || vecLen > c.Params.SlotCount() {
		panic(fmt.Sprintf("backend: DecryptVec of %d slots outside row size %d", vecLen, c.Params.SlotCount()))
	}
	pt := c.Params.GetPlaintext()
	defer c.Params.PutPlaintext(pt)
	c.Dec.DecryptInto(pt, ct)
	out := make(quill.Vec, vecLen)
	if err := c.Encoder.DecodeInto(out, pt); err != nil {
		panic(err) // unreachable: vecLen ≤ SlotCount was checked above
	}
	return out
}

// NoiseBudget reports the remaining invariant noise budget of ct in
// bits. Like DecryptVec, it panics on a sealed context.
func (c *Context) NoiseBudget(ct *bfv.Ciphertext) float64 {
	if c.Dec == nil {
		panic("backend: NoiseBudget on a sealed context (no secret key); check CanDecrypt")
	}
	return c.Dec.NoiseBudget(ct)
}

// NewSession creates an execution session against this context. A
// session owns the mutable scratch state of plan execution (register
// file, plaintext buffers) and must not be used from more than one
// goroutine at a time; create one session per worker.
func (c *Context) NewSession() *Session {
	return &Session{ctx: c}
}

// Session is the per-goroutine execution state for plans: a register
// file of reusable ciphertext buffers and plaintext scratch. The zero
// cost of creating one (buffers are grown on first run and then
// reused) is what lets one Context serve N concurrent executions.
type Session struct {
	ctx  *Context
	regs []*bfv.Ciphertext
	pts  []*bfv.Plaintext
	// ptsMulNTT/ptsAddNTT are the prepared (NTT-domain) forms of the
	// runtime plaintext inputs a domain-assigned plan consumes:
	// multiplication operands (lifted then transformed) and addition
	// operands (Δ-scaled then transformed). Filled per run by
	// encodeInputs for exactly the inputs the plan flags as needed.
	ptsMulNTT []*bfv.NTTPlaintext
	ptsAddNTT []*bfv.NTTPlaintext
	// decs are the key-switching decomposition slots of shared rotation
	// groups, grown to the plan's NumDecomps on first use and reused
	// across runs. A shared member indexes them by its assigned slot,
	// and a slot's digits stay resident from the Fresh member that
	// filled it to the source's last shared rotation — across steps,
	// amounts, and sharing windows.
	decs []*bfv.Decomposition
	// lifts are the multiplicand lift slots of ct×ct products, grown to
	// the plan's NumLifts on first use and reused across runs. A
	// product fills the slots its plan step marks Fresh and multiplies
	// out of them; a square, and a multiplicand an earlier product
	// lifted, read the resident lift instead of lifting again.
	lifts []*bfv.Lifted
	// br holds the per-amount state of the shared rotation step being
	// executed (Galois element, key, automorphism tables); resolved per
	// step, allocation-free.
	br bfv.BatchedRotation
	// par is the session's step-level parallelism budget: with par > 1
	// the independent steps of each dependency level (plan.Levels) run
	// concurrently on the ring worker pool. 0/1 = serial schedule.
	par int
	// lr is the persistent level runner of parallel execution — reused
	// across runs so the parallel path allocates nothing at steady
	// state.
	lr levelRunner
}

// SetParallelism sets the session's intra-plan parallelism budget: up
// to w independent steps of one dependency level execute concurrently.
// w <= 1 keeps the serial schedule (the differential reference).
// Parallel execution is bit-identical to serial: levels only group
// steps with pairwise-disjoint registers, and every evaluator op is
// deterministic.
func (s *Session) SetParallelism(w int) { s.par = w }

// levelRunner adapts one dependency level's step list to the ring
// pool's TaskRunner interface. A persistent field of the session, so
// the interface value and the slices it carries never reallocate.
type levelRunner struct {
	s       *Session
	p       *plan.ExecutionPlan
	ctIn    []*bfv.Ciphertext
	steps   []int   // plain steps of the current level
	scratch []int   // shared rotation steps (share s.decs/s.br) — run serially
	errs    []error // per-task results, indexed like steps
}

func (lr *levelRunner) RunTask(t int) {
	lr.errs[t] = lr.s.execStep(lr.p, lr.steps[t], lr.ctIn)
}

// Context returns the shared context the session executes against.
func (s *Session) Context() *Context { return s.ctx }

// Run executes a plan on encrypted inputs and plaintext vectors. The
// returned ciphertext lives in the session's register file (or is one
// of the inputs): it is valid until the session's next Run. Callers
// keeping the result across runs must copy it
// (Params.CopyCiphertext).
func (s *Session) Run(p *plan.ExecutionPlan, ctIn []*bfv.Ciphertext, ptIn []quill.Vec) (*bfv.Ciphertext, error) {
	if err := s.encodeInputs(p, ptIn); err != nil {
		return nil, err
	}
	return s.exec(p, ctIn)
}

// encodeInputs validates shapes and encodes the plaintext inputs into
// the session's scratch buffers.
func (s *Session) encodeInputs(p *plan.ExecutionPlan, ptIn []quill.Vec) error {
	if p.N != s.ctx.Params.N {
		return fmt.Errorf("backend: plan compiled for N=%d cannot run under N=%d", p.N, s.ctx.Params.N)
	}
	if len(ptIn) != p.NumPtInputs {
		return fmt.Errorf("backend: got %d pt inputs, want %d", len(ptIn), p.NumPtInputs)
	}
	for len(s.pts) < p.NumPtInputs {
		s.pts = append(s.pts, s.ctx.Params.NewPlaintext())
	}
	for i, v := range ptIn {
		if err := s.ctx.Encoder.Encode(v, s.pts[i]); err != nil {
			return err
		}
	}
	// Prepared NTT forms for the inputs the plan actually reads in the
	// evaluation domain. One forward NTT per flagged input per run —
	// the cost the domain pass already accounted for.
	for len(s.ptsMulNTT) < p.NumPtInputs {
		s.ptsMulNTT = append(s.ptsMulNTT, s.ctx.Params.NewNTTPlaintext())
	}
	for len(s.ptsAddNTT) < p.NumPtInputs {
		s.ptsAddNTT = append(s.ptsAddNTT, s.ctx.Params.NewNTTPlaintext())
	}
	for i := range ptIn {
		if i < len(p.PtNeedMulNTT) && p.PtNeedMulNTT[i] {
			s.ctx.Params.SetMulPlainNTT(s.ptsMulNTT[i], s.pts[i])
		}
		if i < len(p.PtNeedAddNTT) && p.PtNeedAddNTT[i] {
			s.ctx.Params.SetAddPlainNTT(s.ptsAddNTT[i], s.pts[i])
		}
	}
	return nil
}

// exec runs the plan steps over the session's register file. Plaintext
// inputs must already be encoded (encodeInputs).
func (s *Session) exec(p *plan.ExecutionPlan, ctIn []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	if len(ctIn) != p.NumCtInputs {
		return nil, fmt.Errorf("backend: got %d ct inputs, want %d", len(ctIn), p.NumCtInputs)
	}
	// Grow the register file to the plan's shape. Buffers are created
	// at the degree the plan says the register will hold, and after the
	// first run stay at their steady-state shape — the execution loop
	// performs no ciphertext allocations.
	for len(s.regs) < p.NumRegs {
		s.regs = append(s.regs, s.ctx.Params.NewCiphertextUninit(p.RegDeg[len(s.regs)]))
	}
	for len(s.decs) < p.NumDecomps {
		s.decs = append(s.decs, s.ctx.Params.NewDecomposition())
	}
	for len(s.lifts) < p.NumLifts {
		s.lifts = append(s.lifts, s.ctx.Params.NewLifted())
	}
	if s.par > 1 && p.Levels != nil {
		return s.execLevels(p, ctIn)
	}
	for i := range p.Steps {
		if err := s.execStep(p, i, ctIn); err != nil {
			return nil, err
		}
	}
	return s.operand(p, ctIn, p.Out), nil
}

// execLevels runs the plan by dependency level: the plain steps of one
// level fan out over the ring worker pool (each task executes one full
// step), while shared rotation steps — which share the session's
// decomposition slots and per-amount rotation state — run serially on
// the caller after the fan-out (the levelizer's slot
// pseudo-registers keep a slot's fill strictly before its replays and
// before any refill, so caller-serial order within a level is always
// hazard-safe). Level barriers preserve the hazard order, so the
// result is bit-identical to the serial schedule.
func (s *Session) execLevels(p *plan.ExecutionPlan, ctIn []*bfv.Ciphertext) (*bfv.Ciphertext, error) {
	lr := &s.lr
	// Copy the input pointers into the runner's own slice rather than
	// retaining the caller's: storing ctIn in the persistent runner
	// would force every caller's input slice onto the heap.
	lr.s, lr.p = s, p
	lr.ctIn = append(lr.ctIn[:0], ctIn...)
	defer func() {
		lr.p = nil
		for i := range lr.ctIn {
			lr.ctIn[i] = nil
		}
		lr.ctIn = lr.ctIn[:0]
	}()
	for _, lv := range p.Levels {
		lr.steps, lr.scratch = lr.steps[:0], lr.scratch[:0]
		for _, i := range lv {
			if p.Steps[i].Op == plan.OpSharedRot {
				lr.scratch = append(lr.scratch, i)
			} else {
				lr.steps = append(lr.steps, i)
			}
		}
		if n := len(lr.steps); n > 0 {
			for len(lr.errs) < n {
				lr.errs = append(lr.errs, nil)
			}
			ring.Parallel(s.par, n, lr)
			for t := 0; t < n; t++ {
				if err := lr.errs[t]; err != nil {
					for u := t; u < n; u++ {
						lr.errs[u] = nil
					}
					return nil, err
				}
			}
		}
		for _, i := range lr.scratch {
			if err := s.execStep(p, i, ctIn); err != nil {
				return nil, err
			}
		}
	}
	return s.operand(p, ctIn, p.Out), nil
}

// operand resolves an operand code against the caller's inputs and the
// session's register file.
func (s *Session) operand(p *plan.ExecutionPlan, ctIn []*bfv.Ciphertext, code int) *bfv.Ciphertext {
	if p.IsInput(code) {
		return ctIn[code]
	}
	return s.regs[p.Reg(code)]
}

// execStep executes plan step i against the session's register file.
// Steps of one dependency level touch disjoint registers, so execStep
// is safe to call concurrently for same-level steps — with the
// exception of shared rotation groups, which share the session's
// decomposition slots and must stay on one goroutine.
func (s *Session) execStep(p *plan.ExecutionPlan, i int, ctIn []*bfv.Ciphertext) error {
	ev := s.ctx.Eval
	{
		st := &p.Steps[i]
		dst := s.regs[st.Dst]
		a := s.operand(p, ctIn, st.A)
		var err error
		switch st.Op {
		case plan.OpSharedRot:
			// Double-hoisted group: the Galois state resolves once for
			// the step's amount; each Fresh member lifts its source's
			// digits into its session slot (even when the amount is the
			// identity for this key set — later steps replay the slot),
			// and every other member rotates straight out of the
			// resident digits its source decomposed steps ago.
			if err = ev.BeginBatchedRotation(&s.br, st.Rot); err == nil {
				for _, m := range st.Shared {
					src, d, dec := s.operand(p, ctIn, m.Src), s.regs[m.Dst], s.decs[m.Slot]
					srcNTT := p.CodeDomain(m.Src) == plan.DomNTT
					if m.Fresh {
						if srcNTT {
							err = ev.DecomposeForKeySwitchNTT(dec, src)
						} else {
							err = ev.DecomposeForKeySwitch(dec, src)
						}
						if err != nil {
							break
						}
					}
					switch {
					case srcNTT:
						err = ev.RotateRowsSharedNTTIntoNTT(d, src, dec, &s.br)
					case p.RegDomain[m.Dst] == plan.DomNTT:
						err = ev.RotateRowsSharedIntoNTT(d, src, dec, &s.br)
					default:
						err = ev.RotateRowsSharedInto(d, src, dec, &s.br)
					}
					if err != nil {
						break
					}
				}
			}
		case quill.OpRotCt:
			switch {
			case p.CodeDomain(st.A) == plan.DomNTT:
				err = ev.RotateRowsNTTIntoNTT(dst, a, st.Rot)
			case p.RegDomain[st.Dst] == plan.DomNTT:
				err = ev.RotateRowsIntoNTT(dst, a, st.Rot)
			default:
				err = ev.RotateRowsInto(dst, a, st.Rot)
			}
		case plan.OpNTT:
			ev.NTTInto(dst, a)
		case plan.OpINTT:
			ev.INTTInto(dst, a)
		case quill.OpRelin:
			err = ev.RelinearizeInto(dst, a)
		case quill.OpAddCtCt:
			ev.AddInto(dst, a, s.operand(p, ctIn, st.B))
		case quill.OpSubCtCt:
			ev.SubInto(dst, a, s.operand(p, ctIn, st.B))
		case quill.OpMulCtCt:
			// Fill the lifts this product is the first to read, then
			// multiply out of the slots (one slot for a square). The
			// levelizer orders each fill before its reuses and after the
			// slot's earlier readers, so same-level products only ever
			// share a slot to read it.
			la, lb := s.lifts[st.LiftA.Slot], s.lifts[st.LiftB.Slot]
			if st.LiftA.Fresh {
				err = ev.LiftInto(la, a)
			}
			if err == nil && st.LiftB.Fresh {
				err = ev.LiftInto(lb, s.operand(p, ctIn, st.B))
			}
			if err == nil {
				ev.MulLiftedInto(dst, la, lb)
			}
		case quill.OpAddCtPt:
			if p.RegDomain[st.Dst] == plan.DomNTT {
				var m *bfv.NTTPlaintext
				if m, err = s.stepAddNTT(p, st); err == nil {
					ev.AddPlainNTTIntoNTT(dst, a, m)
				}
			} else {
				ev.AddPlainInto(dst, a, s.stepPlaintext(p, st))
			}
		case quill.OpSubCtPt:
			if p.RegDomain[st.Dst] == plan.DomNTT {
				var m *bfv.NTTPlaintext
				if m, err = s.stepAddNTT(p, st); err == nil {
					ev.SubPlainNTTIntoNTT(dst, a, m)
				}
			} else {
				ev.SubPlainInto(dst, a, s.stepPlaintext(p, st))
			}
		case quill.OpMulCtPt:
			var m *bfv.NTTPlaintext
			if m, err = s.stepMulNTT(p, st); err == nil {
				srcNTT := p.CodeDomain(st.A) == plan.DomNTT
				dstNTT := p.RegDomain[st.Dst] == plan.DomNTT
				switch {
				case srcNTT && dstNTT:
					ev.MulPlainNTTIntoNTT(dst, a, m)
				case srcNTT:
					ev.MulPlainNTTInto(dst, a, m)
				case dstNTT:
					ev.MulPlainPreparedIntoNTT(dst, a, m)
				default:
					ev.MulPlainPreparedInto(dst, a, m)
				}
			}
		default:
			err = fmt.Errorf("unknown opcode %v", st.Op)
		}
		if err != nil {
			return fmt.Errorf("backend: plan step %d (%v): %w", i, st.Op, err)
		}
	}
	return nil
}

func (s *Session) stepPlaintext(p *plan.ExecutionPlan, st *plan.Step) *bfv.Plaintext {
	if st.Pt >= 0 {
		return s.pts[st.Pt]
	}
	return p.Consts[st.Con]
}

// stepMulNTT resolves the prepared multiplication operand of a step:
// session scratch for runtime inputs, the plan's derived constant
// forms otherwise.
func (s *Session) stepMulNTT(p *plan.ExecutionPlan, st *plan.Step) (*bfv.NTTPlaintext, error) {
	if st.Pt >= 0 {
		if st.Pt < len(s.ptsMulNTT) && s.ptsMulNTT[st.Pt] != nil &&
			st.Pt < len(p.PtNeedMulNTT) && p.PtNeedMulNTT[st.Pt] {
			return s.ptsMulNTT[st.Pt], nil
		}
		return nil, fmt.Errorf("plaintext input %d has no prepared multiplication operand", st.Pt)
	}
	if st.Con < len(p.MulNTTConsts) && p.MulNTTConsts[st.Con] != nil {
		return p.MulNTTConsts[st.Con], nil
	}
	return nil, fmt.Errorf("constant %d has no prepared multiplication operand", st.Con)
}

// stepAddNTT resolves the prepared (Δ-scaled, NTT-domain) addition
// operand of a step.
func (s *Session) stepAddNTT(p *plan.ExecutionPlan, st *plan.Step) (*bfv.NTTPlaintext, error) {
	if st.Pt >= 0 {
		if st.Pt < len(s.ptsAddNTT) && s.ptsAddNTT[st.Pt] != nil &&
			st.Pt < len(p.PtNeedAddNTT) && p.PtNeedAddNTT[st.Pt] {
			return s.ptsAddNTT[st.Pt], nil
		}
		return nil, fmt.Errorf("plaintext input %d has no prepared addition operand", st.Pt)
	}
	if st.Con < len(p.AddNTTConsts) && p.AddNTTConsts[st.Con] != nil {
		return p.AddNTTConsts[st.Con], nil
	}
	return nil, fmt.Errorf("constant %d has no prepared addition operand", st.Con)
}

// Runtime is the one-call facade over a Context: it owns a pool of
// sessions and exposes the historical Run/TimedRun API on the plan
// path. All methods are safe for concurrent use.
type Runtime struct {
	*Context
	sessions sync.Pool
}

func newRuntime(ctx *Context) *Runtime {
	rt := &Runtime{Context: ctx}
	rt.sessions.New = func() any { return ctx.NewSession() }
	return rt
}

// RuntimeOver wraps an existing context in the one-call Runtime facade
// (session pool + Run/TimedRun/RunInterpreter), sharing the context's
// keys and plan cache.
func RuntimeOver(ctx *Context) *Runtime { return newRuntime(ctx) }

// NewRuntime generates fresh keys for the preset and prepares Galois
// keys for every rotation amount used by the given programs.
func NewRuntime(preset string, programs ...*quill.Lowered) (*Runtime, error) {
	ctx, err := NewContext(preset, RotationSteps(programs...))
	if err != nil {
		return nil, err
	}
	return newRuntime(ctx), nil
}

// NewTestRuntime is NewRuntime with deterministic randomness for tests
// and benchmarks.
func NewTestRuntime(preset string, seed int64, programs ...*quill.Lowered) (*Runtime, error) {
	ctx, err := NewTestContext(preset, seed, RotationSteps(programs...))
	if err != nil {
		return nil, err
	}
	return newRuntime(ctx), nil
}

// Run executes a lowered program on encrypted inputs and plaintext
// vectors through its execution plan (compiled and cached on first
// use), returning a fresh output ciphertext owned by the caller.
func (rt *Runtime) Run(l *quill.Lowered, ctIn []*bfv.Ciphertext, ptIn []quill.Vec) (*bfv.Ciphertext, error) {
	p, err := rt.Plan(l)
	if err != nil {
		return nil, err
	}
	s := rt.sessions.Get().(*Session)
	defer rt.sessions.Put(s)
	out, err := s.Run(p, ctIn, ptIn)
	if err != nil {
		return nil, err
	}
	return rt.Params.CopyCiphertext(out), nil
}

// TimedRun executes the program and returns the output plus the wall
// time spent in HE instructions (plan lookup and encoding of inputs
// excluded), the quantity Figure 4 compares.
func (rt *Runtime) TimedRun(l *quill.Lowered, ctIn []*bfv.Ciphertext, ptIn []quill.Vec) (*bfv.Ciphertext, time.Duration, error) {
	p, err := rt.Plan(l)
	if err != nil {
		return nil, 0, err
	}
	s := rt.sessions.Get().(*Session)
	defer rt.sessions.Put(s)
	if err := s.encodeInputs(p, ptIn); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	out, err := s.exec(p, ctIn)
	if err != nil {
		return nil, 0, err
	}
	dur := time.Since(start)
	return rt.Params.CopyCiphertext(out), dur, nil
}
