package main

import (
	"fmt"
	"slices"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/wire"
)

// timeOp returns the median time of fn in microseconds, over at least
// five calls and as many more as fit in 40 ms.
func timeOp(fn func()) float64 {
	var us []float64
	for start := time.Now(); len(us) < 5 || time.Since(start) < 40*time.Millisecond; {
		t := time.Now()
		fn()
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us)
}

// probePlans fills the plan layer's metrics: the static counts of the
// workload's plans, and the time to compile them again.
func probePlans(ctx *backend.Context, progs []*quill.Lowered, plans []*plan.ExecutionPlan, layer map[string]float64) error {
	start := time.Now()
	for _, l := range progs {
		if _, err := ctx.CompilePlan(l); err != nil {
			return err
		}
	}
	layer["plan.compile_ms"] += ms(time.Since(start))
	for _, p := range plans {
		_, _, replayed := p.SharedGroups()
		layer["plan.steps"] += float64(p.InstructionCount())
		layer["plan.digit_decomps"] += float64(p.DigitDecompositions())
		layer["plan.ext_transforms"] += float64(p.ExternalTransforms())
		layer["plan.shared_replayed"] += float64(replayed)
		if _, lanes, _ := plan.MuxParams(p, ctx.Params.SlotCount(), 0); lanes >= 2 {
			layer["plan.mux_eligible"]++
		}
	}
	return nil
}

// planCounts is the part of probePlans that must repeat exactly.
func planCounts(plans []*plan.ExecutionPlan) string {
	var steps, decomps, transforms int
	for _, p := range plans {
		steps += p.InstructionCount()
		decomps += p.DigitDecompositions()
		transforms += p.ExternalTransforms()
	}
	return fmt.Sprintf("steps=%d decomps=%d transforms=%d", steps, decomps, transforms)
}

// probeCrypto times the bfv and ring primitives the plans are made
// of, one at a time on one goroutine, on the workload's parameter set
// and keys. rot is a rotation amount the context holds a key for.
func probeCrypto(ctx *backend.Context, rot int, layer map[string]float64) error {
	params, ev := ctx.Params, ctx.Eval
	vec := make(quill.Vec, 64)
	for i := range vec {
		vec[i] = uint64(i + 1)
	}
	pt, err := ctx.Encoder.EncodeNew(vec)
	if err != nil {
		return err
	}
	x, err := ctx.EncryptVec(vec)
	if err != nil {
		return err
	}
	prod, err := ev.Mul(x, x)
	if err != nil {
		return err
	}
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	layer["bfv.mul_us"] = timeOp(func() { _, e := ev.Mul(x, x); fail(e) })
	layer["bfv.relin_us"] = timeOp(func() { _, e := ev.Relinearize(prod); fail(e) })
	layer["bfv.rotate_us"] = timeOp(func() { _, e := ev.RotateRows(x, rot); fail(e) })
	layer["bfv.add_us"] = timeOp(func() { ev.Add(x, x) })
	layer["bfv.mul_plain_us"] = timeOp(func() { ev.MulPlain(x, pt) })
	layer["bfv.encrypt_us"] = timeOp(func() { _, e := ctx.Enc.Encrypt(pt); fail(e) })
	layer["bfv.decrypt_us"] = timeOp(func() { ctx.Dec.Decrypt(x) })

	r := params.RingQ()
	p, dst := r.Copy(x.Value[0]), r.NewPoly()
	d := r.GetDecomposition()
	defer r.PutDecomposition(d)
	g := params.GaloisElement(rot)
	layer["ring.ntt_us"] = timeOp(func() { r.NTT(p) })
	layer["ring.intt_us"] = timeOp(func() { r.INTT(p) })
	layer["ring.decompose_ntt_us"] = timeOp(func() { r.DecomposeNTT(d, x.Value[1]) })
	layer["ring.mul_accum_us"] = timeOp(func() { r.MulAccumLazy(dst, d.Digits, d.Digits) })
	layer["ring.automorphism_us"] = timeOp(func() { r.Automorphism(dst, p, g) })
	return err
}

// probeServing times, per kernel of a serving workload and outside
// the scheduler: the four wire codecs, an isolated Session.Run, and,
// where the registry proved lane packing, one full lane-packed
// evaluation. Wire figures are means over the workload's kernels.
func probeServing(s *serving, layer map[string]float64) error {
	sess := s.key.NewSession()
	n := float64(len(s.specs))
	for k, name := range s.spec.kernels {
		ex := s.pool[k][0]
		body, err := s.encodeRequest(ex, nil, 0, 0)
		if err != nil {
			return err
		}
		req, err := wire.DecodeRequest(s.cat.Ctx.Params, body)
		if err != nil {
			return err
		}
		out, err := sess.Run(s.plans[k], req.CtIn, req.PtIn)
		if err != nil {
			return err
		}
		resp, err := wire.EncodeResponse(s.key.Params, out)
		if err != nil {
			return err
		}
		layer["wire.req_kb"] += float64(len(body)) / 1024 / n
		layer["wire.resp_kb"] += float64(len(resp)) / 1024 / n
		layer["wire.req_encode_ms"] += timeOp(func() {
			wire.EncodeRequest(s.key.Params, req)
		}) / 1e3 / n
		layer["wire.req_decode_ms"] += timeOp(func() { wire.DecodeRequest(s.cat.Ctx.Params, body) }) / 1e3 / n
		layer["wire.resp_encode_ms"] += timeOp(func() { wire.EncodeResponse(s.key.Params, out) }) / 1e3 / n
		layer["wire.resp_decode_ms"] += timeOp(func() { wire.DecodeResponse(s.key.Params, resp) }) / 1e3 / n
		layer["backend.run_ms."+name] = timeOp(func() { sess.Run(s.plans[k], req.CtIn, req.PtIn) }) / 1e3

		m := s.cat.Entry(name).Mux
		if m == nil || !slices.Contains(muxKernels, name) {
			continue
		}
		ctIns := make([][]*bfv.Ciphertext, m.Lanes)
		ptIns := make([][]quill.Vec, m.Lanes)
		for lane := range ctIns {
			ctIns[lane], ptIns[lane] = req.CtIn, req.PtIn
		}
		runner := s.cat.Ctx.NewMuxRunner(m)
		if _, err := runner.Run(ctIns, ptIns); err != nil {
			return err
		}
		layer["backend.mux_run_ms."+name] = timeOp(func() { runner.Run(ctIns, ptIns) }) / 1e3
	}
	return nil
}
