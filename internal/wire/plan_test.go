package wire_test

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"porcupine/internal/backend"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// fanOutProgram rotates one source four distinct ways — a fan the
// planner compiles to four shared groups over one decomposition slot,
// all four destinations NTT-resident.
func fanOutProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 3, A: 0, Rot: 5},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: -3},
			{Op: quill.OpAddCtCt, Dst: 5, A: 1, B: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 5, B: 3},
			{Op: quill.OpAddCtCt, Dst: 7, A: 6, B: 4},
		},
		Output: 7,
	}
}

// roundTripPlan exports p in a bundle, encodes and decodes it, and
// returns the decoded plan.
func roundTripPlan(t *testing.T, ctx *backend.Context, p *plan.ExecutionPlan) *plan.ExecutionPlan {
	t.Helper()
	b, err := serve.Export(ctx, "plan-test", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != wire.Version {
		t.Fatalf("artifact carries version byte %d, want %d", data[4], wire.Version)
	}
	got, err := wire.DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	return got.Plan
}

// TestDomainPlanRoundTrip checks the per-register domain bytes: the round
// trip preserves the domain assignment exactly and re-derives the
// prepared operand forms.
func TestDomainPlanRoundTrip(t *testing.T) {
	l := fanOutProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 23, l)
	if err != nil {
		t.Fatal(err)
	}
	if nttRegs, convs := plans[0].DomainStats(); nttRegs == 0 || convs == 0 {
		t.Fatalf("assigned plan has %d NTT regs / %d conversions, want both > 0", nttRegs, convs)
	}
	got := roundTripPlan(t, ctx, plans[0])
	if !slices.Equal(got.RegDomain, plans[0].RegDomain) {
		t.Fatalf("decoded domains %v, want %v", got.RegDomain, plans[0].RegDomain)
	}
	if !got.Prepared {
		t.Fatal("decoded plan has no prepared operand forms")
	}
}

// TestDomainCorruptionRejected runs decode-side corruptions specific
// to the domain bytes: every inconsistent domain assignment must be
// refused as ErrInvalid by the envelope's deep validation, never panic
// and never load a plan the executor has no path for.
func TestDomainCorruptionRejected(t *testing.T) {
	l := fanOutProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 23, l)
	if err != nil {
		t.Fatal(err)
	}
	base, err := serve.Export(ctx, "plan-test", plans[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	sharedIdx := -1
	for i := range plans[0].Steps {
		if plans[0].Steps[i].Op == plan.OpSharedRot {
			sharedIdx = i
		}
	}
	if sharedIdx < 0 {
		t.Fatal("no shared step in base plan")
	}
	corrupt := func(name string, mutate func(p *plan.ExecutionPlan)) {
		t.Run(name, func(t *testing.T) {
			// Deep-copy the plan's mutable slices (domain tags included),
			// corrupt, re-encode: the checksum is then valid and only
			// semantic validation stands between the bytes and a session.
			p2 := *plans[0]
			p2.RegDomain = append([]plan.Domain(nil), plans[0].RegDomain...)
			p2.Steps = append([]plan.Step(nil), plans[0].Steps...)
			p2.Rotations = append([]int(nil), plans[0].Rotations...)
			mutate(&p2)
			b2 := *base
			b2.Plan = &p2
			data, err := b2.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wire.DecodeBundle(data); !errors.Is(err, wire.ErrInvalid) {
				t.Fatalf("corrupted domain decoded: err = %v, want ErrInvalid", err)
			}
		})
	}
	corrupt("domain-bad-value", func(p *plan.ExecutionPlan) {
		p.RegDomain[0] = 7
	})
	corrupt("fan-member-coeff-with-ntt-chain", func(p *plan.ExecutionPlan) {
		// Flipping one fan member's destination to coefficient breaks the
		// adds that consume it in the evaluation domain.
		p.RegDomain[p.Steps[sharedIdx].Shared[0].Dst] = plan.DomCoeff
	})
	corrupt("output-reg-ntt", func(p *plan.ExecutionPlan) {
		p.RegDomain[p.Reg(p.Out)] = plan.DomNTT
	})
	corrupt("all-coeff-with-conversions", func(p *plan.ExecutionPlan) {
		// Zeroing every domain bit leaves the OpNTT/OpINTT steps
		// pointing at coefficient registers on both sides.
		for r := range p.RegDomain {
			p.RegDomain[r] = plan.DomCoeff
		}
	})
}

// sharedProgram rotates two sources by the same two amounts — the
// shape the planner fuses into shared groups whose second group
// replays both decomposition slots.
func sharedProgram() *quill.Lowered {
	return &quill.Lowered{
		VecLen: 1024, NumCtInputs: 2,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 3, A: 1, Rot: 1},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 5, A: 1, Rot: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 2, B: 3},
			{Op: quill.OpAddCtCt, Dst: 7, A: 4, B: 5},
			{Op: quill.OpAddCtCt, Dst: 8, A: 6, B: 7},
		},
		Output: 8,
	}
}

// TestSharedPlanRoundTrip checks the shared member list: the round trip
// preserves the groups, slots and fill flags exactly — including
// NumDecomps, which is never serialized but re-derived at decode.
func TestSharedPlanRoundTrip(t *testing.T) {
	l := sharedProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 23, l)
	if err != nil {
		t.Fatal(err)
	}
	if g, _, rep := plans[0].SharedGroups(); g != 2 || rep != 2 {
		t.Fatalf("shared plan has %d groups (%d replayed), want 2 (2)", g, rep)
	}
	got := roundTripPlan(t, ctx, plans[0])
	g, r, rep := got.SharedGroups()
	wg, wr, wrep := plans[0].SharedGroups()
	if g != wg || r != wr || rep != wrep {
		t.Fatalf("decoded %d groups / %d rotations / %d replayed, want %d / %d / %d", g, r, rep, wg, wr, wrep)
	}
	if got.NumDecomps != plans[0].NumDecomps {
		t.Fatalf("decoded NumDecomps %d, want %d", got.NumDecomps, plans[0].NumDecomps)
	}
	for i := range plans[0].Steps {
		if !slices.Equal(got.Steps[i].Shared, plans[0].Steps[i].Shared) {
			t.Fatalf("step %d: members %+v, want %+v", i, got.Steps[i].Shared, plans[0].Steps[i].Shared)
		}
	}
}

// TestSharedCorruptionRejected runs decode-side corruptions specific
// to the shared member list: every malformed group must be refused
// as ErrInvalid by the envelope's deep validation — slot bookkeeping
// and the fill-state replay contract included — never panic and never
// load a plan whose replay would read digits that are not resident.
func TestSharedCorruptionRejected(t *testing.T) {
	l := sharedProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 23, l)
	if err != nil {
		t.Fatal(err)
	}
	base, err := serve.Export(ctx, "plan-test", plans[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	firstShared, lastShared := -1, -1
	for i := range plans[0].Steps {
		if plans[0].Steps[i].Op == plan.OpSharedRot {
			if firstShared < 0 {
				firstShared = i
			}
			lastShared = i
		}
	}
	if firstShared < 0 || lastShared == firstShared {
		t.Fatal("base plan does not carry two shared steps")
	}
	corrupt := func(name string, mutate func(p *plan.ExecutionPlan)) {
		t.Run(name, func(t *testing.T) {
			p2 := *plans[0]
			p2.Steps = append([]plan.Step(nil), plans[0].Steps...)
			for i := range p2.Steps {
				p2.Steps[i].Shared = append([]plan.SharedSrc(nil), plans[0].Steps[i].Shared...)
			}
			p2.Rotations = append([]int(nil), plans[0].Rotations...)
			mutate(&p2)
			b2 := *base
			b2.Plan = &p2
			data, err := b2.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wire.DecodeBundle(data); !errors.Is(err, wire.ErrInvalid) {
				t.Fatalf("corrupted shared list decoded: err = %v, want ErrInvalid", err)
			}
		})
	}
	corrupt("shared-src-out-of-range", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Shared[0].Src = p.NumCtInputs + p.NumRegs
		p.Steps[firstShared].A = p.Steps[firstShared].Shared[0].Src
	})
	corrupt("shared-dst-out-of-range", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Shared[1].Dst = p.NumRegs
	})
	corrupt("shared-slot-out-of-range", func(p *plan.ExecutionPlan) {
		// Past every operand code: the decoder's hard bound, hit before
		// slot-density validation can run.
		p.Steps[firstShared].Shared[1].Slot = p.NumCtInputs + p.NumRegs + 7
	})
	corrupt("shared-duplicate-src", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Shared[1].Src = p.Steps[firstShared].Shared[0].Src
	})
	corrupt("shared-duplicate-dst", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Shared[1].Dst = p.Steps[firstShared].Shared[0].Dst
	})
	corrupt("shared-head-mismatch", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Dst = p.Steps[firstShared].Shared[1].Dst
	})
	corrupt("shared-rot-undeclared", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Rot = 777
	})
	corrupt("shared-on-plain-step", func(p *plan.ExecutionPlan) {
		for i := range p.Steps {
			if p.Steps[i].Op != plan.OpSharedRot {
				p.Steps[i].Shared = []plan.SharedSrc{{Src: 0, Dst: 0, Slot: 0, Fresh: true}}
				return
			}
		}
	})
	corrupt("shared-replay-before-fill", func(p *plan.ExecutionPlan) {
		p.Steps[firstShared].Shared[0].Fresh = false
	})
	corrupt("shared-replay-wrong-slot", func(p *plan.ExecutionPlan) {
		st := &p.Steps[lastShared]
		st.Shared[0].Slot, st.Shared[1].Slot = st.Shared[1].Slot, st.Shared[0].Slot
	})
}

// TestSharedDecodeNeverPanics sweeps random corruptions — truncation,
// raw bit flips, and checksum-repaired bit flips that reach semantic
// validation — through a bundle carrying shared member lists; any
// outcome but a panic is acceptable.
func TestSharedDecodeNeverPanics(t *testing.T) {
	l := sharedProgram()
	ctx, plans, err := backend.NewTestServingContext("PN2048", 23, l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.Export(ctx, "plan-test", plans[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		d := append([]byte(nil), data...)
		switch trial % 3 {
		case 0:
			d = d[:rng.Intn(len(d)+1)]
		case 1:
			d[rng.Intn(len(d))] ^= byte(1 << rng.Intn(8))
		case 2:
			if len(d) > sha256.Size+20 {
				d[14+rng.Intn(len(d)-14-sha256.Size)] ^= byte(1 << rng.Intn(8))
				resign(d)
			}
		}
		wire.DecodeBundle(d)
	}
}
