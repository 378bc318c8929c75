package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// fixture builds a deterministic PN2048 context with two plans and a
// concrete reference output per plan.
type fixture struct {
	ctx      *backend.Context
	plans    []*planWithIO
	programs []*quill.Lowered
}

type planWithIO struct {
	plan *plan.ExecutionPlan
	ctIn []*bfv.Ciphertext
	ptIn []quill.Vec
	ref  *bfv.Ciphertext
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	mk := func(rot int) *quill.Lowered {
		return &quill.Lowered{
			VecLen: 1024, NumCtInputs: 2, NumPtInputs: 1,
			Instrs: []quill.LInstr{
				{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: rot},
				{Op: quill.OpAddCtCt, Dst: 3, A: 2, B: 1},
				{Op: quill.OpMulCtCt, Dst: 4, A: 3, B: 0},
				{Op: quill.OpRelin, Dst: 5, A: 4},
				{Op: quill.OpMulCtPt, Dst: 6, A: 5, P: quill.PtRef{Input: 0}},
			},
			Output: 6,
		}
	}
	programs := []*quill.Lowered{mk(1), mk(5)}
	ctx, plans, err := backend.NewTestServingContext("PN2048", 5, programs...)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{ctx: ctx, programs: programs}
	rng := rand.New(rand.NewSource(8))
	vec := func() quill.Vec {
		v := make(quill.Vec, 1024)
		for j := range v {
			v[j] = rng.Uint64() % 64
		}
		return v
	}
	for i, p := range plans {
		io := &planWithIO{plan: p, ptIn: []quill.Vec{vec()}}
		for k := 0; k < 2; k++ {
			ct, err := ctx.EncryptVec(vec())
			if err != nil {
				t.Fatal(err)
			}
			io.ctIn = append(io.ctIn, ct)
		}
		ref, err := backend.RuntimeOver(ctx).RunInterpreter(programs[i], io.ctIn, io.ptIn)
		if err != nil {
			t.Fatal(err)
		}
		io.ref = ref
		f.plans = append(f.plans, io)
	}
	return f
}

func TestConfigPartitioning(t *testing.T) {
	for _, tc := range []struct {
		in                       Config
		sessions, ring, planWork int
	}{
		// No budget: serial defaults.
		{Config{}, 1, 0, 0},
		// Budget with nothing pinned: batch-level gets it all.
		{Config{Workers: 4}, 4, 0, 0},
		// Budget with ring share pinned: sessions get the rest.
		{Config{Workers: 8, RingWorkers: 2}, 4, 2, 2},
		// Budget with sessions pinned: ring gets the rest.
		{Config{Workers: 8, Sessions: 2}, 2, 4, 4},
		// Everything pinned: budget is ignored.
		{Config{Workers: 8, Sessions: 3, RingWorkers: 2}, 3, 2, 2},
		// PlanWorkers defaults to RingWorkers, but can diverge.
		{Config{RingWorkers: 4, PlanWorkers: 2}, 1, 4, 2},
	} {
		got := tc.in.withDefaults()
		if got.Sessions != tc.sessions || got.RingWorkers != tc.ring || got.PlanWorkers != tc.planWork {
			t.Errorf("%+v: partitioned to Sessions=%d RingWorkers=%d PlanWorkers=%d, want %d/%d/%d",
				tc.in, got.Sessions, got.RingWorkers, got.PlanWorkers, tc.sessions, tc.ring, tc.planWork)
		}
	}
}

// TestBackpressureAndDrainHoisted drives the scheduler with
// shared-rotation requests (the session path that keeps decomposition
// scratch in per-session slots) through a deliberately tiny
// admission queue, and checks the two bounded-queue contracts:
//
//   - backpressure: producers block in Do once the queue fills, so
//     the admitted-but-incomplete count stays near the configured
//     bound instead of growing with the number of producers;
//   - graceful drain: Close called while requests are in flight lets
//     every admitted request finish with a bit-identical result, and
//     everything after Close is rejected with ErrClosed.
//
// Runs under -race in CI (the internal/serve race job).
func TestBackpressureAndDrainHoisted(t *testing.T) {
	l := &quill.Lowered{
		VecLen: 1024, NumCtInputs: 1,
		Instrs: []quill.LInstr{
			{Op: quill.OpRotCt, Dst: 1, A: 0, Rot: 1},
			{Op: quill.OpRotCt, Dst: 2, A: 0, Rot: 2},
			{Op: quill.OpRotCt, Dst: 3, A: 0, Rot: -5},
			{Op: quill.OpRotCt, Dst: 4, A: 0, Rot: 9},
			{Op: quill.OpAddCtCt, Dst: 5, A: 1, B: 2},
			{Op: quill.OpAddCtCt, Dst: 6, A: 5, B: 3},
			{Op: quill.OpAddCtCt, Dst: 7, A: 6, B: 4},
		},
		Output: 7,
	}
	ctx, plans, err := backend.NewTestServingContext("PN2048", 9, l)
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	if g, _, _ := p.SharedGroups(); g == 0 {
		t.Fatalf("expected a plan with shared rotation groups, got %d", g)
	}
	rng := rand.New(rand.NewSource(6))
	v := make(quill.Vec, l.VecLen)
	for j := range v {
		v[j] = rng.Uint64() % 64
	}
	ct, err := ctx.EncryptVec(v)
	if err != nil {
		t.Fatal(err)
	}
	ctIn := []*bfv.Ciphertext{ct}
	ref, err := backend.RuntimeOver(ctx).RunInterpreter(l, ctIn, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Sessions: 1, QueueDepth: 1, MaxBatch: 2, BatchWindow: 100 * time.Microsecond}
	s := New(ctx, cfg)

	// Backpressure, proven causally (no timing): one goroutine submits
	// `total` requests back-to-back. The pipeline can absorb at most
	// `absorb` admitted-but-unfinished requests (queue buffer + the
	// dispatcher's held job + one batch in handoff + one executing
	// batch), so the admission queue being full must block Submit until
	// completions free capacity: by the time the last Submit returns,
	// at least total-absorb requests have already completed. Without
	// blocking admission (the regression this guards) the submitter
	// could race through all `total` sends with zero completions.
	const total = 20
	// queue buffer + dispatcher's popped job + held job + one batch in
	// handoff + one executing batch
	absorb := cfg.QueueDepth + 2 + 2*cfg.MaxBatch
	var completed atomic.Int64
	var collectors sync.WaitGroup
	for i := 0; i < total; i++ {
		ch := s.Submit(Request{Plan: p, CtIn: ctIn})
		collectors.Add(1)
		go func() {
			defer collectors.Done()
			res := <-ch
			if res.Err == nil {
				completed.Add(1)
			}
		}()
	}
	// The worker bumps Served (under the stats lock) before delivering
	// each result, so this snapshot does not depend on collector
	// goroutine scheduling — only on the causal chain above.
	flushed := s.Stats().Served
	collectors.Wait()
	if min := uint64(total - absorb); flushed < min {
		t.Errorf("after %d blocking submits only %d requests had completed, want ≥ %d (admission not applying backpressure)", total, flushed, min)
	}
	if got := completed.Load(); got != total {
		t.Fatalf("%d of %d backpressure-phase requests completed", got, total)
	}

	const producers, perProducer = 6, 3
	var wg sync.WaitGroup
	var served, rejected int64
	errs := make(chan error, producers*perProducer)
	firstDone := make(chan struct{})
	var firstOnce sync.Once
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				res := s.Do(Request{Plan: p, CtIn: ctIn})
				switch {
				case errors.Is(res.Err, ErrClosed):
					atomic.AddInt64(&rejected, 1)
				case res.Err != nil:
					errs <- res.Err
					return
				case !ctx.Params.CiphertextEqual(res.Out, ref):
					errs <- errors.New("hoisted response not bit-identical to reference")
					return
				default:
					atomic.AddInt64(&served, 1)
					firstOnce.Do(func() { close(firstDone) })
				}
			}
		}()
	}
	// Close mid-flight: requests are queued and executing when the
	// drain starts. Close must block until every admitted request has
	// its result, and must not deadlock against blocked producers.
	<-firstDone
	s.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if got := atomic.LoadInt64(&served) + total; st.Served != uint64(got) {
		t.Errorf("stats served = %d, test saw %d", st.Served, got)
	}
	if got := atomic.LoadInt64(&rejected); st.Rejected != uint64(got) {
		t.Errorf("stats rejected = %d, producers saw %d", st.Rejected, got)
	}
	if st.Served+st.Rejected != producers*perProducer+total {
		t.Errorf("served %d + rejected %d != %d submitted", st.Served, st.Rejected, producers*perProducer+total)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after Close, want 0 (drained)", st.QueueDepth)
	}
	if st.Failed != 0 {
		t.Errorf("%d failed requests", st.Failed)
	}

	// Everything after the drain is rejected, immediately.
	if res := s.Do(Request{Plan: p, CtIn: ctIn}); !errors.Is(res.Err, ErrClosed) {
		t.Errorf("post-Close Do: err = %v, want ErrClosed", res.Err)
	}
	// Close is idempotent.
	s.Close()
}

// TestConcurrentProducers floods the scheduler from many producers
// over two distinct plans and requires every single response to be a
// bit-identical copy of that plan's reference output — the serving
// correctness contract under -race.
func TestConcurrentProducers(t *testing.T) {
	f := newFixture(t)
	s := New(f.ctx, Config{Sessions: 3, QueueDepth: 8, MaxBatch: 4})
	defer s.Close()

	const producers, perProducer = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for w := 0; w < producers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			io := f.plans[w%len(f.plans)]
			for i := 0; i < perProducer; i++ {
				res := s.Do(Request{Plan: io.plan, CtIn: io.ctIn, PtIn: io.ptIn})
				if res.Err != nil {
					errs <- res.Err
					return
				}
				if !f.ctx.Params.CiphertextEqual(res.Out, io.ref) {
					errs <- errors.New("response not bit-identical to reference")
					return
				}
				if res.Batch < 1 || res.Batch > 4 {
					errs <- errors.New("batch size out of configured bounds")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if want := uint64(producers * perProducer); st.Submitted != want || st.Served != want {
		t.Errorf("stats: submitted=%d served=%d, want %d", st.Submitted, st.Served, want)
	}
	if st.Failed != 0 {
		t.Errorf("stats: %d failures", st.Failed)
	}
	if st.Batches == 0 || st.MaxBatchSeen > 4 {
		t.Errorf("stats: batches=%d maxBatch=%d", st.Batches, st.MaxBatchSeen)
	}
	if st.QueueDepth != 0 {
		t.Errorf("stats: queue depth %d after drain, want 0", st.QueueDepth)
	}
	if st.AvgLatency <= 0 || st.MaxLatency < st.AvgLatency {
		t.Errorf("stats: implausible latencies avg=%v max=%v", st.AvgLatency, st.MaxLatency)
	}
}

// TestErrorPropagation submits malformed requests interleaved with
// good ones: every bad request gets its own error result, good
// requests keep succeeding, and the failure counter reflects exactly
// the bad ones.
func TestErrorPropagation(t *testing.T) {
	f := newFixture(t)
	s := New(f.ctx, Config{Sessions: 2})
	defer s.Close()
	io := f.plans[0]

	for i := 0; i < 3; i++ {
		// Wrong ciphertext input count.
		res := s.Do(Request{Plan: io.plan, CtIn: io.ctIn[:1], PtIn: io.ptIn})
		if res.Err == nil {
			t.Fatal("truncated input accepted")
		}
		// A good request right after must still work.
		res = s.Do(Request{Plan: io.plan, CtIn: io.ctIn, PtIn: io.ptIn})
		if res.Err != nil {
			t.Fatalf("good request after failure: %v", res.Err)
		}
		if !f.ctx.Params.CiphertextEqual(res.Out, io.ref) {
			t.Fatal("good response corrupted by preceding failure")
		}
	}
	st := s.Stats()
	if st.Failed != 3 || st.Served != 3 {
		t.Errorf("stats: served=%d failed=%d, want 3/3", st.Served, st.Failed)
	}
}

// TestCloseDrainsAndRejects: Close waits for in-flight requests, later
// submissions resolve with ErrClosed.
func TestCloseDrains(t *testing.T) {
	f := newFixture(t)
	s := New(f.ctx, Config{Sessions: 1, QueueDepth: 16})
	io := f.plans[0]

	var results []<-chan Result
	for i := 0; i < 5; i++ {
		results = append(results, s.Submit(Request{Plan: io.plan, CtIn: io.ctIn, PtIn: io.ptIn}))
	}
	s.Close()
	for i, ch := range results {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("queued request %d dropped at close: %v", i, res.Err)
		}
		if !f.ctx.Params.CiphertextEqual(res.Out, io.ref) {
			t.Fatalf("queued request %d returned wrong output", i)
		}
	}
	if res := s.Do(Request{Plan: io.plan, CtIn: io.ctIn, PtIn: io.ptIn}); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("post-close submit: got %v, want ErrClosed", res.Err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Served != 5 {
		t.Errorf("stats: served=%d rejected=%d, want 5/1", st.Served, st.Rejected)
	}
}

// TestBatchCoalescing checks that a burst submitted faster than the
// (slowed) dispatcher drains coalesces into multi-request batches and
// that per-request wait/latency are recorded.
func TestBatchCoalescing(t *testing.T) {
	f := newFixture(t)
	s := New(f.ctx, Config{Sessions: 1, QueueDepth: 16, MaxBatch: 4, BatchWindow: 20 * time.Millisecond})
	defer s.Close()
	io := f.plans[0]

	const n = 8
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit(Request{Plan: io.plan, CtIn: io.ctIn, PtIn: io.ptIn}))
	}
	sawMulti := false
	for _, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Batch > 1 {
			sawMulti = true
		}
		if res.Latency < res.Wait {
			t.Errorf("latency %v below queue wait %v", res.Latency, res.Wait)
		}
	}
	if !sawMulti {
		t.Error("a burst of 8 requests into a 20ms window never coalesced into one batch")
	}
	if st := s.Stats(); st.AvgBatch <= 1 {
		t.Errorf("average batch %0.2f, want > 1 for a burst", st.AvgBatch)
	}
}
