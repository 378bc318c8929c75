package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/wire"
)

// keySeed fixes the key material, so the registry artifact and its
// noise are the same on every run; --seed draws the inputs only.
const keySeed = 7

// examplesPerKernel is the size of each kernel's pre-generated input
// pool; requests draw from it.
const examplesPerKernel = 8

// burstSize is the number of requests that arrive together in
// burst-open: one full lane group.
const burstSize = plan.DefaultMaxLanes

// servingSpec names the registry one serving workload loads.
type servingSpec struct {
	preset  string
	kernels []string
	// mux exports lane-packing geometry (pack/demux Galois keys and
	// the export-time noise proof). The closed deep workload never
	// coalesces, so it ships the plain per-request registry.
	mux bool
}

// serving is a loaded registry behind its HTTP front, plus the
// keyholder's side: the context that encrypts and decrypts, and the
// pre-generated inputs.
type serving struct {
	spec  servingSpec
	key   *backend.Context
	plans []*plan.ExecutionPlan // keyholder-side plans, index-aligned with spec.kernels
	cat   *serve.Catalog
	front *serve.RegistryFront
	specs []*kernels.Spec
	pool  [][]*kernels.Example // [kernel][example]
	// bodies holds the pool pre-encrypted and pre-encoded, for the
	// open loop, whose generator must not spend time on client crypto.
	bodies [][][]byte

	registryBytes int
	phase         map[string]time.Duration
}

// setupServing does everything a deployment does before its first
// request: compile plans and generate keys, export the registry,
// encode it, decode it, load it into a sealed serving catalog, and
// pre-generate inputs. The caller must Close the catalog.
func setupServing(cfg *config, spec servingSpec, seed int64, open bool, tr *tracer) (_ *serving, err error) {
	s := &serving{spec: spec, phase: map[string]time.Duration{}}
	root := tr.begin("setup", notOp, -1, time.Now())
	defer func() { tr.end(root, time.Now()) }()
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		s.phase[name] = tr.timed(name, notOp, root, func() { err = fn() })
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}

	progs := make([]*quill.Lowered, len(spec.kernels))
	for i, name := range spec.kernels {
		if progs[i], err = baseline.Lowered(name); err != nil {
			return nil, err
		}
		s.specs = append(s.specs, kernels.ByName(name))
	}
	var reg *wire.Registry
	var data []byte
	step("backend.context", func() (err error) {
		if spec.mux {
			s.key, s.plans, err = backend.NewTestMuxServingContext(spec.preset, keySeed, 0, progs...)
		} else {
			s.key, s.plans, err = backend.NewTestServingContext(spec.preset, keySeed, progs...)
		}
		return err
	})
	step("serve.export", func() (err error) {
		reg, err = serve.ExportRegistry(s.key, spec.kernels, s.plans, nil)
		return err
	})
	step("wire.registry_encode", func() (err error) {
		data, err = reg.Encode()
		return err
	})
	step("wire.registry_decode", func() (err error) {
		reg, err = wire.DecodeRegistry(data)
		return err
	})
	step("serve.load", func() (err error) {
		s.cat, err = serve.LoadRegistry(reg, serve.Config{Workers: cfg.procs})
		return err
	})
	if err != nil {
		return nil, err
	}
	s.registryBytes = len(data)
	s.front = serve.NewRegistryFront(s.cat, spec.preset)

	rng := rand.New(rand.NewSource(seed))
	step("inputs", func() error {
		for k, sp := range s.specs {
			s.pool = append(s.pool, nil)
			s.bodies = append(s.bodies, nil)
			for range examplesPerKernel {
				ex := sp.RandomExample(rng)
				s.pool[k] = append(s.pool[k], ex)
				if open {
					body, err := s.encodeRequest(ex, nil, 0, 0)
					if err != nil {
						return err
					}
					s.bodies[k] = append(s.bodies[k], body)
				}
			}
		}
		return nil
	})
	// Each session allocates its register file on its first run of a
	// plan, and each worker builds its lane-packing runner on its first
	// packed batch; do both before the clock starts.
	n := cfg.procs
	if open {
		n = burstSize
	}
	step("warmup", func() error { return s.warm(n) })
	if err != nil {
		s.cat.Close()
		return nil, err
	}
	return s, nil
}

func (s *serving) close() { s.cat.Close() }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeRequest is the keyholder's half of sending a request: encrypt
// the example's ciphertext inputs and encode the wire body.
func (s *serving) encodeRequest(ex *kernels.Example, tr *tracer, id, parent int) (body []byte, err error) {
	cts := make([]*bfv.Ciphertext, len(ex.CtIn))
	tr.timed("client.encrypt", id, parent, func() {
		for i, v := range ex.CtIn {
			if cts[i], err = s.key.EncryptVec(v); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tr.timed("wire.req_encode", id, parent, func() {
		body, err = wire.EncodeRequest(s.key.Params, &wire.Request{CtIn: cts, PtIn: ex.PtIn})
	})
	return body, err
}

// post sends one encoded request through the registry's HTTP handler,
// in memory.
func (s *serving) post(k int, body []byte, tr *tracer, id, parent int) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/run/"+s.spec.kernels[k], bytes.NewReader(body))
	tr.timed("serve.http", id, parent, func() { s.front.ServeHTTP(rec, req) })
	return rec
}

// open is the keyholder's half of receiving a response: decode the
// wire body and decrypt it.
func (s *serving) open(k int, rec *httptest.ResponseRecorder, tr *tracer, id, parent int) (got quill.Vec, err error) {
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", s.spec.kernels[k], rec.Code, rec.Body.String())
	}
	var out *bfv.Ciphertext
	tr.timed("wire.resp_decode", id, parent, func() { out, err = wire.DecodeResponse(s.key.Params, rec.Body.Bytes()) })
	if err != nil {
		return nil, err
	}
	tr.timed("client.decrypt", id, parent, func() { got = s.key.DecryptVec(out, s.specs[k].VecLen) })
	return got, nil
}

// check compares a decrypted response with the kernel's plaintext
// reference.
func (s *serving) check(k int, got quill.Vec, ex *kernels.Example) error {
	if !s.specs[k].Matches(got, ex) {
		return fmt.Errorf("%s: decrypted response differs from the reference", s.spec.kernels[k])
	}
	return nil
}

// roundTrip is one closed-loop operation. On the clock: encrypt,
// encode, the HTTP handler, decode, decrypt. The comparison with the
// reference is off the clock.
func (s *serving) roundTrip(k int, ex *kernels.Example, tr *tracer) (op, error) {
	o := op{kernel: k}
	id := tr.newOp()
	start := time.Now()
	root := tr.begin("roundtrip", id, -1, start)
	body, err := s.encodeRequest(ex, tr, id, root)
	if err != nil {
		return o, err
	}
	rec := s.post(k, body, tr, id, root)
	got, err := s.open(k, rec, tr, id, root)
	end := time.Now()
	tr.end(root, end)
	if err == nil {
		err = s.check(k, got, ex)
	}
	o.ms = ms(end.Sub(start))
	o.read(rec)
	return o, err
}

// op is one completed operation.
type op struct {
	kernel int
	ms     float64 // latency on the clock
	// schedMs is the scheduler's admission-to-completion time, and
	// lanes the size of the lane-packed group the request rode in (0
	// when it ran alone); both come from the response headers.
	schedMs float64
	lanes   int
	single  bool // burst-open: the request came in a single-kernel burst
}

func (o *op) read(rec *httptest.ResponseRecorder) {
	if d, err := time.ParseDuration(rec.Header().Get("X-Porcupine-Latency")); err == nil {
		o.schedMs = ms(d)
	}
	fmt.Sscan(rec.Header().Get("X-Porcupine-Lanes"), &o.lanes)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// warm sends n concurrent requests per kernel and checks them.
func (s *serving) warm(n int) error {
	for k := range s.specs {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.roundTrip(k, s.pool[k][i%examplesPerKernel], nil)
			}()
		}
		wg.Wait()
		if err := firstErr(errs...); err != nil {
			return err
		}
	}
	return nil
}

// loopOut is what one measured window produced.
type loopOut struct {
	ops         []op
	baseOps     []op // compile-cold, traced: the paired baseline runs
	failed      int
	firstErr    error
	window, cpu float64 // seconds
	lateMs      []float64
	backlogEnd  int
}

// merge adds another window's findings to o.
func (o *loopOut) merge(p *loopOut) {
	o.ops = append(o.ops, p.ops...)
	o.baseOps = append(o.baseOps, p.baseOps...)
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
	o.window += p.window
	o.cpu += p.cpu
	o.lateMs = append(o.lateMs, p.lateMs...)
	o.backlogEnd = max(o.backlogEnd, p.backlogEnd)
}

func (o *loopOut) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// closedLoop runs clients goroutines for dur, each sending its next
// request when the previous one has been answered and checked. Every
// client walks seeded shuffles of the kernel list, so the mix is
// uniform whatever the seed.
func (s *serving) closedLoop(clients int, dur time.Duration, seed int64, tr *tracer) *loopOut {
	outs := make([]loopOut, clients)
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuSeconds()
	deadline := start.Add(dur)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
			var order []int
			for n := 0; time.Now().Before(deadline); n++ {
				if n%len(s.specs) == 0 {
					order = rng.Perm(len(s.specs))
				}
				k := order[n%len(s.specs)]
				o, err := s.roundTrip(k, s.pool[k][rng.Intn(examplesPerKernel)], tr)
				if err != nil {
					outs[c].fail(err)
					continue
				}
				outs[c].ops = append(outs[c].ops, o)
			}
		}()
	}
	wg.Wait()
	all := &loopOut{}
	for i := range outs {
		all.merge(&outs[i])
	}
	all.window, all.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return all
}

// burstLoop is the open loop: one generator releases bursts of
// burstSize requests on a seeded schedule, whatever the state of the
// server. The gap between two bursts is uniform between three and
// five quarters of the mean gap, and the whole schedule is scaled so
// that every seed offers the same number of bursts over the same
// span. (A Poisson schedule of a few hundred bursts clusters
// differently on every seed: its latencies differed by a third from
// one seed to the next.) Half of the bursts carry one kernel, half
// two requests of each. Latency runs from the burst's due time to the
// end of the HTTP call; decoding, decrypting and checking the
// response happen after the clock stops.
func (s *serving) burstLoop(rate float64, dur time.Duration, seed int64, tr *tracer) *loopOut {
	rng := rand.New(rand.NewSource(seed))
	bursts := max(1, int(rate*dur.Seconds()/burstSize))
	gaps := make([]float64, bursts)
	var span float64
	for i := range gaps {
		gaps[i] = 0.75 + rng.Float64()/2
		span += gaps[i]
	}
	// The last gap's worth of the window stays free of arrivals, so that
	// a server that keeps up ends it with nothing outstanding.
	due := make([]time.Duration, bursts)
	var at float64
	for i := range due {
		due[i] = time.Duration(at / span * float64(dur))
		at += gaps[i]
	}
	shape := rng.Perm(bursts) // even: single-kernel, odd: mixed

	out := &loopOut{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start, cpu0 := time.Now(), cpuSeconds()
	for b, d := range due {
		dueAt := start.Add(d)
		time.Sleep(time.Until(dueAt))
		sent := time.Now()
		out.lateMs = append(out.lateMs, ms(sent.Sub(dueAt)))
		single := shape[b]%2 == 0
		for j := range burstSize {
			k := (shape[b]/2 + j) % len(s.specs)
			if single {
				k = (shape[b] / 2) % len(s.specs)
			}
			e := rng.Intn(examplesPerKernel)
			id := tr.newOp()
			wg.Add(1)
			inflight.Add(1)
			go func() {
				defer wg.Done()
				root := tr.begin("roundtrip", id, -1, dueAt)
				tr.end(tr.begin("gen.late", id, root, dueAt), sent)
				rec := s.post(k, s.bodies[k][e], tr, id, root)
				done := time.Now()
				tr.end(root, done)
				inflight.Add(-1)
				got, err := s.open(k, rec, nil, 0, 0)
				if err == nil {
					err = s.check(k, got, s.pool[k][e])
				}
				o := op{kernel: k, ms: ms(done.Sub(dueAt)), single: single}
				o.read(rec)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					out.fail(err)
					return
				}
				out.ops = append(out.ops, o)
			}()
		}
	}
	time.Sleep(time.Until(start.Add(dur)))
	out.backlogEnd = int(inflight.Load())
	wg.Wait()
	out.window, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	return out
}
