// Package serve is the multi-request serving core: a batched request
// scheduler that owns a bounded pool of execution sessions over one
// shared backend.Context, admits requests from any number of
// producers, coalesces them into per-plan batches, and reports
// per-request latency plus queue-depth and throughput statistics.
//
// The scheduler replaces the flat one-goroutine-per-worker loop of the
// original `-run` mode: producers submit requests; a dispatcher groups
// them into batches (same plan, bounded size and wait window); session
// workers execute batches back-to-back on goroutine-local sessions.
// Grouping same-plan requests onto one session keeps its register file
// and plaintext scratch at steady-state shape, so every request after
// a session's first run of a plan executes allocation-free.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"porcupine/internal/backend"
	"porcupine/internal/bfv"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// Config sizes the scheduler. Zero fields take defaults.
type Config struct {
	// Sessions is the number of concurrent execution sessions (and
	// worker goroutines) over the shared context. Default 1, or the
	// batch-level share of Workers when a total budget is set.
	Sessions int
	// QueueDepth bounds the admission queue; producers block (Do) once
	// the queue is full — backpressure instead of unbounded buffering.
	// Default 64.
	QueueDepth int
	// MaxBatch is the largest number of requests coalesced into one
	// batch. Default 8.
	MaxBatch int
	// BatchWindow is how long the dispatcher waits to grow a batch
	// beyond the first request before dispatching what it has. Default
	// 200µs: long enough to coalesce a concurrent burst, far below a
	// single HE instruction latency. The window (and deep batching)
	// applies only while every session is busy — when sessions sit
	// idle, queued requests are spread across them immediately, so
	// coalescing never serializes work the pool could run in parallel.
	BatchWindow time.Duration

	// RingWorkers is the intra-operation parallelism of the HE
	// primitives (NTT rows, pointwise loops, lazy inner products —
	// Parameters.SetWorkers). Applied to the served context by New.
	// 0/1 = serial loops.
	RingWorkers int
	// PlanWorkers is the per-session step-level parallelism: with
	// PlanWorkers > 1 the independent steps of each dependency level of
	// a plan execute concurrently (Session.SetParallelism). Defaults to
	// RingWorkers — both layers draw from the same ring worker pool,
	// which is work-conserving, so sharing the budget degrades
	// gracefully rather than oversubscribing.
	PlanWorkers int
	// Workers is the total core budget to partition between batch-level
	// concurrency (Sessions) and intra-request parallelism
	// (RingWorkers/PlanWorkers) when those fields are unset. The split
	// is static and favors batch-level concurrency — independent
	// requests scale with no serial fraction, while ring parallelism
	// pays per-chunk overhead — so Sessions defaults to the whole
	// budget. 0 = no budget, fields take their own defaults.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Workers > 0 {
		if c.Sessions < 1 {
			if c.RingWorkers > 1 {
				c.Sessions = c.Workers / c.RingWorkers
			} else {
				c.Sessions = c.Workers
			}
		} else if c.RingWorkers == 0 {
			c.RingWorkers = c.Workers / c.Sessions
		}
	}
	if c.PlanWorkers == 0 {
		c.PlanWorkers = c.RingWorkers
	}
	if c.Sessions < 1 {
		c.Sessions = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	return c
}

// Request is one plan execution: the plan plus its inputs. CtIn and
// PtIn must match the plan's declared input counts.
type Request struct {
	Plan *plan.ExecutionPlan
	CtIn []*bfv.Ciphertext
	PtIn []quill.Vec
	// Kernel is an optional name for per-kernel stats attribution (set
	// by the registry router; empty requests aggregate only into the
	// scheduler-wide counters).
	Kernel string
}

// Result is the outcome of one request.
type Result struct {
	// Out is the output ciphertext, a fresh copy owned by the caller
	// (nil when Err is set).
	Out *bfv.Ciphertext
	// Latency is admission-to-completion wall time; Wait is the part
	// of it spent queued before a session picked the request up.
	Latency time.Duration
	Wait    time.Duration
	// Batch is the size of the batch the request executed in.
	Batch int
	// Lanes is the size of the slot-multiplexed group the request
	// executed in: ≥ 2 when it shared one lane-packed ciphertext
	// evaluation with other requests, 0 for per-request execution.
	Lanes int
	Err   error
}

// Stats is a point-in-time snapshot of scheduler counters.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Served    uint64 `json:"served"` // completed OK
	Failed    uint64 `json:"failed"` // completed with error
	Rejected  uint64 `json:"rejected"`

	Batches       uint64  `json:"batches"`
	MaxBatchSeen  int     `json:"max_batch"`
	AvgBatch      float64 `json:"avg_batch"`
	QueueDepth    int     `json:"queue_depth"`     // instantaneous
	MaxQueueDepth int     `json:"max_queue_depth"` // high-water mark

	AvgLatency time.Duration `json:"avg_latency_ns"`
	MaxLatency time.Duration `json:"max_latency_ns"`
	AvgWait    time.Duration `json:"avg_wait_ns"`

	// Throughput is completed requests per second over the scheduler's
	// lifetime so far.
	Throughput float64 `json:"throughput_rps"`

	// MuxGroups counts lane-packed ciphertext evaluations; MuxedRequests
	// counts the requests they carried (≥ 2 per group).
	MuxGroups     uint64 `json:"mux_groups"`
	MuxedRequests uint64 `json:"muxed_requests"`

	// Kernels breaks completions down by Request.Kernel (absent for
	// unnamed requests).
	Kernels map[string]KernelStats `json:"kernels,omitempty"`
}

// KernelStats is the per-kernel slice of the scheduler counters.
type KernelStats struct {
	Served uint64 `json:"served"`
	Failed uint64 `json:"failed"`
	// Muxed counts the served requests that rode a lane-packed group.
	Muxed uint64 `json:"muxed"`
}

type job struct {
	req   Request
	enq   time.Time
	start time.Time
	batch int
	done  chan Result
}

// Scheduler coalesces and executes requests against one shared
// context. All methods are safe for concurrent use.
type Scheduler struct {
	ctx *backend.Context
	cfg Config

	queue   chan *job
	batches chan []*job

	mu     sync.Mutex // guards closed + stats + muxes
	idle   *sync.Cond // signaled when depth reaches 0 (Close waits on it)
	closed bool
	st     stats

	// muxes maps plans to their registered slot-multiplexing
	// capability (EnableMux). Workers execute multi-request batches of
	// a registered plan as lane-packed groups; everything else runs
	// per-request.
	muxes map[*plan.ExecutionPlan]*plan.Mux

	// busy counts batches handed to (or executing on) workers; the
	// dispatcher uses Sessions - busy to decide between coalescing
	// (all sessions occupied: batching is free) and spreading (idle
	// sessions: dispatch immediately, smallest batches possible).
	busy atomic.Int64

	dispatcherDone chan struct{}
	workersDone    sync.WaitGroup
	started        time.Time
}

type stats struct {
	submitted, served, failed, rejected uint64
	batches                             uint64
	batchedJobs                         uint64
	maxBatch                            int
	depth, maxDepth                     int
	totalLatency, maxLatency            time.Duration
	totalWait                           time.Duration
	muxGroups, muxedJobs                uint64
	kernels                             map[string]*KernelStats
}

// New builds and starts a scheduler over ctx. A non-zero RingWorkers
// is applied to the context's parameters, routing every session's ring
// hot loops through the persistent worker pool.
func New(ctx *backend.Context, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	if cfg.RingWorkers > 0 {
		ctx.Params.SetWorkers(cfg.RingWorkers)
	}
	s := &Scheduler{
		ctx:            ctx,
		cfg:            cfg,
		queue:          make(chan *job, cfg.QueueDepth),
		batches:        make(chan []*job),
		dispatcherDone: make(chan struct{}),
		started:        time.Now(),
	}
	s.idle = sync.NewCond(&s.mu)
	go s.dispatch()
	for i := 0; i < cfg.Sessions; i++ {
		s.workersDone.Add(1)
		go s.worker()
	}
	return s
}

// Do submits a request and blocks until its result. It applies
// backpressure: when the admission queue is full, Do blocks until a
// slot frees up.
func (s *Scheduler) Do(req Request) Result {
	return <-s.Submit(req)
}

// Submit enqueues a request and returns a channel that will receive
// exactly one Result. Submission after Close resolves immediately with
// ErrClosed.
func (s *Scheduler) Submit(req Request) <-chan Result {
	j := &job{req: req, enq: time.Now(), done: make(chan Result, 1)}
	s.mu.Lock()
	if s.closed {
		s.st.rejected++
		s.mu.Unlock()
		j.done <- Result{Err: ErrClosed}
		return j.done
	}
	s.st.submitted++
	s.st.depth++
	if s.st.depth > s.st.maxDepth {
		s.st.maxDepth = s.st.depth
	}
	s.mu.Unlock()
	// Safe even racing Close: a producer that passed the closed check
	// has already incremented depth, and Close only closes the queue
	// channel after depth drains back to zero.
	s.queue <- j
	return j.done
}

// dispatch groups queued jobs into batches: same plan, at most
// MaxBatch jobs, waiting at most BatchWindow after the first job to
// grow the batch. Coalescing deeper than necessary would serialize
// onto one session work that idle sessions could run concurrently, so
// the window and the full batch bound apply only when every session
// is busy; with idle sessions the dispatcher drains without waiting
// and caps the batch so the rest of the queue spreads across them.
func (s *Scheduler) dispatch() {
	defer close(s.dispatcherDone)
	var held *job // job that ended the previous batch (different plan)
	for {
		first := held
		held = nil
		if first == nil {
			var ok bool
			if first, ok = <-s.queue; !ok {
				close(s.batches)
				return
			}
		}
		maxBatch := s.cfg.MaxBatch
		wait := true
		if idle := s.cfg.Sessions - int(s.busy.Load()); idle > 1 {
			wait = false
			if spread := 1 + len(s.queue)/idle; spread < maxBatch {
				maxBatch = spread
			}
		}
		batch := []*job{first}
		var deadline *time.Timer
		if wait {
			deadline = time.NewTimer(s.cfg.BatchWindow)
		}
	fill:
		for len(batch) < maxBatch {
			var j *job
			var ok bool
			if wait {
				select {
				case j, ok = <-s.queue:
				case <-deadline.C:
					break fill
				}
			} else {
				select {
				case j, ok = <-s.queue:
				default:
					break fill
				}
			}
			if !ok {
				break fill
			}
			if j.req.Plan != first.req.Plan {
				held = j
				break fill
			}
			batch = append(batch, j)
		}
		if deadline != nil {
			deadline.Stop()
		}
		s.mu.Lock()
		s.st.batches++
		s.st.batchedJobs += uint64(len(batch))
		if len(batch) > s.st.maxBatch {
			s.st.maxBatch = len(batch)
		}
		s.mu.Unlock()
		for _, j := range batch {
			j.batch = len(batch)
		}
		s.busy.Add(1) // decremented by the worker when the batch completes
		s.batches <- batch
	}
}

// EnableMux registers a plan's slot-multiplexing capability: workers
// then execute multi-request batches of mux.Base as lane-packed groups
// (up to mux.Lanes requests per ciphertext evaluation), demuxing one
// result per request. The context must hold the mux's pack/demux
// Galois keys. Safe to call concurrently with serving; requests
// already dispatched keep their execution mode.
func (s *Scheduler) EnableMux(m *plan.Mux) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.muxes == nil {
		s.muxes = make(map[*plan.ExecutionPlan]*plan.Mux)
	}
	s.muxes[m.Base] = m
}

func (s *Scheduler) muxFor(p *plan.ExecutionPlan) *plan.Mux {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.muxes[p]
}

// worker owns one session and executes batches back-to-back. Batches
// of a mux-registered plan run lane-packed (one ciphertext evaluation
// carrying every member); anything else — unregistered plans,
// single-request batches, or a packed run that fails validation —
// runs per-request on the worker's session.
func (s *Scheduler) worker() {
	defer s.workersDone.Done()
	sess := s.ctx.NewSession()
	sess.SetParallelism(s.cfg.PlanWorkers)
	// Lazily-built mux runners, one per plan per worker: each owns its
	// own session and packed-input scratch, reused across batches so
	// steady-state muxed execution allocates nothing.
	var runners map[*plan.ExecutionPlan]*backend.MuxRunner
	var ctIns [][]*bfv.Ciphertext
	var ptIns [][]quill.Vec
	for batch := range s.batches {
		m := s.muxFor(batch[0].req.Plan)
		if m == nil || len(batch) < 2 {
			for _, j := range batch {
				s.runOne(sess, j)
			}
			s.busy.Add(-1)
			continue
		}
		if runners == nil {
			runners = make(map[*plan.ExecutionPlan]*backend.MuxRunner)
		}
		runner := runners[batch[0].req.Plan]
		if runner == nil {
			runner = s.ctx.NewMuxRunner(m)
			runner.SetParallelism(s.cfg.PlanWorkers)
			runners[batch[0].req.Plan] = runner
		}
		for start := 0; start < len(batch); start += m.Lanes {
			end := start + m.Lanes
			if end > len(batch) {
				end = len(batch)
			}
			group := batch[start:end]
			if len(group) < 2 {
				s.runOne(sess, group[0])
				continue
			}
			ctIns, ptIns = ctIns[:0], ptIns[:0]
			now := time.Now()
			for _, j := range group {
				j.start = now
				ctIns = append(ctIns, j.req.CtIn)
				ptIns = append(ptIns, j.req.PtIn)
			}
			outs, err := runner.Run(ctIns, ptIns)
			if err != nil {
				// A packed run fails as a unit (one malformed member is
				// enough); per-request execution gives every member its
				// own precise verdict.
				for _, j := range group {
					s.runOne(sess, j)
				}
				continue
			}
			s.mu.Lock()
			s.st.muxGroups++
			s.st.muxedJobs += uint64(len(group))
			s.mu.Unlock()
			for i, j := range group {
				res := Result{
					Batch: j.batch,
					Lanes: len(group),
					Wait:  j.start.Sub(j.enq),
					Out:   s.ctx.Params.CopyCiphertext(outs[i]),
				}
				res.Latency = time.Since(j.enq)
				s.finish(j.req.Kernel, res)
				j.done <- res
			}
		}
		s.busy.Add(-1)
	}
}

// runOne executes one job per-request on the worker's session.
func (s *Scheduler) runOne(sess *backend.Session, j *job) {
	j.start = time.Now()
	res := Result{Batch: j.batch, Wait: j.start.Sub(j.enq)}
	out, err := sess.Run(j.req.Plan, j.req.CtIn, j.req.PtIn)
	if err != nil {
		res.Err = fmt.Errorf("serve: %w", err)
	} else {
		// Copy out of the session's register file so the result
		// survives the session's next run.
		res.Out = s.ctx.Params.CopyCiphertext(out)
	}
	res.Latency = time.Since(j.enq)
	s.finish(j.req.Kernel, res)
	j.done <- res
}

func (s *Scheduler) finish(kernel string, res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.depth--
	if s.st.depth == 0 {
		s.idle.Broadcast()
	}
	if res.Err != nil {
		s.st.failed++
	} else {
		s.st.served++
	}
	if kernel != "" {
		if s.st.kernels == nil {
			s.st.kernels = make(map[string]*KernelStats)
		}
		ks := s.st.kernels[kernel]
		if ks == nil {
			ks = &KernelStats{}
			s.st.kernels[kernel] = ks
		}
		if res.Err != nil {
			ks.Failed++
		} else {
			ks.Served++
			if res.Lanes >= 2 {
				ks.Muxed++
			}
		}
	}
	s.st.totalLatency += res.Latency
	if res.Latency > s.st.maxLatency {
		s.st.maxLatency = res.Latency
	}
	s.st.totalWait += res.Wait
}

// Config returns the scheduler's resolved configuration — defaults
// and worker-budget partitioning applied — so callers can report the
// session/ring split actually in effect.
func (s *Scheduler) Config() Config { return s.cfg }

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted:     s.st.submitted,
		Served:        s.st.served,
		Failed:        s.st.failed,
		Rejected:      s.st.rejected,
		Batches:       s.st.batches,
		MaxBatchSeen:  s.st.maxBatch,
		QueueDepth:    s.st.depth,
		MaxQueueDepth: s.st.maxDepth,
		MuxGroups:     s.st.muxGroups,
		MuxedRequests: s.st.muxedJobs,
	}
	if len(s.st.kernels) > 0 {
		st.Kernels = make(map[string]KernelStats, len(s.st.kernels))
		for name, ks := range s.st.kernels {
			st.Kernels[name] = *ks
		}
	}
	if s.st.batches > 0 {
		st.AvgBatch = float64(s.st.batchedJobs) / float64(s.st.batches)
	}
	if done := s.st.served + s.st.failed; done > 0 {
		st.AvgLatency = s.st.totalLatency / time.Duration(done)
		st.AvgWait = s.st.totalWait / time.Duration(done)
		st.Throughput = float64(done) / time.Since(s.started).Seconds()
	}
	st.MaxLatency = s.st.maxLatency
	return st
}

// Close stops admission, drains every in-flight request (each still
// receives its Result), and waits for the workers to exit. Safe to
// call concurrently with Submit and more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	// Wait for every admitted request to complete. Producers that
	// passed the closed check have already incremented depth, so once
	// it reaches zero nobody is about to send on the queue and closing
	// it is safe.
	for s.st.depth > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	if first {
		close(s.queue)
	}
	<-s.dispatcherDone
	s.workersDone.Wait()
}
