// Package porcupine is a synthesizing compiler for vectorized
// homomorphic encryption — a complete Go reproduction of "Porcupine: A
// Synthesizing Compiler for Vectorized Homomorphic Encryption" (Cowan
// et al., PLDI 2021).
//
// Given a kernel specification (a plaintext reference implementation
// plus a data layout) and a sketch (an instruction-template with
// holes), Porcupine synthesizes a verified BFV kernel in the Quill
// DSL, optimizes it under the latency × (1 + multiplicative-depth)
// cost model, and either executes it on the bundled pure-Go BFV
// implementation or emits SEAL C++ for it.
//
// Quick start:
//
//	res, err := porcupine.CompileKernel("box-blur", porcupine.Options{
//		Timeout: time.Minute,
//	})
//	// res.Lowered is the optimized HE kernel:
//	fmt.Print(res.Lowered)
//
// Run it on real ciphertexts:
//
//	rt, _ := porcupine.NewRuntime("PN4096", res.Lowered)
//	ct, _ := rt.EncryptVec(input)
//	out, _ := rt.Run(res.Lowered, []*porcupine.Ciphertext{ct}, nil)
//	fmt.Println(rt.DecryptVec(out, 32))
//
// EncryptVec and DecryptVec are goroutine-safe: any number of
// keyholder goroutines may share one Runtime (or the backend.Context
// inside it), each call drawing its scratch from shared pools and
// allocating only the ciphertext or vector it returns. Runtime.Run is
// safe too (it borrows a pooled session per call); a Session driven
// directly belongs to one goroutine.
//
// See EXPERIMENTS.md for the paper-versus-measured record of every
// table and figure.
package porcupine

import (
	"porcupine/internal/backend"
	"porcupine/internal/baseline"
	"porcupine/internal/bfv"
	"porcupine/internal/codegen"
	"porcupine/internal/compose"
	"porcupine/internal/core"
	"porcupine/internal/kernels"
	"porcupine/internal/plan"
	"porcupine/internal/quill"
	"porcupine/internal/serve"
	"porcupine/internal/synth"
	"porcupine/internal/wire"
)

// Core program representations (Quill DSL).
type (
	// Program is a Quill program in local-rotate form (rotations as
	// operands of arithmetic instructions).
	Program = quill.Program
	// Lowered is a Quill program in explicit instruction form (the
	// SEAL instruction stream).
	Lowered = quill.Lowered
	// Instr is a local-rotate instruction.
	Instr = quill.Instr
	// CtRef is a (value, rotation) operand reference.
	CtRef = quill.CtRef
	// PtRef is a plaintext operand reference.
	PtRef = quill.PtRef
	// CostModel maps instructions to latencies for the §5.2 objective.
	CostModel = quill.CostModel
	// Vec is a concrete slot vector over Z_t.
	Vec = quill.Vec
)

// Specification and synthesis types.
type (
	// Spec is a kernel specification: reference semantics + layout.
	Spec = kernels.Spec
	// Example is one concrete input-output pair of a kernel spec.
	Example = kernels.Example
	// Layout assigns logical elements to vector slots.
	Layout = kernels.Layout
	// Sketch guides the synthesis engine (components + rotations + L).
	Sketch = synth.Sketch
	// Component is one instruction template in a sketch.
	Component = synth.Component
	// Options configures a synthesis run.
	Options = synth.Options
	// Result reports a synthesis run (Table 3 shape).
	Result = synth.Result
	// Compiled is a fully compiled kernel (program + metadata).
	Compiled = core.Compiled
)

// Batch compilation types.
type (
	// Cache is the persistent, content-addressed synthesis cache.
	Cache = synth.Cache
	// BuildOptions configures a batch suite compilation.
	BuildOptions = core.BuildOptions
	// BuildReport is the outcome of a batch suite compilation.
	BuildReport = core.BuildReport
	// BuildEntry is one kernel's outcome in a batch compilation.
	BuildEntry = core.BuildEntry
	// BatchEvent is one progress notification from a batch run.
	BatchEvent = synth.Event
)

// Batch progress event kinds.
const (
	JobStarted  = synth.JobStarted
	JobFinished = synth.JobFinished
)

// BFV runtime types.
type (
	// Runtime executes lowered programs on the pure-Go BFV backend.
	Runtime = backend.Runtime
	// Context is the immutable shared serving state: parameters, keys,
	// encoder, evaluator. One Context serves any number of goroutines.
	Context = backend.Context
	// Session is the cheap per-goroutine execution state (register
	// file, scratch) plans run in; create one per worker.
	Session = backend.Session
	// ExecutionPlan is a lowered program compiled into a fixed,
	// allocation-free, concurrently servable schedule.
	ExecutionPlan = plan.ExecutionPlan
	// Ciphertext is a BFV ciphertext.
	Ciphertext = bfv.Ciphertext
	// Parameters is a BFV parameter set.
	Parameters = bfv.Parameters
)

// Quill opcodes, re-exported for sketch construction.
const (
	OpAddCtCt = quill.OpAddCtCt
	OpSubCtCt = quill.OpSubCtCt
	OpMulCtCt = quill.OpMulCtCt
	OpAddCtPt = quill.OpAddCtPt
	OpSubCtPt = quill.OpSubCtPt
	OpMulCtPt = quill.OpMulCtPt
	OpRotCt   = quill.OpRotCt
	OpRelin   = quill.OpRelin
)

// Operand-hole kinds for sketch components.
const (
	KindCt    = synth.KindCt
	KindCtRot = synth.KindCtRot
)

// ErrUnsat is returned when the sketch contains no implementation of
// the specification.
var ErrUnsat = synth.ErrUnsat

// InferSketch derives a sketch automatically from a specification
// (component extraction + rotation restriction inference), an
// extension of the paper's manual sketch-writing workflow.
func InferSketch(spec *Spec) (*Sketch, error) { return synth.InferSketch(spec) }

// OptimizeLowered applies global CSE, dead-code elimination and
// rotation folding to a lowered program (useful after multi-step
// composition).
func OptimizeLowered(l *Lowered) (*Lowered, error) { return quill.OptimizeLowered(l) }

// Kernels returns the names of every workload in the paper's
// evaluation: nine directly synthesized kernels plus the multi-step
// sobel and harris.
func Kernels() []string { return core.AllKernels() }

// KernelSpec returns the specification of a named kernel, or nil.
func KernelSpec(name string) *Spec { return kernels.ByName(name) }

// DefaultSketch returns the sketch a Porcupine user would write for a
// directly synthesized kernel.
func DefaultSketch(name string) (*Sketch, error) { return synth.DefaultSketch(name) }

// Compile synthesizes a verified, optimized HE kernel from a
// specification and sketch (the paper's Figure 3 pipeline).
func Compile(spec *Spec, sk *Sketch, opts Options) (*Result, error) {
	return synth.Synthesize(spec, sk, opts)
}

// CompileKernel compiles a named kernel with its default sketch and
// verifies the lowered result.
func CompileKernel(name string, opts Options) (*Compiled, error) {
	return core.CompileKernel(name, opts)
}

// BuildSuite batch-compiles the named kernels (nil = the full
// 11-kernel suite) through a shared work-stealing scheduler with a
// global worker budget, serving and recording results through the
// synthesis cache when one is configured.
func BuildSuite(names []string, bo BuildOptions) (*BuildReport, error) {
	return core.BuildSuite(names, bo)
}

// OpenCache opens (creating if needed) a disk-backed synthesis cache;
// the empty dir returns a memory-only cache.
func OpenCache(dir string) (*Cache, error) { return synth.OpenCache(dir) }

// CacheLimits bounds a synthesis cache (max entries / max bytes, LRU
// eviction); zero fields mean unlimited.
type CacheLimits = synth.Limits

// OpenCacheWithLimits is OpenCache with an LRU eviction bound.
func OpenCacheWithLimits(dir string, lim CacheLimits) (*Cache, error) {
	return synth.OpenCacheWithLimits(dir, lim)
}

// DefaultCacheDir returns the per-user default synthesis-cache
// location.
func DefaultCacheDir() string { return synth.DefaultCacheDir() }

// Baseline returns the hand-written depth-minimized baseline for a
// kernel (the paper's comparison target).
func Baseline(name string) (*Lowered, error) { return baseline.Lowered(name) }

// ComposeSobel stitches a Sobel pipeline (Gx² + Gy²) from two gradient
// programs via multi-step synthesis (§6.3).
func ComposeSobel(gx, gy *Program) (*Lowered, error) { return compose.Sobel(gx, gy) }

// ComposeHarris stitches the integerized Harris corner response from
// gradient and blur programs.
func ComposeHarris(gx, gy, blur *Program) (*Lowered, error) {
	return compose.Harris(gx, gy, blur)
}

// EmitSEAL generates SEAL v3.5 C++ source for a lowered program.
func EmitSEAL(l *Lowered, funcName string) (string, error) {
	return codegen.EmitSEAL(l, codegen.Options{FuncName: funcName})
}

// NewRuntime builds a BFV runtime for one of the parameter presets
// ("PN2048" test-only, "PN4096" and "PN8192" 128-bit secure), with
// Galois keys covering the rotations of the given programs.
func NewRuntime(preset string, programs ...*Lowered) (*Runtime, error) {
	return backend.NewRuntime(preset, programs...)
}

// PresetFor names the parameter preset deep enough for every given
// program: PN8192 beyond multiplicative depth 2, PN4096 otherwise.
func PresetFor(programs ...*Lowered) string { return backend.PresetFor(programs...) }

// NewServingContext compiles execution plans for the given programs
// and builds a shared Context holding exactly the Galois keys those
// plans need. Workers then execute the plans concurrently, each
// through its own Context.NewSession().
func NewServingContext(preset string, programs ...*Lowered) (*Context, []*ExecutionPlan, error) {
	return backend.NewServingContext(preset, programs...)
}

// Serving types: the batched request scheduler (Scheduler) over one
// shared Context, and the wire form of a request. See internal/serve
// and internal/wire.
type (
	// WireRequest is one serving request (encrypted inputs + plaintext
	// vectors) in its wire form.
	WireRequest = wire.Request
	// Scheduler is the batched request scheduler: a bounded session
	// pool over one shared Context with request coalescing and stats.
	Scheduler = serve.Scheduler
	// ServeConfig sizes a Scheduler (sessions, queue depth, batching).
	ServeConfig = serve.Config
	// ServeRequest is one scheduled plan execution.
	ServeRequest = serve.Request
	// ServeResult is the outcome of one scheduled request.
	ServeResult = serve.Result
	// ServeStats is a snapshot of scheduler counters.
	ServeStats = serve.Stats
)

// NewScheduler starts a batched request scheduler over a context.
func NewScheduler(ctx *Context, cfg ServeConfig) *Scheduler { return serve.New(ctx, cfg) }

// Registry serving types: the wire registry artifact (one manifest of
// named plans sharing a parameter set and one key-material section —
// a single kernel is a registry of one), the catalog serving it from a
// single context, and its HTTP front-end. See internal/wire and
// internal/serve.
type (
	// Registry is the exported serving artifact.
	Registry = wire.Registry
	// RegistryEntry is one named kernel of a registry manifest.
	RegistryEntry = wire.RegistryEntry
	// Catalog is the serving half of a loaded registry: one shared
	// context and one scheduler hosting every kernel, with
	// slot-multiplexed batching for the eligible ones.
	Catalog = serve.Catalog
	// RegistryFront is the HTTP front-end over a catalog
	// (/kernels, /run/{kernel}, /selftest/{kernel}, /stats, /healthz).
	RegistryFront = serve.RegistryFront
	// PlanMux is a plan's slot-multiplexing capability: lane geometry
	// plus the lane-replicated execution clone.
	PlanMux = plan.Mux
)

// NewMuxServingContext compiles execution plans for the given programs
// and builds a shared Context whose Galois keys also cover each
// mux-eligible plan's lane pack/demux rotations (maxLanes ≤ 0 uses the
// default lane cap).
func NewMuxServingContext(preset string, maxLanes int, programs ...*Lowered) (*Context, []*ExecutionPlan, error) {
	return backend.NewMuxServingContext(preset, maxLanes, programs...)
}

// ExportRegistry packages named plans compiled under one context into
// a wire registry, deriving and stamping each plan's mux lane geometry
// when legal. The secret key never leaves the exporting process.
func ExportRegistry(ctx *Context, names []string, plans []*ExecutionPlan, samples []*WireRequest) (*Registry, error) {
	return serve.ExportRegistry(ctx, names, plans, samples)
}

// NewCatalog serves a registry from an existing context — the
// exporting keyholder's own, for in-process serving. The context must
// hold every plan's rotations and each mux geometry's pack/demux
// rotations.
func NewCatalog(ctx *Context, reg *Registry, cfg ServeConfig) (*Catalog, error) {
	return serve.NewCatalog(ctx, reg, cfg)
}

// ReadRegistryFile reads, checksums and fully validates an exported
// registry (manifest sanity, per-plan validation, mux legality, key
// coverage).
func ReadRegistryFile(path string) (*Registry, error) { return wire.ReadRegistryFile(path) }

// LoadRegistry builds the serving half from a registry: a sealed
// execute-only context (no secret key) and a catalog over it.
func LoadRegistry(reg *Registry, cfg ServeConfig) (*Catalog, error) {
	return serve.LoadRegistry(reg, cfg)
}

// NewRegistryFront builds the multi-kernel HTTP front-end over a
// catalog.
func NewRegistryFront(cat *Catalog, preset string) *RegistryFront {
	return serve.NewRegistryFront(cat, preset)
}

// EncodeWireRequest serializes a request for POSTing to a serving
// process, pinned to the parameter fingerprint.
func EncodeWireRequest(params *Parameters, req *WireRequest) ([]byte, error) {
	return wire.EncodeRequest(params, req)
}

// DecodeWireResponse decodes a serving process's response ciphertext.
func DecodeWireResponse(params *Parameters, data []byte) (*Ciphertext, error) {
	return wire.DecodeResponse(params, data)
}

// ParseLowered parses the textual lowered-program format (see
// Lowered.String).
func ParseLowered(src string) (*Lowered, error) { return quill.ParseLowered(src) }

// DefaultCostModel returns the statically profiled instruction-latency
// model used by the synthesis objective.
func DefaultCostModel() *CostModel { return quill.DefaultCostModel() }
