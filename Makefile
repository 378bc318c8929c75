GO ?= go

.PHONY: all build vet test test-race test-short test-benchmark fuzz bench bench-figure4 bench-ops bench-synth bench-serve bench-scale bench-mux smoke-serve smoke-registry alloc-canary

all: vet build test-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race detector over the concurrent pieces: the work-stealing search,
# the batch scheduler, the synthesis cache, the client crypto shared by
# every keyholder goroutine (sampler, encryptor, decryptor, encoder
# pools), the serving runtime (concurrent sessions over one context),
# the batched request scheduler, and wire decode/load. The CI race job
# runs this target; drop -short for the full sweep when touching the
# search.
test-race:
	$(GO) test -race -short -timeout 10m ./internal/ring/... ./internal/bfv/... ./internal/synth/... ./internal/quill/... ./internal/plan/... ./internal/backend/... ./internal/serve/... ./internal/wire/...

# The benchmark is a module of its own (benchmark/go.mod), which the
# root `go test ./...` never builds: vet it and run its smoke test so
# it cannot rot against internal/ API changes. The CI benchmark-module
# job runs this target.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Native fuzzing of the two decoders a serving process and a client
# run on untrusted bytes (the CI fuzz job runs this target): 30 s per
# target. A
# short minimization budget keeps a found crash from being minimized
# past the fuzzing deadline; a failing input lands in
# internal/wire/testdata/fuzz/ and then runs in every `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/wire/

# benchstat-friendly: 5 repetitions of every paper benchmark. Pipe two
# runs through benchstat to compare changes:
#   make bench > old.txt; ...change...; make bench > new.txt
#   benchstat old.txt new.txt
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 3x -count 5 -timeout 5400s .

# Figure 4 HE-latency rows only.
bench-figure4:
	$(GO) test -short -run '^$$' -bench BenchmarkFigure4 -benchtime 3x -count 5 -timeout 5400s .

# Evaluator op-level microbenchmarks (Mul / MulRelin / Rotate).
bench-ops:
	$(GO) test -run '^$$' -bench BenchmarkEvaluator -benchtime 5x -count 5 -timeout 1200s ./internal/bfv/

# Batch-compilation benchmark: cold (empty cache) then warm (fully
# cached) build of the full 11-kernel suite through the shared
# scheduler. Recorded before/after numbers live in BENCH_PR2.json;
# methodology in EXPERIMENTS.md.
bench-synth:
	rm -rf /tmp/porcupine-bench-cache
	@echo "--- cold build (empty cache) ---"
	$(GO) run ./cmd/porcupine -build -cache-dir /tmp/porcupine-bench-cache -timeout 10m
	@echo "--- warm build (persistent cache) ---"
	$(GO) run ./cmd/porcupine -build -cache-dir /tmp/porcupine-bench-cache -timeout 10m

# Serving-path benchmark: execution-plan throughput and allocations per
# run (interpreter vs plan, 1/2/4 concurrent sessions over one shared
# context). Recorded before/after numbers live in BENCH_PR3.json.
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkPlanThroughput -benchtime 50x -count 3 -timeout 1800s .

# Quick end-to-end serving check (used by CI): synthesize box-blur,
# serve it in process as a registry of one, push requests through the
# batched scheduler across 2 sessions, verify every response against
# the reference.
smoke-serve:
	$(GO) run ./cmd/porcupine -run box-blur -iters 4 -workers 2 -no-cache -timeout 2m

# Multi-kernel registry smoke (mirrors the CI cross-process job): one
# process exports the full 11-kernel registry from the hand-written
# baselines, a second loads it (no secret key) and proves every
# kernel's embedded sample bit-identical, a third lane-packs a burst
# through the mux scheduler.
smoke-registry:
	$(GO) build -o /tmp/porcupine-smoke ./cmd/porcupine
	/tmp/porcupine-smoke -export-registry /tmp/porcupine-smoke.pregistry -baseline -preset PN4096
	/tmp/porcupine-smoke -load-registry /tmp/porcupine-smoke.pregistry -iters 2
	/tmp/porcupine-smoke -load-registry /tmp/porcupine-smoke.pregistry -run dot-product -iters 16 -workers 1

# Multi-core scaling benchmark: per-kernel worker sweep with both
# parallel layers engaged (ring worker pool + levelized plan steps),
# paired-delta speedups over the serial schedule, bit-identity proven
# per configuration before timing, and an Amdahl-with-overhead model
# fit. Recorded numbers live in BENCH_PR8.json; methodology in
# EXPERIMENTS.md. Override the sweep with e.g.
#   make bench-scale KERNELS=gx,hamming-distance WORKERS=1,2
SCALE_ITERS ?= 12
SCALE_OUT ?= /tmp/porcupine-bench-scale.json
bench-scale:
	$(GO) run ./cmd/benchscale -iters $(SCALE_ITERS) \
		$(if $(KERNELS),-kernels $(KERNELS)) $(if $(WORKERS),-workers $(WORKERS)) \
		-out $(SCALE_OUT)
	@echo "wrote $(SCALE_OUT) (curated record: BENCH_PR8.json)"

# Muxed-vs-unmuxed serving benchmark: paired per-iteration deltas of
# lane-packed batches against the same requests served one at a time,
# bit-identity verified per user before timing. Recorded numbers live
# in BENCH_PR9.json; methodology in EXPERIMENTS.md.
MUX_ITERS ?= 12
MUX_OUT ?= /tmp/porcupine-bench-mux.json
bench-mux:
	$(GO) run ./cmd/benchmux -iters $(MUX_ITERS) \
		$(if $(KERNELS),-kernels $(KERNELS)) -out $(MUX_OUT)
	@echo "wrote $(MUX_OUT) (curated record: BENCH_PR9.json)"

# Allocation-regression canary (the CI job runs this target): steady-state
# plan execution — plain, domain-assigned, the double-hoisted
# shared-rotation path, the multi-core engine (worker pool + levelized
# steps), and the slot-multiplexed batch path — must report 0 allocs/op; the keyholder's EncryptVec and DecryptVec (both presets)
# must stay within 8 allocs/op — the returned ciphertext or vector,
# nothing per coefficient; the PN4096 codec round trip
# (BenchmarkWireRoundTrip) must stay within 1.5× the bytes of the
# packed request and response it reports — the encoded buffers only.
alloc-canary:
	$(GO) test -run '^$$' -bench '^(BenchmarkPlanRun|BenchmarkDomainAssignedPlanRun|BenchmarkSharedRotPlanRun|BenchmarkParallelPlanRun|BenchmarkMuxedPlanRun)$$' -benchtime 1x -benchmem . | tee /tmp/porcupine-canary.out
	grep -E 'BenchmarkPlanRun.* 0 B/op.* 0 allocs/op' /tmp/porcupine-canary.out
	grep -E 'BenchmarkDomainAssignedPlanRun.* 0 B/op.* 0 allocs/op' /tmp/porcupine-canary.out
	grep -E 'BenchmarkSharedRotPlanRun.* 0 B/op.* 0 allocs/op' /tmp/porcupine-canary.out
	grep -E 'BenchmarkParallelPlanRun.* 0 B/op.* 0 allocs/op' /tmp/porcupine-canary.out
	grep -E 'BenchmarkMuxedPlanRun.* 0 B/op.* 0 allocs/op' /tmp/porcupine-canary.out
	$(GO) test -run '^$$' -bench '^(BenchmarkEncryptVec|BenchmarkDecryptVec|BenchmarkWireRoundTrip)$$' -benchtime 1x -benchmem . | tee /tmp/porcupine-canary-client.out
	awk '/^Benchmark(Encrypt|Decrypt)Vec\// { n++; if ($$(NF-1) > 8) bad = 1 } END { exit bad || n != 4 }' /tmp/porcupine-canary-client.out
	awk '/^BenchmarkWireRoundTrip/ { n++; for (i = 2; i < NF; i++) v[$$(i+1)] = $$i; if (v["B/op"] > 1.5 * (v["req-B"] + v["resp-B"])) bad = 1 } END { exit bad || n != 1 }' /tmp/porcupine-canary-client.out
