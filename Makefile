GO ?= go

.PHONY: verify race bench benchdiff cover build test smoke smoke-cluster

# Tier-1 verify: must stay green on every commit.
verify: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 verify: static analysis + the race detector over the parallel
# pipeline (quality matrix, slicer fan-out, tensile replicates).
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Serial-vs-parallel wall time for the quality matrix, the indexed-vs-
# naive slicer kernel comparison, the G-code and part-copy kernels'
# allocs/op, plus the machine-readable
# BENCH_obfuscade.json artifact that the CI bench job diffs against the
# committed BENCH_baseline.json (scripts/benchdiff.go).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQualityMatrix' -benchmem -benchtime 2x .
	$(GO) test -run '^$$' -bench 'BenchmarkSliceKernel|BenchmarkRasterize' -benchmem ./internal/slicer
	$(GO) test -run '^$$' -bench '^Benchmark(Generate|Simulate|ClonePart)$$' -benchmem ./internal/gcode ./internal/core
	$(GO) run ./cmd/paperbench -exp bench -benchout BENCH_obfuscade.json

# Perf-regression gate: fails on >30% parallel-matrix wall-time
# regression or >30% slicer layers/s regression against the committed
# baseline. Re-baseline after an intentional perf change with:
#   make bench && cp BENCH_obfuscade.json BENCH_baseline.json
benchdiff:
	$(GO) run ./scripts -baseline BENCH_baseline.json -current BENCH_obfuscade.json -tolerance 0.30 -slicer-tolerance 0.30

# End-to-end smoke of the job service: boots `obfuscade serve` on a
# random port in a fresh process, submits two identical + one distinct
# job, and asserts exact cache hit/miss counters on /metrics plus a
# graceful SIGTERM drain (scripts/smoke_serve.sh).
smoke:
	./scripts/smoke_serve.sh

# Cluster smoke: a `-route-to` router over two shards in fresh
# processes — key-stable placement via per-shard /metrics, federated
# counter sums, cross-tier request/trace ID matching in the access
# logs, merged-trace parentage, failover after SIGKILLing a shard, and
# 429 + Retry-After shed pass-through (scripts/smoke_cluster.sh). Set
# CLUSTER_TRACE_OUT to keep the merged Chrome trace.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Coverage floor over the observability, tracing, worker-pool, serving,
# sharding and stego packages — the subsystems every parallel stage, the
# routing tier and the sanitize endpoint depend on.
COVER_FLOOR ?= 85
COVER_PKGS = ./internal/obs ./internal/parallel ./internal/trace ./internal/serve ./internal/shard ./internal/stego
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out $(COVER_PKGS)
	@pct=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v pct="$$pct" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (pct + 0 < floor + 0) { printf("cover: FAIL: %.1f%% below floor %s%% ($(COVER_PKGS))\n", pct, floor); exit 1 } \
		printf("cover: OK: %.1f%% >= floor %s%% ($(COVER_PKGS))\n", pct, floor) }'
