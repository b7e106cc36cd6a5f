# Local dev and CI run the identical commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green CI.

GO ?= go

.PHONY: build vet staticcheck lint fmt fmtcheck test perfbench-check cover race fuzz-smoke bench benchsmoke repairmgr-smoke shards-smoke metrics-smoke persist-smoke cache-smoke engine-bench contention-bench serve-bench partialsum-bench repairmgr-bench shards-bench persist-bench cache-bench ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when installed; skipped locally otherwise so
# `make ci` works on a bare toolchain. CI sets STATICCHECK_REQUIRED=1
# (after installing it), which turns a missing binary into a failure
# instead of a skip — the check cannot be silently lost there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$STATICCHECK_REQUIRED" ]; then \
		echo "staticcheck required (STATICCHECK_REQUIRED set) but not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Project-invariant analyzers (internal/analysis, cmd/repolint): lock
# discipline, layering, clock injection, wire-path framing, alloc-free
# kernels. Two gates: the real tree must be clean, and the broken
# fixture tree must trip EVERY analyzer (so none can go silent). The
# binary is cached in bin/ and rebuilt only when its sources change.
REPOLINT := bin/repolint

$(REPOLINT): $(wildcard cmd/repolint/*.go) $(wildcard internal/analysis/*.go) go.mod
	$(GO) build -o $(REPOLINT) ./cmd/repolint

lint: $(REPOLINT)
	$(REPOLINT) -root .
	$(REPOLINT) -root internal/analysis/testdata/fixture -expect-all

# fmt rewrites; fmtcheck is the CI gate.
fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# perfbench/ is its own module (replace repro => ../), so the root
# build and test never compile it; this target does, so a change to the
# serve API cannot silently break the benchmark.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

# Per-package coverage: the `ok <pkg> coverage: NN%` lines are the CI
# job summary; coverage.out feeds go tool cover for local drill-down.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1

# Race detector over the whole module, then extra repeats where the
# concurrency lives: the serving layer and the repair control plane run
# twice more (-count=2) because their tests synchronize on progress
# (fake clocks, status polling), not wall-clock sleeps, and repeating
# them back-to-back is the regression gate for that flakiness class.
# The sharded-metadata property tests and the concurrency storms
# (single and 4-shard planes, cross-shard writes) also repeat.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/serve/... ./internal/repairmgr/...
	$(GO) test -race -count=2 -run 'TestShard|TestConcurrent' ./internal/hdfs/

# A few seconds of native Go fuzzing per codec: random data, random
# erasure patterns up to each code's tolerance, decode must round-trip
# byte-identical. Seed corpora live in testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/rs/
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/core/
	$(GO) test -run=FuzzRoundTrip -fuzz=FuzzRoundTrip -fuzztime=3s ./internal/lrc/

# Full benchmark run (regenerates the paper's numbers as metrics).
bench:
	$(GO) test -run=NoTests -bench=. ./...

# One-iteration pass over every benchmark so bench code cannot rot,
# plus a 2-second loadgen run on a tiny live TCP cluster so the serving
# layer's end-to-end path (kill mid-run included) cannot rot either.
benchsmoke: repairmgr-smoke shards-smoke metrics-smoke persist-smoke cache-smoke
	$(GO) test -run=NoTests -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/loadgen -k 4 -r 2 -clients 2 -duration 2s -files 3 -filesize 32768 -blocksize 8192 -out none

# Short live-cluster control-plane run: a datanode holding working-set
# data is killed and the repair manager must bring the cluster back to
# full health autonomously (the command exits non-zero if it does not,
# or if a restart inside the grace window moves any repair bytes).
repairmgr-smoke:
	$(GO) run ./cmd/loadgen -repairmgr -codecs rs -k 4 -r 2 -clients 2 -duration 1500ms -files 3 -filesize 32768 -blocksize 8192 -out none

# End-to-end telemetry check: an instrumented live cluster (debug HTTP
# listeners on) runs a kill / degraded-read / autonomous-repair cycle
# while /metrics is scraped twice; the command exits non-zero if any
# required instrument is missing, the cycle's counters did not move, or
# a counter went backwards between scrapes.
metrics-smoke:
	$(GO) run ./cmd/loadgen -metricssmoke -codecs rs -k 4 -r 2

# Short sharded-metadata run: the Zipf many-files workload at 1 and 4
# shards; the command exits non-zero on any op error or if 4-shard
# metadata throughput drops below 1-shard (the monotonic-scaling gate).
shards-smoke:
	$(GO) run ./cmd/loadgen -shardbench -shards 1,4 -duration 2s -out none

# Short cache/hedge run: the Zipf read workload with the hottest
# machine throttled (slow, not dead), one codec, hedging off then on;
# the command exits non-zero on any client-visible error, a client
# cache hit ratio under 50%, a run where the slow node never triggered
# a hedge (or reconstruction never won one), or a hedged p99 that did
# not beat the unhedged run.
cache-smoke:
	$(GO) run ./cmd/loadgen -cachebench -codecs rs -duration 2s -out none

# Short persistence run: appends under all three fsync policies and
# recovery scans at two store sizes; the command exits non-zero unless
# every reopen rebuilds the full block index from the segment files
# with zero CRC failures.
persist-smoke:
	$(GO) run ./cmd/loadgen -persistbench -blocksize 8192 -persist-appends 128 -persist-scan 64,256 -out none

# Regenerate BENCH_engine.json (batch repair throughput, serial vs
# engine-parallel).
engine-bench:
	$(GO) run ./cmd/repaircost -engine

# Regenerate BENCH_contention.json (RS vs Piggybacked-RS p50/p99 repair
# latency on the contended fabric). Deterministic for a fixed -seed.
contention-bench:
	$(GO) run ./cmd/repaircost -contention

# Regenerate BENCH_serve.json (client-visible latency/throughput and
# degraded-read share from a live TCP cluster with a mid-run kill).
serve-bench:
	$(GO) run ./cmd/loadgen

# Regenerate BENCH_partialsum.json (conventional vs partial-sum
# degraded reads per codec: bytes received at the reconstructing
# client, ~k blocks vs ~1).
partialsum-bench:
	$(GO) run ./cmd/loadgen -partialbench

# Regenerate BENCH_repairmgr.json (autonomous repair control plane:
# time-to-full-health, grace-window savings, throttled vs unthrottled
# foreground p99, 24-day trace replay).
repairmgr-bench:
	$(GO) run ./cmd/loadgen -repairmgr

# Regenerate BENCH_shards.json (metadata ops/sec and lock-wait per op
# across shard counts on the Zipf many-files workload).
shards-bench:
	$(GO) run ./cmd/loadgen -shardbench

# Regenerate BENCH_persist.json (extent-store append throughput per
# fsync policy and recovery-scan time per store size).
persist-bench:
	$(GO) run ./cmd/loadgen -persistbench

# Regenerate BENCH_cache.json (cache hit ratios and the hedged-read
# p99/p99.9 cut under a Zipf workload with a throttled hot machine).
cache-bench:
	$(GO) run ./cmd/loadgen -cachebench

ci: build vet staticcheck lint fmtcheck test perfbench-check race benchsmoke fuzz-smoke
