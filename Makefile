# Correctness gate for the safe-region monitoring framework.
# `make check` is what CI runs; every target also works standalone.

GO ?= go

.PHONY: check build vet fmt lint lint-ipa lint-baseline test bench-check race debug fuzz-smoke obs-smoke docs bench-json load-smoke

check: build vet fmt lint lint-ipa test bench-check race debug fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific static analysis (internal/analysis): the syntactic checks
# (floatcmp, lockreentry, sliceescape, bareGoroutine) plus the flow-sensitive
# v2 suite (lockorder, errdrop, ctxdeadline, distunits), the interprocedural
# v3 suite (maporder, wallclock, allochot, rwpurity) and the v4 contract
# suite (chanlife, goroleak, protodrift, atomicmix). Fails on any
# unsuppressed finding; known hot-path allocation sites are accepted through
# lint/allochot.baseline.
lint:
	$(GO) run ./cmd/srb-lint -baseline lint/allochot.baseline ./...

# Only the interprocedural and contract suites: fails on any
# maporder/wallclock/rwpurity finding, on allochot sites not in the
# checked-in baseline (the allocation ratchet), and on any
# chanlife/goroleak/protodrift/atomicmix concurrency- or wire-contract
# violation.
lint-ipa:
	$(GO) run ./cmd/srb-lint -checks maporder,wallclock,allochot,rwpurity,chanlife,goroleak,protodrift,atomicmix -baseline lint/allochot.baseline ./...

# Regenerate the accepted hot-path allocation inventory after intentional
# changes; the output is deterministic, so the diff shows exactly the sites
# added or removed.
lint-baseline:
	$(GO) run ./cmd/srb-lint -checks allochot -write-baseline lint/allochot.baseline ./...

test:
	$(GO) test ./...

# The benchmark (bench/, BENCHMARK.json) is a module of its own, so `go
# build ./...` and `go test ./...` never compile it; this keeps bench/sut.go
# building against the APIs it drives, and its own tests passing.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

race:
	$(GO) test -race ./...

# Self-checking build: every mutating Monitor operation asserts the full
# invariant suite, the R*-tree's included (srbdebug build tag), across every
# package's tests, so the differential and metamorphic suites run checked.
debug:
	$(GO) test -tags srbdebug ./...

# End-to-end observability gate: build the real binaries, run a server with
# metrics on, drive a client workload, scrape /metrics and /trace, and fail
# on any missing family or stuck counter.
obs-smoke:
	@mkdir -p bin
	$(GO) build -o bin/srb-server ./cmd/srb-server
	$(GO) build -o bin/srb-client ./cmd/srb-client
	$(GO) run ./cmd/srb-obs-smoke -server bin/srb-server -client bin/srb-client -for 10s

# Documentation gate: METRICS.md must list exactly the metric families the
# code registers, OPERATIONS.md exactly the flags srb-server defines, every
# markdown cross-reference must resolve, and vet stays clean. The three tests
# also run under plain `make test`; this target is the fast path for the CI
# docs job.
docs:
	$(GO) test -run 'TestMetricsDocMatchesRegistry|TestServerFlagsDocumented|TestDocsLinksResolve' -v .
	$(GO) vet ./...

# Short fuzz runs of the geometry and R*-tree oracles, the kNN search
# reference, the journal replay and snapshot decoders and the lint CFG
# builder; enough to catch regressions without holding up the gate.
fuzz-smoke:
	$(GO) test -fuzz=FuzzIrlpCircle$$ -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpCircleComplement -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpRing -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=10s ./internal/rtree/
	$(GO) test -fuzz=FuzzReplayJournal -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzLoadSnapshot -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzKNNSearch -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzCFG -fuzztime=10s ./internal/analysis/
	$(GO) test -fuzz=FuzzProtoDriftExtract -fuzztime=10s ./internal/analysis/

# Machine-readable update-path benchmark snapshot plus regression gate: the
# sequential and batch update benchmarks (nil-sink and fully instrumented)
# with -benchmem, parsed into BENCH_PR10.json and compared against the
# committed BENCH_PR9.json baseline. The gate fails on a >15% ns/op or
# allocs/op regression in either nil-sink update benchmark; the Instrumented
# variants (observability-overhead accounting in EXPERIMENTS.md) are recorded
# but not gated. Benchmark wall time is machine-dependent; the committed
# baseline is refreshed alongside any intentional update-path change.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkUpdateSequential(Instrumented)?$$|BenchmarkUpdateBatch(Instrumented)?$$' -benchmem . | \
		$(GO) run ./cmd/srb-benchjson -out BENCH_PR10.json \
		-baseline BENCH_PR9.json -gate UpdateSequential,UpdateBatch -max-regress 0.15

# Capacity smoke: build the real server and the open-loop load harness, ramp
# a small session fleet against a spawned server, SIGKILL it mid-run for the
# RTO drill (recovery replays the journal), and validate the emitted
# LOAD_PR10.json (schema srb-load/v2, non-zero latency quantiles, monotone
# ramp, finite recovery timeline, and a worst-tail ack
# whose causal trace ID resolves to a complete update→grant chain in the
# server's flight recorder). The SLO is generous because CI boxes are slow
# and shared; production capacity runs use `bin/srb-load -slo 50ms
# -stage-dur 60s` directly (see OPERATIONS.md "Capacity testing").
load-smoke:
	@mkdir -p bin
	$(GO) build -o bin/srb-server ./cmd/srb-server
	$(GO) build -o bin/srb-load ./cmd/srb-load
	./bin/srb-load -server-bin bin/srb-server -sessions 16 -stages 1,2 \
		-stage-dur 3s -slo 500ms -rto -rto-timeout 30s -seed 1 \
		-out LOAD_PR10.json
