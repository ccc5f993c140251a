# Correctness gate for the safe-region monitoring framework.
# `make check` runs every target CI's check, lint-ipa, race and bench-counts
# jobs run; CI's load-smoke and docs jobs run the other two.
# Every target also works standalone.

GO ?= go

.PHONY: check build vet fmt lint lint-ipa lint-baseline test bench-check race debug fuzz-smoke docs bench-counts load-smoke repro

check: build vet fmt lint lint-ipa test bench-check bench-counts race debug fuzz-smoke

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
# (floatcmp, lockreentry, sliceescape, bareGoroutine, missingdoc) plus the
# flow-sensitive v2 suite (lockorder, errdrop, ctxdeadline, distunits), the
# interprocedural v3 suite (maporder, wallclock, allochot) and the v4
# contract suite (chanlife, goroleak, protodrift, atomicmix). Fails on any
# unsuppressed finding; known hot-path allocation sites are accepted through
# lint/allochot.baseline.
lint:
	$(GO) run ./cmd/srb-lint -baseline lint/allochot.baseline ./...

# Only the interprocedural and contract suites: fails on any
# maporder/wallclock finding, on allochot sites not in the
# checked-in baseline (the allocation ratchet), and on any
# chanlife/goroleak/protodrift/atomicmix concurrency- or wire-contract
# violation.
lint-ipa:
	$(GO) run ./cmd/srb-lint -checks maporder,wallclock,allochot,chanlife,goroleak,protodrift,atomicmix -baseline lint/allochot.baseline ./...

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

# The five pinned fields of one benchmark result, keyed by its workload ($w).
bench_counts_pick = {($$w): {correct, attempted, failed, \
	comm_cost: .metrics.comm_cost.value, accuracy: .metrics.accuracy.value}}

# Every difference between the pinned counts ($want) and the observed ones
# ($got), one line each.
bench_counts_diff = $$want[0] as $$w | $$got[0] as $$g | \
	($$g | keys_unsorted[]) as $$k | \
	if ($$w | has($$k) | not) then "\($$k): missing from BENCH_COUNTS.json" \
	else ($$g[$$k] | keys_unsorted[]) as $$f | select($$w[$$k][$$f] != $$g[$$k][$$f]) | \
		"\($$k) \($$f): expected \($$w[$$k][$$f] | tojson), got \($$g[$$k][$$f] | tojson)" end

# Exact gate on the paper's yardstick. For every workload BENCHMARK.json names,
# one seed-1, --seconds 1 run of the benchmark must reproduce its entry in
# BENCH_COUNTS.json: correct, attempted, failed, comm_cost and accuracy,
# compared as parsed numbers with no tolerance. These repeat bit for bit for a
# seed; allocs_per_update and the wall clocks do not, and are left to A/B runs.
# The observed values go to bin/bench-counts.json, the runs' own reports to
# bin/bench-counts.log. A change that moves region values or probe decisions on
# purpose copies bin/bench-counts.json over BENCH_COUNTS.json and says why.
bench-counts:
	@mkdir -p bin
	@: > bin/bench-counts.log; got='{}'; \
	for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		got=$$($(GO) -C bench run . --workload $$w --seed 1 --seconds 1 2>>bin/bench-counts.log | tail -n 1 | \
			jq -cn --arg w $$w --argjson acc "$$got" '$$acc + (input | $(bench_counts_pick))') || \
			{ echo "bench-counts: $$w printed no result; see bin/bench-counts.log"; exit 1; }; \
	done; \
	printf '%s\n' "$$got" | jq . > bin/bench-counts.json; \
	diff=$$(jq -nr --slurpfile want BENCH_COUNTS.json --slurpfile got bin/bench-counts.json '$(bench_counts_diff)') || exit 1; \
	if [ -n "$$diff" ]; then \
		echo "$$diff"; echo "bench-counts: observed values are in bin/bench-counts.json"; exit 1; \
	fi; \
	echo "bench-counts: every workload matches BENCH_COUNTS.json"

race:
	$(GO) test -race ./...

# Self-checking build: every mutating Monitor operation asserts the full
# invariant suite, the R*-tree's included (srbdebug build tag), across every
# package's tests, so the differential and metamorphic suites run checked.
debug:
	$(GO) test -tags srbdebug ./...

# Documentation gate: METRICS.md must list exactly the metric families the
# code registers, OPERATIONS.md exactly the flags srb-server defines, every
# markdown cross-reference must resolve, every `make` target CI and README.md
# run must exist (and every target be .PHONY), BENCH_COUNTS.json must pin every
# benchmark workload, load.ServerFamilies must list exactly METRICS.md's
# server families, EXPERIMENTS.md's tagged blocks must print REPRO_DEFAULT.json,
# Table 7.1 and Fig 7.1(b)'s τ = 0 row must recompute bit for bit (~7 s), every
# `srb-sim -exp` id and Benchmark name a document cites must exist, every fuzz
# target must be run by fuzz-smoke, and vet stays clean. The ten tests also run
# under plain `make test`; this target is the fast path for the CI docs job.
docs:
	$(GO) test -run 'TestMetricsDocMatchesRegistry|TestServerFlagsDocumented|TestDocsLinksResolve|TestCIMakeTargetsExist|TestBenchCountsCoverWorkloads|TestLoadRequiresEveryServerFamily|TestExperimentsDocMatchesRecord|TestReproRecordSlice|TestDocCommandsExist|TestFuzzTargetsInSmoke' -v .
	$(GO) vet ./...

# Short fuzz runs of the geometry and R*-tree oracles, the batch safe-region
# construction, the kNN search reference, the journal replay and snapshot
# decoders, the wire and journal codecs against encoding/json, the wire frame
# reader and the lint CFG builder; enough to catch regressions without holding
# up the gate. TestFuzzTargetsInSmoke requires every fuzz target here.
fuzz-smoke:
	$(GO) test -fuzz=FuzzIrlpCircle$$ -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpCircleComplement -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpRing -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=10s ./internal/rtree/
	$(GO) test -fuzz=FuzzBatch -fuzztime=10s ./internal/saferegion/
	$(GO) test -fuzz=FuzzReplayJournal -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzJournalEntryCodec -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzMessageCodec -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzRecv -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzLoadSnapshot -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzKNNSearch -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzCFG -fuzztime=10s ./internal/analysis/
	$(GO) test -fuzz=FuzzProtoDriftExtract -fuzztime=10s ./internal/analysis/

# Capacity smoke, and the one out-of-process drill: build the real server and
# the open-loop load harness, ramp a small session fleet against a spawned
# server, SIGKILL it mid-run (recovery replays the journal), and validate the
# emitted bin/load-smoke.json (schema srb-load/v3): non-zero latency
# quantiles, a monotone ramp, a finite recovery timeline, and the server's
# admin evidence. At the end of the ramp the update, reevaluation and journal
# counters moved, /queries attributed work to a hot query, and the worst-tail
# ack's causal trace ID resolves to a complete update→grant chain in
# /debug/flightrec. After the drill the recovered server moved its update
# and reevaluation counters, replayed the journal, resumed and re-pushed
# sessions, serves every load.ServerFamilies family with samples, and has a
# non-empty /trace, retired /queries entries, a /stats batch section (both
# lives run the two-worker pipeline) and traced reconnects in
# /debug/flightrec. The SLO
# is generous because CI boxes are slow and shared; production capacity runs
# use `bin/srb-load -slo 50ms -stage-dur 60s` directly (see OPERATIONS.md
# "Capacity testing").
load-smoke:
	@mkdir -p bin
	$(GO) build -o bin/srb-server ./cmd/srb-server
	$(GO) build -o bin/srb-load ./cmd/srb-load
	./bin/srb-load -server-bin bin/srb-server -sessions 16 -stages 1,2 \
		-stage-dur 3s -slo 500ms -rto -rto-timeout 30s -seed 1 \
		-out bin/load-smoke.json

# Regenerate REPRO_DEFAULT.json, the reproduction record EXPERIMENTS.md is
# checked against (TestExperimentsDocMatchesRecord): every srb-sim experiment
# at the default scale, seed 1, as one JSON array. About 10 minutes on a
# 2-vCPU Xeon, so no CI job runs it; TestReproRecordSlice recomputes one row.
# A change that moves region values or probe decisions on purpose runs it and
# rewrites EXPERIMENTS.md's blocks from the new record.
repro:
	@mkdir -p bin
	$(GO) build -o bin/srb-sim ./cmd/srb-sim
	./bin/srb-sim -exp all -json > bin/REPRO_DEFAULT.json
	mv bin/REPRO_DEFAULT.json REPRO_DEFAULT.json
