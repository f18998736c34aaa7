# Correctness gate for the safe-region monitoring framework.
# `make check` is what CI runs; every target also works standalone.

GO ?= go

.PHONY: check build vet fmt lint lint-ipa lint-baseline test race debug fuzz-smoke obs-smoke docs bench-json load-smoke shard-diff

check: build vet fmt lint lint-ipa test race debug fuzz-smoke

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

race:
	$(GO) test -race ./...

# Self-checking build: every mutating Monitor operation asserts the full
# invariant suite (srbdebug build tag).
debug:
	$(GO) test -tags srbdebug ./internal/core/

# End-to-end observability gate: build the real binaries, run a server with
# metrics on, drive a client workload, scrape /metrics and /trace, and fail
# on any missing family or stuck counter.
obs-smoke:
	@mkdir -p bin
	$(GO) build -o bin/srb-server ./cmd/srb-server
	$(GO) build -o bin/srb-client ./cmd/srb-client
	$(GO) run ./cmd/srb-obs-smoke -server bin/srb-server -client bin/srb-client -for 10s

# Documentation gate: METRICS.md must list exactly the metric families the
# code registers, every markdown cross-reference must resolve, and vet stays
# clean. The two tests also run under plain `make test`; this target is the
# fast path for the CI docs job.
docs:
	$(GO) test -run 'TestMetricsDocMatchesRegistry|TestDocsLinksResolve' -v .
	$(GO) vet ./...

# Short fuzz runs of the geometry and R*-tree oracles plus the lint CFG
# builder; enough to catch regressions without holding up the gate.
fuzz-smoke:
	$(GO) test -fuzz=FuzzIrlpCircle$$ -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpCircleComplement -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzIrlpRing -fuzztime=10s ./internal/geom/
	$(GO) test -fuzz=FuzzTreeOps -fuzztime=10s ./internal/rtree/
	$(GO) test -fuzz=FuzzCFG -fuzztime=10s ./internal/analysis/
	$(GO) test -fuzz=FuzzProtoDriftExtract -fuzztime=10s ./internal/analysis/

# Machine-readable benchmark snapshot plus regression gate: the sequential,
# batch (nil-sink and fully instrumented) and 4-shard update benchmarks and
# the three Ir-lp safe-region constructions (Props 5.2/5.4/5.5, the θ search
# that dominates the update path), with -benchmem, parsed into
# BENCH_PR12.json. The gate fails on a >15% ns/op or allocs/op regression:
# UpdateSequential/UpdateBatch against the committed BENCH_PR10.json, and
# IrlpCircle/IrlpCircleComplement/IrlpRing against BENCH_PR11.json, the first
# snapshot with those rows (the PR 11 tree measured on the same box as
# BENCH_PR12.json). The Instrumented variants (observability-overhead
# accounting in EXPERIMENTS.md) and UpdateSharded (sharding-overhead
# tracking) are recorded but not gated. Benchmark wall time is
# machine-dependent; the committed baselines are refreshed alongside any
# intentional change to a gated path.
bench-json:
	@mkdir -p bin
	$(GO) test -run '^$$' -bench 'BenchmarkUpdateSequential(Instrumented)?$$|BenchmarkUpdateBatch(Instrumented)?$$|BenchmarkUpdateSharded$$|BenchmarkIrlp(Circle|CircleComplement|Ring)$$' -benchmem . > bin/bench.txt
	$(GO) run ./cmd/srb-benchjson -out BENCH_PR12.json \
		-baseline BENCH_PR10.json -gate UpdateSequential,UpdateBatch -max-regress 0.15 < bin/bench.txt
	$(GO) run ./cmd/srb-benchjson -out bin/bench-irlp.json \
		-baseline BENCH_PR11.json -gate IrlpCircle,IrlpCircleComplement,IrlpRing -max-regress 0.15 < bin/bench.txt

# Capacity smoke: build the real server and the open-loop load harness, ramp
# a small session fleet against a 4-shard server, SIGKILL it mid-run for the
# RTO drill (recovery replays into the sharded index), and validate the
# emitted LOAD_PR10.json (schema srb-load/v2, non-zero latency
# quantiles, monotone ramp, finite recovery timeline, and a worst-tail ack
# whose causal trace ID resolves to a complete update→grant chain in the
# server's flight recorder). The SLO is generous because CI boxes are slow
# and shared; production capacity runs use `bin/srb-load -slo 50ms
# -stage-dur 60s` directly (see OPERATIONS.md "Capacity testing").
load-smoke:
	@mkdir -p bin
	$(GO) build -o bin/srb-server ./cmd/srb-server
	$(GO) build -o bin/srb-load ./cmd/srb-load
	./bin/srb-load -server-bin bin/srb-server -sessions 16 -stages 1,2 \
		-stage-dur 3s -slo 500ms -rto -rto-timeout 30s -seed 1 -shards 4 \
		-out LOAD_PR10.json

# Sharding differential gate: the sharded monitor must be bit-identical to
# the single-tree monitor — result streams, safe regions, stats, snapshot
# bytes — at 1/2/4/8 shards under several GOMAXPROCS values, across a
# crash-recovery cycle that also rotates the shard count, and under journal
# replay. Runs under -race: the differential doubles as a schedule-dependence
# detector for the forest's channel protocol.
shard-diff:
	$(GO) test -race -run 'TestShardedDifferential|TestShardedJournalRecovery|TestShardedServerEndToEnd|TestSRBShardedStaysBitIdentical' \
		./internal/shard/ ./internal/remote/ ./internal/sim/
