GO ?= go

.PHONY: all build vet lint test hlbench-check loc race race-pkgs race-root bench bench-route fuzz golden wire-compat check serve smoke chaos chaos-short cluster-smoke session-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Every Go file in the tree, hlbench
# included, must be gofmt-clean; .bench_build/ holds hlbench's build
# cache, not source. staticcheck is optional locally (CI installs it);
# when absent the target degrades to a notice instead of failing.
STATICCHECK ?= staticcheck
lint: vet
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# hlbench (BENCHMARK.json's harness) is its own module over this one, so
# `go test ./...` never compiles it: vet and test it against the tree,
# so a change to an API it uses fails here and not first in a benchmark
# run.
hlbench-check:
	cd hlbench && $(GO) vet ./... && $(GO) test ./...

# The line counts the ROADMAP's net state quotes: non-test and test Go
# lines outside hlbench, then every Go line in hlbench. find, not
# git ls-files, so uncommitted deletions count.
loc:
	@echo "non-test Go lines outside hlbench: $$(find . -path ./hlbench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines outside hlbench:     $$(find . -path ./hlbench -prune -o -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "Go lines in hlbench:               $$(find hlbench -name '*.go' | xargs cat | wc -l)"

# The full suite under the race detector: the CompileAll worker pool,
# the shared metrics registry, and every package that touches them.
# race-pkgs runs every package but the root one, the chaos, cluster and
# session soaks among them. race-root then runs the root package on its
# own: it needs ~5 CPU-minutes under -race, and its go test run takes
# 175–245 s of the 10-minute default timeout on a 2-vCPU host, whose
# speed drifts.
race: race-pkgs race-root

race-pkgs:
	$(GO) test -race $$($(GO) list ./... | grep -vx "$$($(GO) list .)")

race-root:
	$(GO) test -race .

# Hot-path microbenchmarks, for local profiling. BENCH_route.json is a
# frozen snapshot of them that no tool reads; hlbench (BENCHMARK.json) is
# the benchmark. BenchmarkRouteCircuit and BenchmarkFinderFind report
# 0 allocs/op in steady state, which go test asserts through
# TestRouteCircuitZeroAllocs and TestFinderFindZeroAllocs.
# BenchmarkFinderFind's congested cases and BenchmarkComponentsCompute
# time the A* expansion and the free-component labeling on a seeded,
# half-occupied lattice.
# BenchmarkJSONResponse times the render of the JSON responses that carry
# a schedule: compile responses, envelope transcodes and a done poll.
# BenchmarkParse and BenchmarkFingerprint time the request edge's two
# passes over a circuit, the parse of a qasm body and its cache key.
# BenchmarkPlacementMethods times Proximity, GM and Pattern on QFT-100,
# Ising-1000, CC-300, Shor-471 and a 4,096-qubit star of four CX, with
# allocations.
# BenchmarkColdCompile times a cold hilight.Compile of urf5_158, QFT-200
# and Shor-471 under hilight and hilight-map; its B/op is what
# TestColdCompileAllocationBudget bounds.
bench-route:
	$(GO) test -bench 'BenchmarkFinderFind|BenchmarkComponentsCompute|BenchmarkOccupancy' -benchmem -benchtime 1000x ./internal/route/
	$(GO) test -bench 'BenchmarkRouteCircuit|BenchmarkCompileQFT' -benchmem -benchtime 5x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkWire -benchmem -benchtime 200x .
	$(GO) test -run '^$$' -bench BenchmarkJSONResponse -benchmem -benchtime 20x ./internal/service/
	$(GO) test -run '^$$' -bench BenchmarkParse -benchmem -benchtime 20x ./internal/qasm/
	$(GO) test -run '^$$' -bench BenchmarkFingerprint -benchmem -benchtime 20x .
	$(GO) test -run '^$$' -bench BenchmarkPlacementMethods -benchmem -benchtime 5x .
	$(GO) test -run '^$$' -bench BenchmarkColdCompile -benchmem -benchtime 5x .

# Everything, including the paper-artifact benchmarks (slow).
bench:
	$(GO) test -bench . -benchmem ./...

# Fuzz the hostile-input surfaces: the QASM parser, the schedule JSON
# decoder, the binary wire decoders, session deltas and the request edge
# every node and coordinator runs before admission; and the compiler
# itself, every method over random circuits on random defect maps.
# FUZZTIME=20s per target by default; raise it for deeper runs.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/qasm/
	$(GO) test -run '^$$' -fuzz FuzzDecodeJSON -fuzztime $(FUZZTIME) ./internal/sched/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWire -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDelta -fuzztime $(FUZZTIME) ./internal/session/
	$(GO) test -run '^$$' -fuzz FuzzDigestCompile -fuzztime $(FUZZTIME) ./internal/service/

# Refresh the behavior-preservation goldens after an *intentional* schedule
# change (testdata/golden_schedules.json).
golden:
	$(GO) test -run TestGoldenSchedules -update .

# Wire-format compatibility tests, for a focused run (`make test` runs
# them too): every checked-in testdata/golden_wire fixture must decode
# and re-encode byte-identically — the v1 freeze. Refresh with
# `go test -run TestGoldenWire -update .` only alongside a format version
# bump.
wire-compat:
	$(GO) test -run 'TestGoldenWire|TestBinaryRoundTrip|TestStreamRoundTrip' -v . ./internal/wire/

# Run the compile service locally (POST /v1/compile, /v1/jobs; see
# `hilightd -h` for flags). SERVE_ADDR=:9000 picks a different port.
SERVE_ADDR ?= :8753
serve:
	$(GO) run ./cmd/hilightd -addr $(SERVE_ADDR)

# The daemon end-to-end smoke: boots hilightd on an ephemeral port,
# compiles over HTTP (asserting a cache hit via /metrics), forces a 429
# off a full queue, and SIGTERMs the daemon mid-compile to check drain.
smoke:
	$(GO) test -run 'TestE2E' -v ./cmd/hilightd/

# Bounded chaos soak (~30s under -race): ≥20 daemon lives over one shared
# journal with a fixed fault schedule — kill -9 crashes mid-batch, journal
# resurrection, injected pass panics, watchdog stalls, client disconnects
# and slow-loris bodies — asserting no acked job is lost or duplicated,
# results stay byte-deterministic, metrics reconcile, nothing leaks.
chaos-short:
	$(GO) test -race -run TestChaosShort -v ./internal/chaos/

# Multi-node soak under -race: one coordinator over three in-process
# workers, a worker killed mid-batch — no acked job may be lost, the
# coordinator must stop routing to the dead worker within a probe
# interval or two, and repeated fingerprints must hit the sharded caches
# at least as often as a single node. Plus the cluster unit/integration
# tests (ring, steal queue, byte-identity, passthrough).
cluster-smoke:
	$(GO) test -race -run TestClusterSoak -v ./internal/chaos/
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run TestE2ECoordinator -v ./cmd/hilightd/

# Session-engine soak under -race: daemon lives over one shared journal
# driving incremental recompiles (If-Fingerprint-Match) interleaved with
# live defect feeds and kill -9 crashes — every recompiled schedule must
# validate and route around the current defects, and no acked session
# head may be lost across a restart. Plus the session unit/equivalence
# tests and the service/cluster session round-trips.
session-smoke:
	$(GO) test -race -run TestSessionChurn -v ./internal/chaos/
	$(GO) test -race ./internal/session/
	$(GO) test -race -run 'TestSession|TestDefectFeed' ./internal/service/
	$(GO) test -race -run TestClusterSessionAffinity ./internal/cluster/

# Longer randomized soak via the CLI driver; tune with CHAOS_CYCLES/CHAOS_SEED.
CHAOS_CYCLES ?= 50
CHAOS_SEED ?= 1
chaos:
	$(GO) run ./cmd/chaos -cycles $(CHAOS_CYCLES) -seed $(CHAOS_SEED)

check: build vet test
