GO ?= go

.PHONY: build test check check-fast check-race check-fuzz loc bench bench-compare bench-record bench-gate bench-exact figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: all three tiers below.
check: check-fast check-race check-fuzz

# LOC_CEILING is the prune ratchet: check-fast fails when `make loc` exceeds it. A PR that removes lines lowers it to its own result; one that must raise it says why in CHANGES.md.
LOC_CEILING := 15021

# check-fast (<2.5 min): gofmt, vet, the line ceiling, all tests (digest, shard and report-golden pins included), bench/ vet+smoke (its own module), 0-alloc proofs (idle and busy wire), Fig. 2 once, the exact-repeat bench gate.
check-fast: build
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	@loc=$$($(MAKE) -s loc); echo "make loc: $$loc (ceiling $(LOC_CEILING))"; test $$loc -le $(LOC_CEILING)
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run 'TestTelemetryDisabledPathAllocFree|TestLinkBusyAllocFree' -count=1 . ./internal/link/
	$(GO) test -run '^$$' -bench 'BenchmarkFig02' -benchtime=1x .
	$(MAKE) bench-exact

# check-race: the root package, cmd/ and every internal package under the race detector (exp's digest sweeps and shard-sensitive report goldens need ~15 min, hence -timeout).
check-race:
	$(GO) test -race -timeout 1800s . ./cmd/... ./internal/...

# check-fuzz: 10 s per native fuzz target, so the committed corpora are exercised beyond plain-seed replay.
check-fuzz:
	$(GO) test -fuzz 'FuzzEngineSchedule' -fuzztime=10s -run '^$$' ./internal/sim/
	$(GO) test -fuzz 'FuzzQueue' -fuzztime=10s -run '^$$' ./internal/pkt/
	$(GO) test -fuzz 'FuzzFaultPlanJSON' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzNodeFaultPlan' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzScenarioPlan' -fuzztime=10s -run '^$$' ./internal/scenario/
	$(GO) test -fuzz 'FuzzGeneratePlan' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzRunConfig' -fuzztime=10s -run '^$$' ./internal/exp/
	$(GO) test -fuzz 'FuzzTwoDCRoutes' -fuzztime=10s -run '^$$' ./internal/topo/
	$(GO) test -fuzz 'FuzzINTFeedback' -fuzztime=10s -run '^$$' ./internal/cc/
	$(GO) test -fuzz 'FuzzCDF' -fuzztime=10s -run '^$$' ./internal/workload/
	$(GO) test -fuzz 'FuzzTracefile' -fuzztime=10s -run '^$$' ./internal/workload/
	$(GO) test -fuzz 'FuzzSortFlows' -fuzztime=10s -run '^$$' ./internal/workload/
	$(GO) test -fuzz 'FuzzConfigJSON' -fuzztime=10s -run '^$$' .

# loc prints the non-test Go line count outside bench/, the unit of LOC_CEILING.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# bench runs the BENCHMARK.json harness: all five workloads, timed and traced,
# every metric by name; the result set lands in .bench_build/last_run.json.
# Pass harness flags through ARGS, e.g. make bench ARGS='-workload elephants
# -trace 0 -out a.json'. bench-compare judges result set B against A and the
# bounds: make bench-compare A=a.json B=b.json.
bench:
	bash bench/run.sh $(ARGS)

bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# WORKLOADS is BENCHMARK.json's workload list. bench-record and bench-exact run one workload per process: live_heap_mb under -workload all includes the previous workload's last network.
WORKLOADS := $(shell sed -n '/"workloads"/,/\]/s/.*"name": "\(.*\)",/\1/p' BENCHMARK.json)

# bench-record N=<pr> commits a point of the trajectory: all five workloads, seed 1, tracing off, into BENCH_<pr>.json. The harness stamps the revision it was built from; a tree with uncommitted changes is recorded as <revision>+dirty.
bench-record:
	rm -f BENCH_$(N).json
	dirty=$$(git status --porcelain -- . ':!BENCH_*.json'); \
	for w in $(WORKLOADS); do bash bench/run.sh -trace 0 -workload $$w -out BENCH_$(N).json || exit 1; done; \
	if [ -n "$$dirty" ]; then sed -i 's/"commit": "\([0-9a-f]*\)"/"commit": "\1+dirty"/' BENCH_$(N).json; fi

# bench-exact (≈ 25 s) is the exact-repeat gate: three laps per workload, then TestBenchExact holds alloc_mb_per_lap and live_heap_mb (±1 %) and model.digest and sim.events (exact) against the newest BENCH_*.json. Timings are not judged here; they need the interleaved pairs of bench-compare.
bench-exact:
	rm -f .bench_build/exact.json
	for w in $(WORKLOADS); do bash bench/run.sh -trace 0 -laps 3 -workload $$w -out .bench_build/exact.json >/dev/null || exit 1; done
	MLCC_BENCH_BASE=$$(ls -v BENCH_*.json | tail -1) MLCC_BENCH_EXACT=.bench_build/exact.json $(GO) test -run 'TestBenchExact' -count=1 -v .

# bench-gate judges the last `make bench` run against the newest committed point, timings included. Not part of check: timings on a shared sandbox need interleaved pairs; the exact-repeat metrics are gated by bench-exact.
bench-gate:
	bash bench/run.sh -compare $$(ls -v BENCH_*.json | tail -1) .bench_build/last_run.json

figures:
	$(GO) run ./cmd/mlccfig -fig all
