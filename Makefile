GO ?= go

.PHONY: build test check check-fast check-race check-fuzz check-soak loc bench bench-compare bench-record bench-gate figures soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: all four tiers below.
check: check-fast check-race check-fuzz check-soak

# check-fast (<2 min): vet, all tests (digest, shard and report-golden pins included), bench/ vet+smoke (its own module), 0-alloc proofs (idle and busy wire), Fig. 2 once.
check-fast: build
	$(GO) vet ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run 'TestTelemetryDisabledPathAllocFree|TestLinkBusyAllocFree' -count=1 . ./internal/link/
	$(GO) test -run '^$$' -bench 'BenchmarkFig02' -benchtime=1x .

# check-race: the determinism-sensitive packages under the race detector (exp's digest sweeps need ~10 min, hence -timeout).
check-race:
	$(GO) test -race -timeout 1800s ./internal/sim/... ./internal/exp/... ./internal/metrics/... ./internal/obs/... ./internal/fault/... ./internal/guard/... ./internal/link/... ./internal/host/... ./internal/audit/... ./internal/cc/... ./internal/chaos/... ./internal/scenario/... ./internal/stats/... ./internal/topo/...

# check-fuzz: 10 s per native fuzz target, so the committed corpora are exercised beyond plain-seed replay.
check-fuzz:
	$(GO) test -fuzz 'FuzzEngineSchedule' -fuzztime=10s -run '^$$' ./internal/sim/
	$(GO) test -fuzz 'FuzzFaultPlanJSON' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzNodeFaultPlan' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzScenarioPlan' -fuzztime=10s -run '^$$' ./internal/scenario/
	$(GO) test -fuzz 'FuzzChaosPlan' -fuzztime=10s -run '^$$' ./internal/chaos/
	$(GO) test -fuzz 'FuzzINTFeedback' -fuzztime=10s -run '^$$' ./internal/cc/
	$(GO) test -fuzz 'FuzzCDF' -fuzztime=10s -run '^$$' ./internal/workload/
	$(GO) test -fuzz 'FuzzTracefile' -fuzztime=10s -run '^$$' ./internal/workload/

# check-soak: 2 generated fault plans per algorithm × topology cell at shards 1 and 2; failures print seed and plan JSON.
check-soak:
	MLCC_SOAK=1 MLCC_SOAK_PLANS=2 $(GO) test -run 'TestChaosSoak' -count=1 -timeout 1200s ./internal/chaos/

# loc prints the non-test Go line count outside bench/, the unit of ROADMAP item 2's line target.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# soak runs the full chaos matrix: every algorithm × both topologies × N
# generated fault plans (default 20; override with MLCC_SOAK_PLANS), each
# cell executed at shards=1 and shards=2 and held to the same invariants as
# the smoke tier. Failures are self-reproducing: the harness prints the
# cell's algorithm, topology and seed plus the generated plan's JSON.
soak:
	MLCC_SOAK=1 MLCC_SOAK_PLANS=$${MLCC_SOAK_PLANS:-20} $(GO) test -run 'TestChaosSoak' -count=1 -timeout 7200s -v ./internal/chaos/

# bench runs the BENCHMARK.json harness: all five workloads, timed and traced,
# every metric by name; the result set lands in .bench_build/last_run.json.
# Pass harness flags through ARGS, e.g. make bench ARGS='-workload elephants
# -trace 0 -out a.json'. bench-compare judges result set B against A and the
# bounds: make bench-compare A=a.json B=b.json.
bench:
	bash bench/run.sh $(ARGS)

bench-compare:
	bash bench/run.sh -compare $(A) $(B)

# bench-record N=<pr> commits a point of the trajectory: all five workloads, seed 1, tracing off, into BENCH_<pr>.json.
bench-record:
	rm -f BENCH_$(N).json
	bash bench/run.sh -trace 0 -out BENCH_$(N).json

# bench-gate judges the last `make bench` run against the newest committed point. Not part of check: timings on a shared sandbox need interleaved pairs; what one run resolves are the exact-repeat metrics (alloc_mb_per_lap, live_heap_mb, model.digest, sim.events).
bench-gate:
	bash bench/run.sh -compare $$(ls -v BENCH_*.json | tail -1) .bench_build/last_run.json

figures:
	$(GO) run ./cmd/mlccfig -fig all
