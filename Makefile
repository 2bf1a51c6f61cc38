GO ?= go

.PHONY: build test check bench bench-compare figures soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: static analysis, race-enabled tests on the
# determinism-sensitive packages (including the fault-injection layer, the
# link/host paths it perturbs, the congestion-control feedback consumers,
# the conservation-audit ledger and the guard plane's cross-shard quiescent
# reads), a one-shot benchmark smoke run, the telemetry-overhead proof
# (disabled-path hot loops must stay at 0 allocs/op), the digest invariants
# (golden digests identical with telemetry, with an empty/vacuous fault
# plan, with a vacuous feedback-fault plan, with the audit ledger attached —
# that one also asserting zero conservation violations — and with the guard
# plane armed but untriggered), the shard digest-equality property (sharded
# runs byte-identical to single-engine — including with every telemetry
# plane active, via TestShardDigestTelemetry, for closed-loop scenario
# plans, via TestShardDigestScenario, and for active node-fault plans, via
# TestShardDigestNodeFaults — and merged shard ledgers closing clean), the
# observability-server invariant (digest untouched with the live HTTP
# server attached and publishing), the chaos smoke tier (8 seeded random
# fault plans, each run single-engine and sharded with digest equality,
# clean conservation books and counter invariants gating every cell;
# failures print the exact seed and plan JSON), a 2-plan soak smoke across
# the full algorithm × topology matrix so the generated node-fault groups
# get end-to-end exercise pre-merge, and a short fuzz budget on each native
# fuzz target so the committed corpora keep being exercised beyond
# plain-seed replay. The race line carries an explicit -timeout: the exp
# digest sweeps take ~10 min under the race detector, right at go test's
# default 600s per-binary limit, so the default would flake on loaded
# machines. bench/ is a module of its own (mlcc/bench), which the root
# `./...` patterns do not descend into, so its vet and 1/64-scale smoke test
# get a line of their own.
check: build
	$(GO) vet ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race -timeout 1800s ./internal/sim/... ./internal/exp/... ./internal/metrics/... ./internal/obs/... ./internal/fault/... ./internal/guard/... ./internal/link/... ./internal/host/... ./internal/audit/... ./internal/cc/... ./internal/chaos/... ./internal/scenario/... ./internal/stats/...
	$(GO) test -run '^$$' -bench 'BenchmarkFig02' -benchtime=1x .
	$(GO) test -run 'TestTelemetryDisabledPathAllocFree' -count=1 .
	$(GO) test -run 'TestDigestTelemetryInvariant' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestDigestFaultPlan' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestDigestFeedbackPlan' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestDigestAuditInvariant' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestDigestGuardInvariant' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestShardDigest' -short -count=1 ./internal/exp/
	$(GO) test -run 'TestDigestObsInvariant' -short -count=1 ./internal/obs/
	$(GO) test -run 'TestChaosSmoke' -count=1 -timeout 600s ./internal/chaos/
	MLCC_SOAK=1 MLCC_SOAK_PLANS=2 $(GO) test -run 'TestChaosSoak' -count=1 -timeout 1200s ./internal/chaos/
	$(GO) test -fuzz 'FuzzEngineSchedule' -fuzztime=10s -run '^$$' ./internal/sim/
	$(GO) test -fuzz 'FuzzFaultPlanJSON' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzNodeFaultPlan' -fuzztime=10s -run '^$$' ./internal/fault/
	$(GO) test -fuzz 'FuzzScenarioPlan' -fuzztime=10s -run '^$$' ./internal/scenario/
	$(GO) test -fuzz 'FuzzChaosPlan' -fuzztime=10s -run '^$$' ./internal/chaos/
	$(GO) test -fuzz 'FuzzINTFeedback' -fuzztime=10s -run '^$$' ./internal/cc/
	$(GO) test -fuzz 'FuzzCDF' -fuzztime=10s -run '^$$' ./internal/workload/
	$(GO) test -fuzz 'FuzzTracefile' -fuzztime=10s -run '^$$' ./internal/workload/

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

figures:
	$(GO) run ./cmd/mlccfig -fig all
