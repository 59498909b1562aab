# Verification tiers for the MBAC reproduction.
#
#   tier-1   — build + full test suite (the driver's gate)
#   tier-1.5 — race detector over every package; concurrency-sensitive
#              packages (gateway, sim) must stay clean under -race
#   stat     — the large columnar ≡ scalar ensemble differential (build tag
#              "stat") under -race. The √2-law ensembles of Prop 3.3 and
#              their perfect-knowledge control are scenarios
#              (sqrt2-law-pq1e-2, sqrt2-law-pq1e-3, pk-control): see the
#              scenario tier
#   bench    — every micro-benchmark, for reading while you work. Nothing
#              gates on their ns/op: the performance gate is the repo
#              benchmark (BENCHMARK.json, benchmark/run.sh), compared in
#              alternating parent/change runs; the allocation budgets
#              that do not drift with the machine are plain tier-1 tests
#   fuzz     — short adversarial-input fuzzing of the estimator, the
#              controller, the wire decoder, scenario configs, the flow
#              table and the simulator's flow queue (checked-in corpora
#              replay in plain `go test`)
#   vet      — go vet. Enum exhaustiveness is not a lint: every enumeration
#              declares its names once in an internal/enum table, and a
#              constant without a name (or a name without a constant) fails
#              the owning package at init, so tier-1 catches it
#   chaos    — fault-injection soaks (build tag "chaos") under -race:
#              estimator NaN/Inf bursts, stalled ticks, leaked clients
#   net      — network serving tier: the client's tier-1 tests (group-
#              committed writes, Close/retire/timeout racing a held flush)
#              five times under -race, then (build tag "net") the loopback
#              end-to-end soak (client -> server -> gateway, open loop,
#              concurrent, graceful drain) under -race
#   cluster  — multi-gateway routing tier: the tier-1 pin storm
#              (AdmitBatch/DepartBatch beside a spinning Tick; no admitted
#              flow may become unroutable), the same-ID storm (every routed
#              op on a few shared IDs beside Tick and Drain/Reactivate), the
#              admission-race test and the pinned-duplicate refusal, five
#              times under -race, then (build tag "cluster") the 4-instance
#              skewed-arrival soak (per-instance sqrt2-law audits) and the
#              concurrent drain/failover soak under -race, each ending with pins equal
#              to the instances' flow tables. The repo benchmark holds the
#              same line end to end: a `cluster-churn` run prints no
#              `KNOWN DEFECT` line
#   adaptive — adaptive measurement tier (build tag "adaptive"): the
#              regime-shift soak (renegotiated RCBR whose correlation time
#              collapses mid-run; the controller must track T̂_c, converge
#              T_m to T̃_h and hold the eq. 41 masking level) under -race
#   scenario — declarative scenario suite (build tag "scenario"): every
#              config under scenarios/ runs its seed x arm matrix and must
#              grade to its declared Confirmed/Refuted verdict — including
#              the slow impulsive ensembles excluded from tier-1 (the two
#              sqrt2-law points and their perfect-knowledge control). The
#              fast scenarios also replay in tier-1 via the byte-exact
#              golden reports (results/golden/scenario/) and the
#              network-twin test.

GO ?= go

.PHONY: all build test race test-stat bench fuzz golden vet test-chaos test-net test-cluster test-adaptive test-scenario scenarios

all: build test

build:
	$(GO) build ./...

# The benchmark harness is a module of its own (benchmark/go.mod), so
# ./... does not reach its smoke test; it compiles against the exported
# API of internal/..., which is what a refactor here can break.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test .

# Tier-1.5: the whole tree under the race detector. The gateway and the
# simulation worker pool are the packages with real concurrency; the rest
# ride along as a regression net.
race:
	$(GO) test -race ./...

# Statistical tier: the large columnar/scalar differential, excluded from
# tier-1 by the "stat" build tag, under -race (the columnar path shares
# worker-local arenas). The gateway √2-law ensembles this tier used to hold
# run as scenarios (test-scenario).
test-stat:
	$(GO) test -tags stat -race -run 'TestStat' -v ./internal/sim

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExponentialEstimator -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzWindow -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzAggregateOnly -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzCertaintyEquivalent -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzTable -fuzztime $(FUZZTIME) ./internal/flowtab
	$(GO) test -run '^$$' -fuzz FuzzFlowQueue -fuzztime $(FUZZTIME) ./internal/sim

golden:
	$(GO) test ./internal/experiments -run TestGolden -update-golden
	$(GO) test ./internal/scenario -run TestGoldenScenarioReports -update-golden

# Static tier: the standard vet pass.
vet:
	$(GO) vet ./...

# Chaos tier: seeded fault-injection soaks under the race detector.
test-chaos:
	$(GO) test -tags chaos -race -run 'TestChaos' -v ./internal/gateway

# Network tier: the client's and the server's own tests five times (the
# client's send path and the server's teardowns — drain, write failure,
# refusal — are all interleavings), the loopback end-to-end soak and the
# sharded pipelined identity test, all under the race detector.
test-net:
	$(GO) test -race -count 5 ./client ./internal/server
	$(GO) test -tags net -race -run 'TestSoak|TestSharded' -v ./internal/loadgen

# Cluster tier: the pin storm, the same-ID storm, the admission-race test
# and the pinned-duplicate refusal, then the multi-gateway soaks, under the
# race detector — skewed arrivals against per-instance sqrt2-law audits,
# and a drain/failover storm with concurrent ticks and placements.
test-cluster:
	$(GO) test -race -count 5 -run 'TestPinsSurviveTickStorm|TestSameIDStorm|TestUpdateDuringAdmissionKeepsPin|TestAdmitPinnedFlowIsDuplicate' -v ./internal/cluster
	$(GO) test -tags cluster -race -run 'TestClusterSkewedSoak|TestClusterFailoverSoak' -v ./internal/cluster

# Adaptive tier: the regime-shift soak under the race detector — the
# online time-scale controller retuning a live gateway's measurement
# memory against concurrent admissions.
test-adaptive:
	$(GO) test -tags adaptive -race -run 'TestAdaptiveRegimeShiftSoak' -v ./internal/adaptive

# Scenario tier: the full declarative suite (including the slow impulsive
# sqrt2-law ensembles).
test-scenario:
	$(GO) test -tags scenario -run 'TestScenarioSuite' -timeout 30m -v ./internal/scenario

# Regenerate the FINDINGS reports under results/scenario from the built-in
# suite (cmd/scenario exits nonzero if any verdict mismatches its expect).
scenarios:
	$(GO) run ./cmd/scenario -dir scenarios -out results/scenario -strict
