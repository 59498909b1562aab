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
#   bench    — every package's micro-benchmarks, for reading while you
#              work (the figures are regenerated by cmd/figures, not by
#              benchmarks; the gateway's live in internal/gateway). Nothing
#              gates on their ns/op: the performance gate is the repo
#              benchmark (BENCHMARK.json, benchmark/run.sh), compared in
#              alternating parent/change runs; the allocation budgets
#              that do not drift with the machine are plain tier-1 tests
#   fuzz     — short adversarial-input fuzzing of the estimator, the
#              controller, the wire decoder, scenario configs, the flow
#              table, the simulator's flow queue, the schedule's time
#              sort and Schedule over decoded Configs (checked-in corpora
#              replay in plain `go test`)
#   vet      — go vet, then gofmt: the tier fails when `gofmt -l .` lists
#              any file (the benchmark module included). Enum
#              exhaustiveness is not a lint: every enumeration declares its
#              names once in an internal/enum table, and a constant without
#              a name (or a name without a constant) fails the owning
#              package at init, so tier-1 catches it
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
#              op on a few shared IDs beside Tick and repeated Drains), the
#              admission-race test and the pinned-duplicate refusal, five
#              times under -race, then (build tag "cluster") the 4-instance
#              skewed-arrival soak (per-instance sqrt2-law audits) and the
#              concurrent drain/failover soak under -race, each ending with
#              every instance's rows in the shared flow table equal to its
#              Active count and to Admitted - Departed - Expired. The -run
#              patterns name tests that exist: a renamed test would drop
#              out of this tier silently, so check them against
#              `go test -list`. The repo benchmark holds the same line end
#              to end: a `cluster-churn` run prints no `KNOWN DEFECT` line
#   adaptive — adaptive measurement tier (build tag "adaptive"): the
#              regime-shift soak (renegotiated RCBR whose correlation time
#              collapses mid-run; the controller must track T̂_c, converge
#              T_m to T̃_h and hold the eq. 41 masking level) under -race
#   scenario — declarative scenario suite (build tag "scenario"): every
#              config under scenarios/ runs its seed x arm matrix, must
#              grade to its declared Confirmed/Refuted verdict and must
#              reproduce its committed reports in results/scenario/ byte
#              for byte. Tier-1 runs the same check on every scenario but
#              the slow impulsive ensembles (the sqrt2-law points, the
#              eq. 15 arm and their perfect-knowledge control), which only
#              this tier runs
#   golden   — rewrite what tier-1 diffs every experiment table and
#              observability surface against: the six cheap runners'
#              results/standard/<id>.csv, the other nineteen's Quick tables
#              under internal/experiments/testdata/quick/, and
#              results/golden/ — the gateway snapshot and its Prometheus
#              text (internal/gateway), the /server and /adaptive routes
#              (internal/obs) and the QoS audit verdicts (internal/qos).
#              `make scenarios` is the one writer of results/scenario/

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
# tier-1 by the "stat" build tag, under -race (replications borrow and
# return pooled scratch arenas concurrently). The gateway √2-law ensembles
# this tier used to hold run as scenarios (test-scenario).
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
	$(GO) test -run '^$$' -fuzz FuzzTimeSort -fuzztime $(FUZZTIME) ./internal/loadgen
	$(GO) test -run '^$$' -fuzz FuzzSchedule -fuzztime $(FUZZTIME) ./internal/loadgen

golden:
	$(GO) test ./internal/experiments -run 'TestGoldenTheoryTables|TestSimulationExperimentsQuick' -update-golden
	$(GO) test ./internal/gateway -run '^TestSnapshotGolden$$' -update-golden
	$(GO) test ./internal/obs -run 'TestServerRouteCanonicalGolden|TestAdaptiveRouteCanonicalGolden' -update-golden
	$(GO) test ./internal/qos -run '^TestAuditVerdictsGolden$$' -update-golden

# Static tier: the standard vet pass, and no file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting (run gofmt -w):"; echo "$$unformatted"; exit 1; fi

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
# ensembles), each verdict checked and each report diffed against
# results/scenario/.
test-scenario:
	$(GO) test -tags scenario -run 'TestScenarioSuite' -timeout 30m -v ./internal/scenario

# Regenerate the FINDINGS reports under results/scenario from the built-in
# suite (cmd/scenario exits nonzero if any verdict mismatches its expect).
scenarios:
	$(GO) run ./cmd/scenario -dir scenarios -out results/scenario -strict
