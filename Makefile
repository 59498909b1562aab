# Verification tiers for the MBAC reproduction.
#
#   tier-1   — build + full test suite (the driver's gate)
#   tier-1.5 — race detector over every package; concurrency-sensitive
#              packages (gateway, sim) must stay clean under -race
#   stat     — the large columnar ≡ scalar ensemble differential (build tag
#              "stat") under -race, then the engine perf guard. The √2-law
#              ensembles of Prop 3.3 and their perfect-knowledge control are
#              scenarios (sqrt2-law-pq1e-2, sqrt2-law-pq1e-3, pk-control):
#              see the scenario tier
#   bench    — admission hot-path benchmarks
#   bench-json, bench-server-json, bench-sim-json — capture one row of the
#              benchmark table below (gateway hot path; loopback client ->
#              server -> gateway; simulation engine) as BENCH_<name>.json
#              via cmd/benchjson. The matching bench-cmp, bench-server-cmp,
#              bench-sim-cmp diff a fresh run against the committed
#              baseline (fail on >20% regression of the row's gated metric
#              or any allocs/op growth)
#   fuzz     — short adversarial-input fuzzing of the estimator, the
#              controller, the wire decoder, scenario configs and the flow
#              table (checked-in corpora replay in plain `go test`)
#   vet      — go vet. Enum exhaustiveness is not a lint: every enumeration
#              declares its names once in an internal/enum table, and a
#              constant without a name (or a name without a constant) fails
#              the owning package at init, so tier-1 catches it
#   chaos    — fault-injection soaks (build tag "chaos") under -race:
#              estimator NaN/Inf bursts, stalled ticks, leaked clients; ends
#              with bench-cmp so the lifecycle/degradation machinery is also
#              held to the serving-path perf budget
#   net      — network serving tier: the client's tier-1 tests (group-
#              committed writes, Close/retire/timeout racing a held flush)
#              five times under -race, then (build tag "net") the loopback
#              end-to-end soak (client -> server -> gateway, open loop,
#              concurrent, graceful drain) under -race, then bench-cmp so
#              the serving layer can't regress the admission hot path
#   cluster  — multi-gateway routing tier: the tier-1 pin storm
#              (AdmitBatch/DepartBatch beside a spinning Tick; no admitted
#              flow may become unroutable) five times under -race, then
#              (build tag "cluster") the 4-instance skewed-arrival soak
#              (per-instance sqrt2-law audits) and the concurrent
#              drain/failover soak under -race, each ending with pins equal
#              to the instances' flow tables, then both serving-path perf
#              guards — the routing layer must not tax the single-gateway
#              budget it multiplexes. The repo benchmark holds the same
#              line end to end: a `cluster-churn` run prints no
#              `KNOWN DEFECT` line
#   adaptive — adaptive measurement tier (build tag "adaptive"): the
#              regime-shift soak (renegotiated RCBR whose correlation time
#              collapses mid-run; the controller must track T̂_c, converge
#              T_m to T̃_h and hold the eq. 41 masking level) under -race,
#              then both serving-path perf guards — adaptation off must
#              leave the admit fast path untouched
#   scenario — declarative scenario suite (build tag "scenario"): every
#              config under scenarios/ runs its seed x arm matrix and must
#              grade to its declared Confirmed/Refuted verdict — including
#              the slow impulsive ensembles excluded from tier-1 (the two
#              sqrt2-law points and their perfect-knowledge control);
#              ends with bench-cmp so scenario plumbing can't tax the
#              admission hot path. The fast scenarios also replay in tier-1
#              via the byte-exact golden reports (results/golden/scenario/)
#              and the network-twin test.

GO ?= go

.PHONY: all build test race test-stat bench bench-json bench-cmp bench-gateway-json bench-gateway-cmp bench-server-json bench-server-cmp bench-sim-json bench-sim-cmp fuzz golden vet test-chaos test-net test-cluster test-adaptive test-scenario scenarios

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
# worker-local arenas), then the engine perf guard. The gateway √2-law
# ensembles this tier used to hold run as scenarios (test-scenario).
test-stat:
	$(GO) test -tags stat -race -run 'TestStat' -v ./internal/sim
	$(MAKE) bench-sim-cmp

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Benchmark baselines, one row per committed BENCH_<name>.json: the
# package and -bench selection that produce it, and the metrics its cmp
# gate holds to 20% (allocs/op may never grow). `make bench-<name>-json`
# refreshes the baseline in place (commit the change when a perf PR moves
# the numbers); `make bench-<name>-cmp` measures without overwriting and
# diffs against the committed baseline.
#   gateway — the admission hot path (root package).
#   server  — the end-to-end loopback bench, gated on ns/decision (departs
#             ride along in each round, so raw ns/op measures the whole
#             128-frame pipeline, not the budget). -count 3 because the
#             round trip is scheduler-bound: benchjson collapses replicates
#             to the fastest run, the stable estimator on a shared machine.
#   sim     — the columnar impulsive-replication kernel (the hot path behind
#             every ensemble) and the churn-heavy engine. -count 4 because
#             replication benches are FP-throughput-bound and scheduler
#             noise is one-sided.
BENCHES        = gateway server sim
BENCH_gateway  = -bench 'BenchmarkGateway' -benchtime 2s .
BENCH_server   = -bench 'BenchmarkServerAdmit' -benchtime 2s -count 3 ./internal/server
BENCH_sim      = -bench 'BenchmarkImpulsiveReplication$$|BenchmarkEngineChurn' -benchtime 1s -count 4 ./internal/sim
METRIC_gateway = ns/op,allocs/op
METRIC_server  = ns/decision,allocs/op
METRIC_sim     = ns/op,allocs/op

$(BENCHES:%=bench-%-json): bench-%-json:
	$(GO) test -run '^$$' -benchmem $(BENCH_$*) | $(GO) run ./cmd/benchjson -out BENCH_$*.json

$(BENCHES:%=bench-%-cmp): bench-%-cmp:
	$(GO) test -run '^$$' -benchmem $(BENCH_$*) | $(GO) run ./cmd/benchjson -out /tmp/BENCH_$*.new.json
	$(GO) run ./cmd/benchjson -cmp -threshold 20 -metric $(METRIC_$*) BENCH_$*.json /tmp/BENCH_$*.new.json

# The gateway pair's historical short names, which the tier recipes call.
bench-json: bench-gateway-json
bench-cmp: bench-gateway-cmp

FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExponentialEstimator -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzWindow -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzAggregateOnly -fuzztime $(FUZZTIME) ./internal/estimator
	$(GO) test -run '^$$' -fuzz FuzzCertaintyEquivalent -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzScenarioConfig -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzTable -fuzztime $(FUZZTIME) ./internal/flowtab

golden:
	$(GO) test ./internal/experiments -run TestGolden -update-golden
	$(GO) test ./internal/scenario -run TestGoldenScenarioReports -update-golden

# Static tier: the standard vet pass.
vet:
	$(GO) vet ./...

# Chaos tier: seeded fault-injection soaks under the race detector, then
# the serving-path perf guard — leases and degradation must not tax the
# admission hot path beyond the committed budget.
test-chaos:
	$(GO) test -tags chaos -race -run 'TestChaos' -v ./internal/gateway
	$(MAKE) bench-cmp

# Network tier: the client's own tests five times (its send path is all
# interleavings), the loopback end-to-end soak and the sharded pipelined
# identity test, all under the race detector, then both serving-path perf
# guards — the network layer must hold the gateway budget it fronts and
# its own per-decision budget.
test-net:
	$(GO) test -race -count 5 ./client
	$(GO) test -tags net -race -run 'TestSoak|TestSharded' -v ./internal/loadgen
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Cluster tier: the pin storm, then the multi-gateway soaks, under the race
# detector — skewed arrivals against per-instance sqrt2-law audits, and a
# drain/failover storm with concurrent ticks and placements — then both
# serving-path perf guards: routing, pinning and migration must not
# regress the admission budget of the instances they front.
test-cluster:
	$(GO) test -race -count 5 -run 'TestPinsSurviveTickStorm' -v ./internal/cluster
	$(GO) test -tags cluster -race -run 'TestClusterSkewedSoak|TestClusterFailoverSoak' -v ./internal/cluster
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Adaptive tier: the regime-shift soak under the race detector — the
# online time-scale controller retuning a live gateway's measurement
# memory against concurrent admissions — then both serving-path perf
# guards: with no Tuner attached the admit fast path must stay on the
# committed budget (BenchmarkGatewayAdmitAdaptive in the gateway baseline
# additionally pins the tuner-on tick cost).
test-adaptive:
	$(GO) test -tags adaptive -race -run 'TestAdaptiveRegimeShiftSoak' -v ./internal/adaptive
	$(MAKE) bench-cmp
	$(MAKE) bench-server-cmp

# Scenario tier: the full declarative suite (including the slow impulsive
# sqrt2-law ensembles), then both perf guards — the scenario engine drives
# the same gateway everything else does, and its seed x arm matrices run
# on the simulation engine whose budget bench-sim-cmp enforces.
test-scenario:
	$(GO) test -tags scenario -run 'TestScenarioSuite' -timeout 30m -v ./internal/scenario
	$(MAKE) bench-cmp
	$(MAKE) bench-sim-cmp

# Regenerate the FINDINGS reports under results/scenario from the built-in
# suite (cmd/scenario exits nonzero if any verdict mismatches its expect).
scenarios:
	$(GO) run ./cmd/scenario -dir scenarios -out results/scenario -strict
