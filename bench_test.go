package mbac

// The benchmark harness regenerates every evaluation artifact of the paper
// (DESIGN.md section 3): one benchmark per figure/proposition, each running
// the corresponding experiment at Quick fidelity and reporting the headline
// quantity as a custom metric. `go test -bench=. -benchmem` therefore
// reproduces the entire evaluation at reduced statistical effort; use
// `go run ./cmd/figures -all -fidelity full` for publication-grade runs.
//
// Custom metrics: pf_* are overflow probabilities (the paper's y-axes);
// ratio_* compare simulation to theory where the paper does.

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/theory"
)

// runExperiment executes a registered experiment once per benchmark
// iteration and returns the tables of the last run.
func runExperiment(b *testing.B, id string) []*experiments.Table {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tables []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = r.Run(experiments.Quick, uint64(i)+1)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tables
}

// cell fetches a named column from a table row.
func cell(b *testing.B, t *experiments.Table, row int, col string) float64 {
	b.Helper()
	for j, c := range t.Columns {
		if c == col {
			return t.Rows[row][j]
		}
	}
	b.Fatalf("column %q not in %v", col, t.Columns)
	return 0
}

func BenchmarkProp31Impulsive(b *testing.B) {
	tables := runExperiment(b, "prop31")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, "sim_mean_M0"), "M0_mean")
	b.ReportMetric(cell(b, t, last, "sim_sd_M0")/cell(b, t, last, "th_sd_M0"), "sd_ratio_vs_theory")
}

func BenchmarkProp33SqrtTwoLaw(b *testing.B) {
	tables := runExperiment(b, "prop33")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_sim"), "pf_sim")
	b.ReportMetric(cell(b, t, 0, "pf_sim")/cell(b, t, 0, "pf_theory"), "ratio_vs_sqrt2_law")
}

func BenchmarkFiniteHolding(b *testing.B) {
	tables := runExperiment(b, "finite")
	t := tables[0]
	// Report the peak of the measured profile.
	peak := 0.0
	for i := range t.Rows {
		if v := cell(b, t, i, "pf_sim"); v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak, "pf_peak")
}

func BenchmarkFig5(b *testing.B) {
	tables := runExperiment(b, "fig5")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_sim"), "pf_memoryless")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pf_sim"), "pf_max_memory")
}

func BenchmarkFig6Inversion(b *testing.B) {
	tables := runExperiment(b, "fig6")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pce_n100_Th1e3"), "pce_smallest_Tm")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pce_n100_Th1e3"), "pce_largest_Tm")
}

func BenchmarkFig7(b *testing.B) {
	tables := runExperiment(b, "fig7")
	t := tables[0]
	worst := 0.0
	for i := range t.Rows {
		if v := cell(b, t, i, "pf_over_pq"); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst_pf_over_pq")
}

func BenchmarkFig9Surface(b *testing.B) {
	tables := runExperiment(b, "fig9")
	t := tables[0]
	b.ReportMetric(t.Rows[0][1], "pf_no_memory_small_Tc")
	b.ReportMetric(t.Rows[len(t.Rows)-1][1], "pf_full_memory_small_Tc")
}

func BenchmarkFig10(b *testing.B) {
	tables := runExperiment(b, "fig10")
	t := tables[0]
	b.ReportMetric(t.Rows[0][1], "pf_no_memory_small_Tc")
	b.ReportMetric(t.Rows[len(t.Rows)-1][1], "pf_full_memory_small_Tc")
}

func BenchmarkFig11(b *testing.B) {
	tables := runExperiment(b, "fig11")
	t := tables[0]
	worst := 0.0
	for i := range t.Rows {
		if v := cell(b, t, i, "pf_over_pce"); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst_pf_over_target")
}

func BenchmarkFig12(b *testing.B) {
	tables := runExperiment(b, "fig12")
	t := tables[0]
	worst := 0.0
	for i := range t.Rows {
		if v := cell(b, t, i, "pf_over_pce"); v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst_pf_over_target")
}

func BenchmarkUtilization(b *testing.B) {
	tables := runExperiment(b, "util")
	t := tables[0]
	last := len(t.Rows) - 1
	b.ReportMetric(cell(b, t, last, "delta_sim"), "flows_lost_sim")
	b.ReportMetric(cell(b, t, last, "delta_eq40"), "flows_lost_eq40")
}

func BenchmarkLimitProcess(b *testing.B) {
	tables := runExperiment(b, "limit")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_limit_sim"), "pf_limit_memoryless")
	b.ReportMetric(cell(b, t, 0, "pf_limit_sim")/cell(b, t, 0, "pf_eq37"), "ratio_vs_eq37")
}

func BenchmarkRegimes(b *testing.B) {
	tables := runExperiment(b, "regimes")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_eq37"), "pf_masking_end")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pf_eq37"), "pf_repair_end")
}

func BenchmarkAblationSampling(b *testing.B) {
	tables := runExperiment(b, "abl-sampling")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "tw_halfwidth"), "ci_time_weighted")
	b.ReportMetric(cell(b, t, 0, "ps_halfwidth"), "ci_point_sampled")
}

func BenchmarkAblationFilter(b *testing.B) {
	tables := runExperiment(b, "abl-filter")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_exponential"), "pf_exponential")
	b.ReportMetric(cell(b, t, 0, "pf_window"), "pf_window")
}

func BenchmarkAblationVariance(b *testing.B) {
	tables := runExperiment(b, "abl-variance")
	t := tables[0]
	b.ReportMetric(cell(b, t, 2, "pf_sim"), "pf_hetero_perflow")
	b.ReportMetric(cell(b, t, 3, "pf_sim"), "pf_hetero_aggonly")
}

func BenchmarkAblationTheory(b *testing.B) {
	tables := runExperiment(b, "abl-theory")
	t := tables[0]
	// Row 0 is the smallest Tc, i.e. the LARGEST gamma (gamma = ThTilde
	// svr / Tc); the closed form is exact there and explodes conservatively
	// as gamma shrinks.
	b.ReportMetric(cell(b, t, 0, "ratio"), "eq38_over_eq37_large_gamma")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "ratio"), "eq38_over_eq37_small_gamma")
}

// Extension experiments (DESIGN.md section 5 / paper Sections 2, 6, 7).

func BenchmarkExtensionArrivalRate(b *testing.B) {
	tables := runExperiment(b, "arrival")
	t := tables[0]
	last := len(t.Rows) - 1 // lambda = 0: the continuous-load bound
	b.ReportMetric(cell(b, t, last, "pf_sim"), "pf_infinite_load")
	b.ReportMetric(cell(b, t, 0, "pf_sim"), "pf_light_load")
}

func BenchmarkExtensionBayes(b *testing.B) {
	tables := runExperiment(b, "bayes")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_sim"), "pf_memoryless")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pf_sim"), "pf_memory")
}

func BenchmarkExtensionUtility(b *testing.B) {
	tables := runExperiment(b, "utility")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "u_concave"), "u_adaptive_naive")
	b.ReportMetric(cell(b, t, 1, "u_concave"), "u_adaptive_robust")
}

func BenchmarkExtensionReneg(b *testing.B) {
	tables := runExperiment(b, "reneg")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "reneg_failure_prob"), "reneg_fail_prob")
	b.ReportMetric(cell(b, t, 0, "pf_time_fraction"), "pf_time_fraction")
}

func BenchmarkExtensionMisdeclaration(b *testing.B) {
	tables := runExperiment(b, "misdecl")
	t := tables[0]
	// Rows 2/3 are the under-declared case: declaration AC vs MBAC.
	b.ReportMetric(cell(b, t, 2, "pf_sim"), "pf_declaration_ac")
	b.ReportMetric(cell(b, t, 3, "pf_sim"), "pf_mbac")
}

func BenchmarkExtensionHolding(b *testing.B) {
	tables := runExperiment(b, "holding")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_sim"), "pf_deterministic")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pf_sim"), "pf_hyperexponential")
}

func BenchmarkExtensionTransient(b *testing.B) {
	tables := runExperiment(b, "transient")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "pf_ensemble"), "pf_early")
	b.ReportMetric(cell(b, t, len(t.Rows)-1, "pf_ensemble"), "pf_late")
}

func BenchmarkFig2Trajectory(b *testing.B) {
	tables := runExperiment(b, "fig2")
	t := tables[0]
	b.ReportMetric(float64(len(t.Rows)), "series_points")
}

func BenchmarkExtensionBuffer(b *testing.B) {
	tables := runExperiment(b, "buffer")
	t := tables[0]
	b.ReportMetric(cell(b, t, 0, "loss_fraction"), "loss_small_buffer")
	b.ReportMetric(cell(b, t, 0, "pf_bufferless"), "pf_bufferless")
}

// Micro-benchmarks of the hot analytical paths used inside the admission
// loop, complementing the per-package micro benches.

func BenchmarkPlanRobust(b *testing.B) {
	sys := theory.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
	for i := 0; i < b.N; i++ {
		if _, err := theory.PlanRobust(sys, 1e-3, theory.InvertIntegral); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayAdmit measures the online gateway's concurrent
// admission hot path: every iteration admits and departs one flow under
// b.RunParallel, with a large bound so the CAS loop, shard locking and
// counter updates — not capacity refusals — dominate. It runs the gateway
// as a load driver deploys it: counters at exact fidelity, latency sampled
// 1-in-8 (see Config.LatencySample), so the measurement does not perturb
// the measured path. Leases are enabled (FlowTTL), so every admission also
// pays the deadline stamp and per-shard min-deadline upkeep — the
// lifecycle machinery is inside the measured budget, not bolted on.
// Its allocation budget (0 allocs/op) is held by
// TestGatewayAdmitAllocationFree; its ns/op is for reading, not gating.
func BenchmarkGatewayAdmit(b *testing.B) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     NewExponentialEstimator(100),
		Shards:        64,
		LatencySample: 8,
		FlowTTL:       30,
	})
	if err != nil {
		b.Fatal(err)
	}
	var nextID atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := nextID.Add(1)
			if _, err := g.Admit(id, 1.0); err != nil {
				b.Error(err)
				return
			}
			if err := g.Depart(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
	st := g.Stats()
	if st.Active != 0 || st.Admitted != int64(nextID.Load()) {
		b.Fatalf("counters drifted: %+v", st)
	}
}

// BenchmarkGatewayAdmitAdaptive is BenchmarkGatewayAdmit with the online
// time-scale controller wired in (GatewayConfig.Tuner) but quiescent: the
// tuner runs on the measurement-tick path only, so an adaptive gateway's
// admission hot path must price identically to the fixed-memory baseline —
// same ns/op envelope, zero allocations.
func BenchmarkGatewayAdmitAdaptive(b *testing.B) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	tuner, err := NewAdaptiveController(AdaptiveConfig{Capacity: 1e9, Th: 100, PQ: 1e-2})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     NewExponentialEstimator(100),
		Shards:        64,
		LatencySample: 8,
		FlowTTL:       30,
		Tuner:         tuner,
	})
	if err != nil {
		b.Fatal(err)
	}
	var nextID atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := nextID.Add(1)
			if _, err := g.Admit(id, 1.0); err != nil {
				b.Error(err)
				return
			}
			if err := g.Depart(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
	st := g.Stats()
	if st.Active != 0 || st.Admitted != int64(nextID.Load()) {
		b.Fatalf("counters drifted: %+v", st)
	}
}

// BenchmarkGatewayAdmitInstrumented is BenchmarkGatewayAdmit under active
// observation: a background goroutine polls Snapshot and renders the
// Prometheus text the whole time, the situation a scraped production
// gateway lives in. The admission path must stay allocation-free and
// within the same order of magnitude as the unobserved baseline.
func BenchmarkGatewayAdmitInstrumented(b *testing.B) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  NewExponentialEstimator(100),
		Shards:     64,
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := g.Snapshot()
				snap.WritePrometheus(io.Discard)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var nextID atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := nextID.Add(1)
			if _, err := g.Admit(id, 1.0); err != nil {
				b.Error(err)
				return
			}
			if err := g.Depart(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
	close(stop)
	wg.Wait()
	snap := g.Snapshot()
	if snap.Active != 0 || snap.Admitted != int64(nextID.Load()) {
		b.Fatalf("counters drifted: active %d admitted %d", snap.Active, snap.Admitted)
	}
	if snap.AdmitLatency.Count != snap.Admitted+snap.Rejected {
		b.Fatalf("latency histogram saw %d decisions, counters say %d",
			snap.AdmitLatency.Count, snap.Admitted+snap.Rejected)
	}
}

// BenchmarkGatewayAdmitBatch measures the bulk admission path: each
// iteration decides one 64-request batch through AdmitBatch (reused id,
// rate and decision buffers — the steady state of a replay or accept-queue
// drain) and departs the admitted flows. The whole batch pays one clock
// pair and one bound load, so the per-decision cost is the floor the
// serving path approaches under arrival storms.
func BenchmarkGatewayAdmitBatch(b *testing.B) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     NewExponentialEstimator(100),
		Shards:        64,
		LatencySample: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batchLen = 64
	ids := make([]uint64, batchLen)
	rates := make([]float64, batchLen)
	dst := make([]GatewayDecision, 0, batchLen)
	var next uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			next++
			ids[j] = next
			rates[j] = 1
		}
		dst, err = g.AdmitBatch(ids, rates, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			if err := g.Depart(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(batchLen, "flows/op")
	st := g.Stats()
	if st.Active != 0 || st.Admitted != int64(next) {
		b.Fatalf("counters drifted: %+v", st)
	}
}

// BenchmarkGatewayTick measures the measurement path with a populated flow
// table: 1024 active flows across 64 shards, one shard exactly recomputed
// per tick (the drift rotation), the estimator advanced and the bound
// republished.
func BenchmarkGatewayTick(b *testing.B) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  NewExponentialEstimator(100),
		Shards:     64,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := g.Admit(uint64(i), 0.5+float64(i%7)*0.2); err != nil {
			b.Fatal(err)
		}
	}
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += 0.1
		g.Tick(now)
	}
}

// TestGatewayTickAllocBudget fails the suite if the measurement tick
// exceeds its allocation budget (≤ 1 alloc per tick in steady state).
func TestGatewayTickAllocBudget(t *testing.T) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  NewExponentialEstimator(100),
		Shards:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := g.Admit(uint64(i), 0.5+float64(i%7)*0.2); err != nil {
			t.Fatal(err)
		}
	}
	now := 1.0
	for i := 0; i < 32; i++ { // warm the rotation scratch across all shards
		now += 0.1
		g.Tick(now)
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += 0.1
		g.Tick(now)
	})
	if allocs > 1 {
		t.Fatalf("Tick allocates %.1f times per call, budget is 1", allocs)
	}
}

// TestGatewayAdmitAllocationFree fails the suite — not just a benchmark
// run — if the instrumented admission path ever allocates.
func TestGatewayAdmitAllocationFree(t *testing.T) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(GatewayConfig{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  NewExponentialEstimator(100),
		Shards:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = uint64(7)
	if _, err := g.Admit(id, 1.0); err != nil { // warm the shard map slot
		t.Fatal(err)
	}
	if err := g.Depart(id); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := g.Admit(id, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := g.Depart(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented Admit/Depart allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkOverflowIntegral(b *testing.B) {
	sys := theory.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1, Tm: 100}
	for i := 0; i < b.N; i++ {
		theory.ContinuousOverflowIntegral(sys, 1e-3)
	}
}
