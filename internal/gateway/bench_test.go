package gateway

// Micro-benchmarks of the gateway's admission and measurement paths, and
// the allocation budget of the measurement tick. Each builds its gateway
// the way a load driver deploys it: a certainty-equivalent controller, the
// estimator with memory, a link so large that capacity refusals never
// dominate.

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/estimator"
)

// BenchmarkGatewayAdmit measures the online gateway's concurrent
// admission hot path: every iteration admits and departs one flow under
// b.RunParallel, with a large bound so the CAS loop, shard locking and
// counter updates — not capacity refusals — dominate. It runs the gateway
// as a load driver deploys it: counters at exact fidelity, latency sampled
// 1-in-8 (see Config.LatencySample), so the measurement does not perturb
// the measured path. Leases are enabled (FlowTTL), so every admission also
// pays the deadline stamp and per-shard min-deadline upkeep — the
// lifecycle machinery is inside the measured budget, not bolted on.
// Its allocation budget (0 allocs/op) is held by TestAdmitDoesNotAllocate;
// its ns/op is for reading, not gating.
func BenchmarkGatewayAdmit(b *testing.B) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     estimator.NewExponential(100),
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
// time-scale controller wired in (Config.Tuner) but quiescent: the
// tuner runs on the measurement-tick path only, so an adaptive gateway's
// admission hot path must price identically to the fixed-memory baseline —
// same ns/op envelope, zero allocations.
func BenchmarkGatewayAdmitAdaptive(b *testing.B) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	tuner, err := adaptive.New(adaptive.Config{Capacity: 1e9, Th: 100, PQ: 1e-2})
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     estimator.NewExponential(100),
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
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  estimator.NewExponential(100),
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
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{
		Capacity:      1e9,
		Controller:    ctrl,
		Estimator:     estimator.NewExponential(100),
		Shards:        64,
		LatencySample: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batchLen = 64
	ids := make([]uint64, batchLen)
	rates := make([]float64, batchLen)
	dst := make([]Decision, 0, batchLen)
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
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  estimator.NewExponential(100),
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
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   1e9,
		Controller: ctrl,
		Estimator:  estimator.NewExponential(100),
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
