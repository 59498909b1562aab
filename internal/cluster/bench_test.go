package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/loadgen"
)

// BenchmarkClusterRouted replays a renegotiated-RCBR churn schedule through
// loadgen.Run into a 4-instance least-loaded cluster of 64 shards each,
// ticking on its wall-clock interval, with one replay worker per P: the
// cluster-churn workload of the repo benchmark, cut down to seconds. One op
// is one replay of the whole schedule; ns/event divides it by the events
// (admits, departs and rate updates) it carries. Run it at -cpu 1,2: the
// routed ops' cross-core costs — shared locks, write-hot lines — show only
// at 2 or more.
func BenchmarkClusterRouted(b *testing.B) {
	events, err := loadgen.Schedule(loadgen.Config{
		Seed: 1, Lambda: 400, Hold: 50, SVR: 0.3, TC: 16, Duration: 100, Renegotiate: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Policy: PlaceLeastLoaded, TickInterval: 10 * time.Millisecond}
	for i := 0; i < 4; i++ {
		ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Instances = append(cfg.Instances, gateway.Config{
			Capacity:      1e9,
			Controller:    ctrl,
			Estimator:     estimator.NewExponential(1),
			Shards:        64,
			LatencySample: 8,
			FlowTTL:       60,
		})
	}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	run := loadgen.RunConfig{Workers: runtime.GOMAXPROCS(0), Batch: 16}
	target := func(int) loadgen.Target { return &ReplayTarget{C: c} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := loadgen.Run(ctx, target, events, run)
		if err != nil {
			b.Fatal(err)
		}
		if st.Rejected != 0 || st.NotActive != 0 || st.UpdateMissed != 0 {
			b.Fatalf("replay %d: %+v", i, st)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	if st := c.Stats(); st.Active != 0 || !st.LifecycleBalanced() {
		b.Fatalf("fleet after the replays: %+v", st)
	}
}
