//go:build cluster

package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/qos"
)

// TestClusterSkewedSoak replays a heavily skewed deterministic arrival
// process (CV 2.5 — bursts well beyond Poisson) against a 4-instance
// cluster and audits every instance's windowed overflow probability
// separately: MBAC keeps each within the √2-law bound even though the
// router, not the workload, decides who absorbs each burst.
func TestClusterSkewedSoak(t *testing.T) {
	const (
		n        = 4
		capacity = 25.0
		pq       = 0.01
		ttl      = 20.0
	)
	cfg := Config{}
	for i := 0; i < n; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(t, capacity, ttl))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	events, err := loadgen.Schedule(loadgen.Config{
		Seed: 11, Lambda: 8, Hold: 10, SVR: 0.3, TC: 1, Duration: 240, ArrivalCV: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}

	audits := make([]*qos.Audit, n)
	for i := range audits {
		if audits[i], err = qos.NewAudit(qos.AuditConfig{TargetPf: pq, Window: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	hook := func(now float64) {
		for i, st := range c.Tick(now) {
			audits[i].ObserveWith(st.AggregateRate > capacity, st.Degraded)
		}
	}
	tgt := &ReplayTarget{C: c}
	if _, err := loadgen.Replay(context.Background(), tgt, events, 8, 0.5, hook); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ { // expire residual leases
		hook(240 + float64(i)*0.5)
	}

	if st := c.Stats(); !st.LifecycleBalanced() {
		t.Fatalf("fleet lifecycle unbalanced after soak: %+v", st)
	}
	checkPinsExact(t, c)
	placed := false
	for i := 0; i < n; i++ {
		r := audits[i].Report()
		t.Logf("instance %d: p_f %.4g (lo %.4g) sqrt2 %.4g verdict %s active %d admitted %d",
			i, r.Estimate.P, r.Estimate.Lo, r.Sqrt2Law, r.Verdict, c.Gateway(i).Active(), c.Gateway(i).Stats().Admitted)
		switch r.Verdict {
		case qos.VerdictViolatesSqrt2Law:
			t.Errorf("instance %d violates the sqrt2-law bound: %+v", i, r)
		case qos.VerdictViolatesTarget:
			t.Errorf("instance %d violates the QoS target: %+v", i, r)
		case qos.VerdictDegraded:
			t.Errorf("instance %d served degraded during the soak: %+v", i, r)
		}
		if c.Gateway(i).Stats().Admitted > 0 {
			placed = true
		}
	}
	if !placed {
		t.Fatal("soak admitted nothing")
	}
}

// TestClusterFailoverSoak hammers a cluster with concurrent open-loop
// workers while an instance is drained and reactivated mid-flight, then
// checks the failover contract: the fleet-wide lifecycle identity holds
// (no admitted flow lost) and the pin table exactly matches the instances'
// flow tables at the first tick past every lease.
func TestClusterFailoverSoak(t *testing.T) {
	const (
		n        = 4
		capacity = 40.0
		ttl      = 30.0
	)
	cfg := Config{}
	for i := 0; i < n; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(t, capacity, ttl))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	events, err := loadgen.Schedule(loadgen.Config{
		Seed: 23, Lambda: 12, Hold: 6, SVR: 0.3, TC: 1, Duration: 60, ArrivalCV: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Virtual clock for the concurrent tick driver: the soak is open-loop,
	// so tick times only need to be monotone, not schedule-aligned.
	var vnow atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				c.Tick(float64(vnow.Add(1)))
			}
		}
	}()
	// Drain instance 0 mid-run, then bring it back.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		if _, _, err := c.Drain(0); err != nil {
			t.Error(err)
			return
		}
		time.Sleep(20 * time.Millisecond)
		if !reactivate(c, 0) {
			t.Error("instance 0 was not draining")
		}
	}()

	_, err = loadgen.Run(ctx, func(int) loadgen.Target { return &ReplayTarget{C: c} }, events, loadgen.RunConfig{
		Workers: 4, Batch: 8, Timescale: 2 * time.Millisecond,
	})
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Settle: one tick past every lease. The flows the open-loop schedule
	// left behind expire there, and their pins must go at that same tick.
	c.Tick(float64(vnow.Load()) + 2*ttl)

	st := c.Stats()
	if !st.LifecycleBalanced() {
		t.Fatalf("fleet lifecycle unbalanced after failover soak: %+v", st)
	}
	if st.Admitted == 0 {
		t.Fatal("soak admitted nothing")
	}
	if st.Active != 0 {
		t.Fatalf("%d flows outlived a tick past every lease: %+v", st.Active, st)
	}
	checkPinsExact(t, c)
	snap := c.Snapshot()
	if snap.Drains != 1 {
		t.Fatalf("snapshot drains = %d, want 1", snap.Drains)
	}
	t.Logf("soak: admitted %d migrated %d failures %d", st.Admitted, snap.Migrations, snap.MigrationFailures)
}
