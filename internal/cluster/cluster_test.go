package cluster

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/qos"
	"repro/internal/traffic"
)

// reactivate returns draining instance i to placement, so a test can drain
// it again (outside tests a drain is one-way), and reports whether i was
// draining.
func reactivate(c *Cluster, i int) bool {
	return c.instances[i].state.CompareAndSwap(int32(StateDraining), int32(StateActive))
}

// testGatewayConfig builds one instance config with a deterministic
// latency clock and the scenario tier's declared-statistics controller, so
// equally seeded runs are bit-identical.
func testGatewayConfig(tb testing.TB, capacity float64, ttl float64) gateway.Config {
	tb.Helper()
	ts := traffic.NewRCBR(1, 0.3, 1).Stats()
	ctrl, err := core.NewCertaintyEquivalent(0.01, ts.Mean, ts.StdDev())
	if err != nil {
		tb.Fatal(err)
	}
	var lat atomic.Int64
	return gateway.Config{
		Capacity:     capacity,
		Controller:   ctrl,
		Estimator:    estimator.NewMemoryless(),
		Shards:       4,
		EstimateRing: 1,
		LatencyClock: func() int64 { return lat.Add(1) },
		FlowTTL:      ttl,
	}
}

func newTestCluster(tb testing.TB, n int, capacity float64, cfg Config) *Cluster {
	tb.Helper()
	for i := 0; i < n; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(tb, capacity, 0))
	}
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestEnumRoundTrips pins the exact names of PlacementPolicy and
// InstanceState in constant order — they appear in flags, scenario configs
// and the /cluster snapshot — and that ParsePlacementPolicy reads the
// same table.
func TestEnumRoundTrips(t *testing.T) {
	policies := []string{"least-loaded", "weighted", "round-robin"}
	for i, want := range policies {
		p := PlacementPolicy(i)
		if got, err := ParsePlacementPolicy(want); p.String() != want || err != nil || got != p {
			t.Errorf("PlacementPolicy(%d) = %q, want %q; parses back to %v, %v", i, p, want, got, err)
		}
	}
	if _, err := ParsePlacementPolicy("bogus"); err == nil {
		t.Error("ParsePlacementPolicy accepted bogus input")
	}
	states := []string{"active", "draining"}
	for i, want := range states {
		if got := InstanceState(i).String(); got != want {
			t.Errorf("InstanceState(%d) = %q, want %q", i, got, want)
		}
	}
	// The value past each list is outside its table: the lists are complete.
	if p, s := PlacementPolicy(len(policies)).String(), InstanceState(len(states)).String(); p != "PlacementPolicy(3)" || s != "InstanceState(2)" {
		t.Errorf("out-of-table values render %q, %q", p, s)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty instance list")
	}
	bad := Config{Instances: []gateway.Config{testGatewayConfig(t, 10, 0)}, Policy: PlacementPolicy(99)}
	if _, err := New(bad); err == nil {
		t.Error("New accepted an unknown policy")
	}
	// The instances share one flow table, so every instance must have its
	// shard count.
	mixed := Config{Instances: []gateway.Config{testGatewayConfig(t, 10, 0), testGatewayConfig(t, 10, 0), testGatewayConfig(t, 10, 0)}}
	mixed.Instances[2].Shards = 8
	if _, err := New(mixed); err == nil || !strings.Contains(err.Error(), "instance 2 has 8 shards, instance 0 has 4") {
		t.Errorf("New with mixed shard counts: %v", err)
	}
}

// TestRunArmsStaleWatchdog: Run starts every instance's tick-staleness
// watchdog, as a gateway's own Run does. Instance 0's estimator stalls mid
// tick, which wedges the fleet's tick loop; once the latency clock has
// moved past StaleAfter tick intervals both instances must degrade.
func TestRunArmsStaleWatchdog(t *testing.T) {
	clk := fault.NewClock(1)
	stalled := fault.Wrap(estimator.NewMemoryless())
	cfg := Config{TickInterval: 5 * time.Millisecond}
	for i := 0; i < 2; i++ {
		gc := testGatewayConfig(t, 50, 0)
		gc.StaleAfter = 2
		gc.TickInterval = 5 * time.Millisecond
		gc.LatencyClock = clk.Func()
		if i == 0 {
			gc.Estimator = stalled
		}
		cfg.Instances = append(cfg.Instances, gc)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resume := stalled.Stall()
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() { defer close(ran); c.Run(ctx) }()
	defer func() { cancel(); resume(); <-ran }()

	deadline := time.Now().Add(2 * time.Second)
	for {
		// Jump on every poll: a watchdog that starts after a jump takes
		// its baseline from the jumped clock.
		clk.Jump(int64(time.Second))
		deg0, _ := c.Gateway(0).Degraded()
		deg1, reason := c.Gateway(1).Degraded()
		if deg0 && deg1 {
			if !strings.Contains(reason, "stale-ticks") {
				t.Fatalf("instance 1 degraded for %q, want stale-ticks", reason)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet tick wedged for 2s: instance 0 degraded %v, instance 1 degraded %v", deg0, deg1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsPoolsSigma: the fleet's σ is the pooled cross-section's, which
// includes the spread between the instances' means. Two instances with
// equal σᵢ and means 2 and 6 pool to σ² = σᵢ² + 4 — more than either
// instance's, where a flow-weighted average of σᵢ² reported σᵢ.
func TestStatsPoolsSigma(t *testing.T) {
	c := newTestCluster(t, 2, 100, Config{Policy: PlaceRoundRobin})
	for id, rate := range []float64{1, 5, 3, 7} { // round robin: 1, 3 on instance 0; 5, 7 on 1
		if d, err := c.Admit(uint64(id), rate); err != nil || !d.Admitted {
			t.Fatalf("Admit(%d) = %+v, %v", id, d, err)
		}
	}
	sts := c.Tick(1)
	if sts[0].Sigma != sts[1].Sigma || sts[0].Mu != 2 || sts[1].Mu != 6 {
		t.Fatalf("instances measured μ %g, %g and σ %g, %g; want 2, 6 and equal σ", sts[0].Mu, sts[1].Mu, sts[0].Sigma, sts[1].Sigma)
	}
	fleet := c.Stats()
	want := math.Sqrt(sts[0].Sigma*sts[0].Sigma + 4)
	if fleet.Mu != 4 || math.Abs(fleet.Sigma-want) > 1e-12 || !(fleet.Sigma > sts[0].Sigma) {
		t.Errorf("fleet μ %g σ %g, want 4 and %g (instance σ %g)", fleet.Mu, fleet.Sigma, want, sts[0].Sigma)
	}
}

// TestPinnedRouting checks that admitted flows route through their pins:
// UpdateRate and Depart reach the owning instance, and a departed flow's
// pin is released.
func TestPinnedRouting(t *testing.T) {
	c := newTestCluster(t, 3, 50, Config{})
	d, err := c.Admit(1, 1.0)
	if err != nil || !d.Admitted {
		t.Fatalf("Admit(1) = %+v, %v", d, err)
	}
	owner, ok := pinOf(c, 1)
	if !ok {
		t.Fatal("admitted flow has no pin")
	}
	if !c.Gateway(owner).Contains(1) {
		t.Fatalf("pin points at instance %d which does not hold the flow", owner)
	}
	if err := c.UpdateRate(1, 2.0); err != nil {
		t.Fatalf("UpdateRate through pin: %v", err)
	}
	if err := c.Touch(1); err != nil {
		t.Fatalf("Touch through pin: %v", err)
	}
	if err := c.Depart(1); err != nil {
		t.Fatalf("Depart through pin: %v", err)
	}
	if _, ok := pinOf(c, 1); ok {
		t.Fatal("departed flow still pinned")
	}
	if err := c.UpdateRate(1, 1.0); err == nil {
		t.Fatal("UpdateRate on a departed flow did not error")
	}
	if err := c.Depart(1); err == nil || err.Error() != "cluster: flow 1 is not active" {
		t.Fatalf("double Depart: error %v", err)
	}
}

// TestDrainMigratesWithoutLoss is the failover acceptance shape: draining
// an instance migrates its pinned flows, the fleet-wide lifecycle identity
// holds throughout, and no admitted flow is lost.
func TestDrainMigratesWithoutLoss(t *testing.T) {
	c := newTestCluster(t, 3, 100, Config{})
	var admitted []uint64
	for id := uint64(0); id < 60; id++ {
		d, err := c.Admit(id, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Admitted {
			admitted = append(admitted, id)
		}
		if id%10 == 9 {
			c.Tick(float64(id) / 10)
		}
	}
	before := c.Stats()
	if !before.LifecycleBalanced() {
		t.Fatalf("fleet lifecycle unbalanced before drain: %+v", before)
	}
	victimActive := c.Gateway(1).Active()
	migrated, left, err := c.Drain(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.State(1) != StateDraining {
		t.Fatalf("state after drain = %v", c.State(1))
	}
	if int64(migrated+left) != victimActive {
		t.Fatalf("drain accounted %d+%d flows, instance held %d", migrated, left, victimActive)
	}
	after := c.Stats()
	if !after.LifecycleBalanced() {
		t.Fatalf("fleet lifecycle unbalanced after drain: %+v", after)
	}
	if after.Active != before.Active {
		t.Fatalf("drain changed the fleet active count: %d -> %d", before.Active, after.Active)
	}
	// Every admitted flow is still reachable through its pin.
	for _, id := range admitted {
		owner, ok := pinOf(c, id)
		if !ok || !c.Gateway(owner).Contains(id) {
			t.Fatalf("flow %d lost after drain (pin %d, ok %t)", id, owner, ok)
		}
	}
	// A draining instance receives no new placements.
	d, err := c.Admit(1000, 1.0)
	if err != nil || !d.Admitted {
		t.Fatalf("Admit after drain = %+v, %v", d, err)
	}
	if owner, _ := pinOf(c, 1000); owner == 1 {
		t.Fatal("new flow placed on the draining instance")
	}
	if c.State(1) != StateDraining {
		t.Fatalf("state after drain = %v", c.State(1))
	}
	if _, _, err := c.Drain(99); err == nil {
		t.Fatal("Drain out of range did not error")
	}
}

// TestAllDrainingRefuses: with every instance draining, new flows are
// refused with the capacity reason rather than erroring, mirroring the
// gateway's refusal contract.
func TestAllDrainingRefuses(t *testing.T) {
	c := newTestCluster(t, 2, 50, Config{})
	for i := 0; i < 2; i++ {
		if _, _, err := c.Drain(i); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Admit(1, 1.0)
	if err != nil || d.Admitted || d.Reason != gateway.ReasonCapacity {
		t.Fatalf("Admit with all draining = %+v, %v", d, err)
	}
	ds, err := c.AdmitBatch([]uint64{2, 3}, []float64{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Admitted || d.Reason != gateway.ReasonCapacity {
			t.Fatalf("AdmitBatch with all draining produced %+v", d)
		}
	}
}

// TestAdmitPinnedFlowIsDuplicate: placement reads no pin, so a re-admitted
// pinned flow is refused by whichever instance placement sends it to — as
// a duplicate, under its shard lock — and never moves its pin or any
// instance's active count. Round-robin over two instances makes each
// placement observable: flow 1 is pinned on instance 0 and batch items
// alternate between the instances.
func TestAdmitPinnedFlowIsDuplicate(t *testing.T) {
	setup := func(t *testing.T) *Cluster {
		c := newTestCluster(t, 2, 50, Config{Policy: PlaceRoundRobin})
		if d, err := c.Admit(1, 1); err != nil || !d.Admitted {
			t.Fatalf("Admit(1) = %+v, %v", d, err)
		}
		if owner, ok := pinOf(c, 1); !ok || owner != 0 {
			t.Fatalf("flow 1 pinned to %d (ok %t), want instance 0", owner, ok)
		}
		return c
	}
	active := func(c *Cluster) [2]int64 { return [2]int64{c.Gateway(0).Active(), c.Gateway(1).Active()} }
	// admit re-admits flow 1 beside fresh, in the order given, and checks
	// that flow 1 is refused as a duplicate and fresh is admitted on
	// freshOwner — which pins down where the batch's placements went.
	admit := func(t *testing.T, c *Cluster, ids []uint64, fresh uint64, freshOwner int) {
		before := active(c)
		ds, err := c.AdmitBatch(ids, []float64{1, 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			switch d := ds[i]; {
			case id == 1 && (d.Admitted || d.Reason != gateway.ReasonDuplicate):
				t.Errorf("re-admitted pinned flow 1: %+v, want a duplicate refusal", d)
			case id == fresh && !d.Admitted:
				t.Errorf("fresh flow %d beside the duplicate: %+v", fresh, d)
			}
		}
		if owner, ok := pinOf(c, 1); !ok || owner != 0 || !c.Gateway(0).Contains(1) || c.Gateway(1).Contains(1) {
			t.Errorf("flow 1's pin moved to %d (ok %t)", owner, ok)
		}
		if owner, ok := pinOf(c, fresh); !ok || owner != freshOwner {
			t.Errorf("fresh flow %d pinned to %d (ok %t), want %d", fresh, owner, ok, freshOwner)
		}
		want := before
		want[freshOwner]++
		if got := active(c); got != want {
			t.Errorf("active per instance %v -> %v, want %v: only the fresh flow may count", before, got, want)
		}
		checkPinsExact(t, c)
	}
	t.Run("placed-elsewhere", func(t *testing.T) {
		// Flow 1 is placed on instance 1, flow 2 on instance 0.
		admit(t, setup(t), []uint64{1, 2}, 2, 0)
	})
	t.Run("placed-on-owner", func(t *testing.T) {
		// Flow 3 is placed on instance 1, flow 1 on its owner, instance 0.
		admit(t, setup(t), []uint64{3, 1}, 3, 1)
	})
	t.Run("all-draining", func(t *testing.T) {
		c := setup(t)
		for i := 0; i < 2; i++ {
			if _, _, err := c.Drain(i); err != nil {
				t.Fatal(err)
			}
		}
		owner, _ := pinOf(c, 1) // the first drain migrated it
		before := active(c)
		d, err := c.Admit(1, 1)
		if err != nil || d.Admitted || d.Reason != gateway.ReasonCapacity {
			t.Fatalf("re-Admit(1) with every instance draining = %+v, %v; want the capacity refusal", d, err)
		}
		if got, ok := pinOf(c, 1); !ok || got != owner || active(c) != before {
			t.Errorf("refusal moved flow 1: pin %d -> %d (ok %t), active %v -> %v", owner, got, ok, before, active(c))
		}
		checkPinsExact(t, c)
	})
}

// TestPoliciesSpreadPlacements: each policy places across more than one
// instance on a uniform workload.
func TestPoliciesSpreadPlacements(t *testing.T) {
	for _, policy := range []PlacementPolicy{PlaceLeastLoaded, PlaceWeighted, PlaceRoundRobin} {
		c := newTestCluster(t, 4, 40, Config{Policy: policy})
		for id := uint64(0); id < 80; id++ {
			if _, err := c.Admit(id, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		used := 0
		for i := 0; i < c.Instances(); i++ {
			if c.Gateway(i).Active() > 0 {
				used++
			}
		}
		if used < 2 {
			t.Errorf("policy %s placed 80 flows on %d instance(s)", policy, used)
		}
	}
}

// notOKEstimator never yields a valid estimate, so a gateway with an armed
// measurement watchdog degrades after StaleAfter ticks.
type notOKEstimator struct{}

func (notOKEstimator) Reset(float64)                      {}
func (notOKEstimator) Advance(float64)                    {}
func (notOKEstimator) Update(float64, float64, int)       {}
func (notOKEstimator) Estimate() (float64, float64, bool) { return 0, 0, false }
func (notOKEstimator) Name() string                       { return "not-ok" }

// TestDegradedScoredToBottom: a degraded instance keeps serving but only
// receives placements when no healthy instance exists.
func TestDegradedScoredToBottom(t *testing.T) {
	cfg := Config{}
	cfg.Instances = append(cfg.Instances, testGatewayConfig(t, 50, 0))
	degCfg := testGatewayConfig(t, 50, 0)
	degCfg.StaleAfter = 1
	degCfg.Estimator = notOKEstimator{} // trips the measurement watchdog
	cfg.Instances = append(cfg.Instances, degCfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the degraded instance with flows so the watchdog has >= 2 flows
	// to judge — placed there by draining the other — then tick it
	// degraded.
	if _, _, err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	for id := uint64(900); id < 902; id++ {
		if d, err := c.Admit(id, 1); err != nil || !d.Admitted {
			t.Fatalf("Admit(%d) = %+v, %v", id, d, err)
		}
		if owner, _ := pinOf(c, id); owner != 1 {
			t.Fatalf("flow %d placed on %d with instance 0 draining", id, owner)
		}
	}
	if !reactivate(c, 0) {
		t.Fatal("instance 0 was not draining")
	}
	c.Tick(1)
	c.Tick(2)
	if deg, _ := c.Gateway(1).Degraded(); !deg {
		t.Fatal("instance 1 did not degrade")
	}
	for id := uint64(0); id < 20; id++ {
		if _, err := c.Admit(id, 1.0); err != nil {
			t.Fatal(err)
		}
		if owner, _ := pinOf(c, id); owner == 1 {
			t.Fatalf("flow %d placed on the degraded instance while a healthy one exists", id)
		}
	}
	// Drain the healthy instance: the degraded one is the fallback pool,
	// not ejected.
	if _, _, err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	d, err := c.Admit(500, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := pinOf(c, 500); d.Admitted && (!ok || owner != 1) {
		t.Fatalf("fallback placement went to %d (ok %t), want the degraded instance 1", owner, ok)
	}
}

// TestSnapshotAndPrometheus smoke-checks the observability surface.
func TestSnapshotAndPrometheus(t *testing.T) {
	c := newTestCluster(t, 2, 50, Config{})
	for id := uint64(0); id < 10; id++ {
		if _, err := c.Admit(id, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick(1)
	if _, _, err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if len(snap.Instances) != 2 || snap.Policy != "least-loaded" {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if snap.Pinned != 10 || snap.Placements != 10 {
		t.Fatalf("snapshot pinned %d placements %d, want 10/10", snap.Pinned, snap.Placements)
	}
	if snap.Drains != 1 {
		t.Fatalf("snapshot drains %d, want 1", snap.Drains)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	snap.WritePrometheus(&sb)
	out := sb.String()
	for _, family := range []string{
		"mbac_cluster_instances", "mbac_cluster_pinned_flows",
		"mbac_cluster_placements_total", "mbac_cluster_migrations_total",
		"mbac_cluster_instance_bound{instance=\"0\"}",
		"mbac_cluster_instance_headroom{instance=\"1\"}",
		"mbac_cluster_instance_draining{instance=\"1\"} 1",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("prometheus output missing %q", family)
		}
	}
}

// recordingTarget wraps a replay target and records every decision, so two
// substrates' decision streams can be compared exactly.
type recordingTarget struct {
	inner interface {
		AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error)
		Depart(ctx context.Context, flow uint64) (bool, error)
		UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error)
	}
	decisions []gateway.Decision
	departs   []bool
	updates   []bool
}

func (t *recordingTarget) AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	ds, err := t.inner.AdmitBatch(ctx, flows, rates)
	t.decisions = append(t.decisions, ds...)
	return ds, err
}

func (t *recordingTarget) Depart(ctx context.Context, flow uint64) (bool, error) {
	ok, err := t.inner.Depart(ctx, flow)
	t.departs = append(t.departs, ok)
	return ok, err
}

func (t *recordingTarget) UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error) {
	ok, err := t.inner.UpdateRate(ctx, flow, rate)
	t.updates = append(t.updates, ok)
	return ok, err
}

// TestClusterOfOneDifferential is the satellite-4 contract: a cluster of
// one must be indistinguishable from a bare gateway on the same seeded
// workload — byte-identical decisions, snapshots, and QoS audit verdicts.
func TestClusterOfOneDifferential(t *testing.T) {
	const capacity, ttl = 30.0, 20.0
	events, err := loadgen.Schedule(loadgen.Config{
		Seed: 7, Lambda: 2, Hold: 5, SVR: 0.3, TC: 1, Duration: 60, ArrivalCV: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(tgt *recordingTarget, tick func(now float64) gateway.Stats) (loadgen.Stats, *qos.Audit) {
		audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: 0.01, Window: 1024})
		if err != nil {
			t.Fatal(err)
		}
		hook := func(now float64) {
			st := tick(now)
			audit.ObserveWith(st.AggregateRate > capacity, st.Degraded)
		}
		rst, err := loadgen.Replay(context.Background(), tgt, events, 8, 0.5, hook)
		if err != nil {
			t.Fatal(err)
		}
		// Drain ticks so leases expire and the lifecycle closes.
		for i := 1; i <= 50; i++ {
			hook(60 + float64(i)*0.5)
		}
		return rst, audit
	}

	bare, err := gateway.New(testGatewayConfig(t, capacity, ttl))
	if err != nil {
		t.Fatal(err)
	}
	bareTgt := &recordingTarget{inner: &loadgen.GatewayTarget{G: bare}}
	bareStats, bareAudit := run(bareTgt, bare.Tick)

	clu, err := New(Config{Instances: []gateway.Config{testGatewayConfig(t, capacity, ttl)}})
	if err != nil {
		t.Fatal(err)
	}
	cluTgt := &recordingTarget{inner: &ReplayTarget{C: clu}}
	cluStats, cluAudit := run(cluTgt, func(now float64) gateway.Stats { return clu.Tick(now)[0] })

	if bareStats != cluStats {
		t.Errorf("replay accounting diverged:\nbare    %+v\ncluster %+v", bareStats, cluStats)
	}
	if len(bareTgt.decisions) != len(cluTgt.decisions) {
		t.Fatalf("decision counts diverged: %d vs %d", len(bareTgt.decisions), len(cluTgt.decisions))
	}
	for i := range bareTgt.decisions {
		if bareTgt.decisions[i] != cluTgt.decisions[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, bareTgt.decisions[i], cluTgt.decisions[i])
		}
	}
	for i := range bareTgt.departs {
		if bareTgt.departs[i] != cluTgt.departs[i] {
			t.Fatalf("depart %d diverged", i)
		}
	}
	for i := range bareTgt.updates {
		if bareTgt.updates[i] != cluTgt.updates[i] {
			t.Fatalf("update %d diverged", i)
		}
	}

	bareSnap, err := json.Marshal(bare.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	cluSnap, err := json.Marshal(clu.Gateway(0).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(bareSnap) != string(cluSnap) {
		t.Errorf("snapshots diverged:\nbare    %s\ncluster %s", bareSnap, cluSnap)
	}

	if br, cr := bareAudit.Report(), cluAudit.Report(); br != cr {
		t.Errorf("qos audit reports diverged:\nbare    %+v\ncluster %+v", br, cr)
	}

	if fleet := clu.Stats(); fleet != bare.Stats() {
		t.Errorf("fleet stats diverged from bare gateway:\nbare    %+v\ncluster %+v", bare.Stats(), fleet)
	}
}

// TestClusterOfOneAggregateAdaptiveDifferential repeats the cluster-of-one
// differential with the aggregate-only estimator and the online time-scale
// controller attached: a one-instance fleet must stay byte-exact with a
// bare gateway even while both are retuning T_m from measured traffic, and
// neither side ever receives a per-flow rate update.
func TestClusterOfOneAggregateAdaptiveDifferential(t *testing.T) {
	const capacity, ttl = 30.0, 20.0
	events, err := loadgen.Schedule(loadgen.Config{
		Seed: 11, Lambda: 2, Hold: 5, SVR: 0.3, TC: 1, Duration: 60, ArrivalCV: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	aggCfg := func() gateway.Config {
		cfg := testGatewayConfig(t, capacity, ttl)
		cfg.Estimator = estimator.NewAggregateOnly(0.5, 4)
		tuner, err := adaptive.New(adaptive.Config{
			Capacity: capacity, Th: 20, PQ: 0.01, MaxLag: 8, Block: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tuner = tuner
		return cfg
	}

	run := func(tgt *recordingTarget, tick func(now float64) gateway.Stats) loadgen.Stats {
		hook := func(now float64) { tick(now) }
		rst, err := loadgen.Replay(context.Background(), tgt, events, 8, 0.5, hook)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 50; i++ {
			hook(60 + float64(i)*0.5)
		}
		return rst
	}

	bare, err := gateway.New(aggCfg())
	if err != nil {
		t.Fatal(err)
	}
	bareTgt := &recordingTarget{inner: &loadgen.GatewayTarget{G: bare}}
	bareStats := run(bareTgt, bare.Tick)

	clu, err := New(Config{Instances: []gateway.Config{aggCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	cluTgt := &recordingTarget{inner: &ReplayTarget{C: clu}}
	cluStats := run(cluTgt, func(now float64) gateway.Stats { return clu.Tick(now)[0] })

	if bareStats != cluStats {
		t.Errorf("replay accounting diverged:\nbare    %+v\ncluster %+v", bareStats, cluStats)
	}
	if len(bareTgt.decisions) != len(cluTgt.decisions) {
		t.Fatalf("decision counts diverged: %d vs %d", len(bareTgt.decisions), len(cluTgt.decisions))
	}
	for i := range bareTgt.decisions {
		if bareTgt.decisions[i] != cluTgt.decisions[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, bareTgt.decisions[i], cluTgt.decisions[i])
		}
	}

	bareSnap, err := json.Marshal(bare.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	cluSnap, err := json.Marshal(clu.Gateway(0).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(bareSnap) != string(cluSnap) {
		t.Errorf("snapshots diverged:\nbare    %s\ncluster %s", bareSnap, cluSnap)
	}
	bareTm, cluTm := bare.Snapshot().Tm, clu.Gateway(0).Snapshot().Tm
	if bareTm != cluTm {
		t.Errorf("retuned memories diverged: %g vs %g", bareTm, cluTm)
	}
	if bareTm == 0.5 {
		t.Error("controller never retuned: the differential would not exercise adaptation")
	}
}
