package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/loadgen"
)

// The cluster-churn schedule: Poisson arrivals at size.churnLambda (2000),
// exponential holding churnHold, so about 100k flows are resident once a
// replay is past its ramp; RCBR renegotiation every churnTC on average.
const (
	churnHold      = 50
	churnTC        = 16
	churnDuration  = 200
	churnInstances = 4
	churnBatch     = 16
	// churnAdmitShare sizes the fleet to this share of the offered
	// resident flows, so about one admit in twenty is refused once a
	// replay has filled the links.
	churnAdmitShare = 0.95
	// churnLeakAllowance is the share of admitted flows the oracle lets the
	// pin sweep leak. The workload runs the cluster as deployed, sweep on
	// (every 16 ticks), and that exposes a defect in the program: sweepPins,
	// running from Tick beside AdmitBatch, finds a flow's tentative pin
	// before the instance has admitted the flow, reaps it, and leaves the
	// flow admitted but unroutable. Its Depart reports not-active and its
	// slot stays taken; the next replay's admission of the same id either
	// lands on the same instance, is refused as a duplicate and pins the
	// flow again, or lands on another and admits it twice. Measured: 4 to
	// 40 flows of 9 to 14 M admitted in a 20 s run, at worst 4.3 per million. This change may not touch
	// the program, so the oracle counts the leak, prints it as a KNOWN
	// DEFECT, reports it as cluster.pin_leaks, and fails only past this
	// allowance, ten times the worst rate seen. The change that fixes the
	// race sets it to 0.
	churnLeakAllowance = 5e-5
	// churnSample is the latency sampling stride: one AdmitBatch call in
	// churnSample is timed per worker.
	churnSample = 16
)

func churnScheduleConfig(seed uint64) loadgen.Config {
	return loadgen.Config{
		Seed: mix(seed, 3), Lambda: size.churnLambda, Hold: churnHold,
		SVR: 0.3, TC: churnTC, Duration: churnDuration, Renegotiate: true,
	}
}

// churnInputs is what -seed decides for cluster-churn: the event schedule.
type churnInputs struct {
	events                   []loadgen.Event
	admits, departs, updates int64
}

func genChurn(seed uint64) (churnInputs, error) {
	events, err := loadgen.Schedule(churnScheduleConfig(seed))
	if err != nil {
		return churnInputs{}, err
	}
	in := churnInputs{events: events}
	for _, ev := range events {
		switch ev.Kind {
		case loadgen.KindAdmit:
			in.admits++
		case loadgen.KindDepart:
			in.departs++
		case loadgen.KindUpdate:
			in.updates++
		}
	}
	return in, nil
}

func (in churnInputs) hash() uint64 {
	h := fnv.New64a()
	var b [25]byte
	for _, ev := range in.events {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(ev.T))
		binary.LittleEndian.PutUint64(b[8:], ev.Flow)
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(ev.Rate))
		b[24] = byte(ev.Kind)
		h.Write(b[:])
	}
	return h.Sum64()
}

// churnGatewayConfig is a gateway on links instance links' worth of
// capacity. One link is sized, by the controller's own rule, so that the
// fleet of churnInstances carries churnAdmitShare of the offered resident
// flows.
func churnGatewayConfig(links float64) (gateway.Config, error) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		return gateway.Config{}, err
	}
	perInstance := math.Round(churnAdmitShare * size.churnLambda * churnHold / churnInstances)
	return gateway.Config{
		Capacity:      links * capacityFor(ctrl, 1, 0.3, perInstance),
		Controller:    ctrl,
		Estimator:     estimator.NewExponential(1),
		Shards:        64,
		LatencySample: 8,
		TickInterval:  10 * time.Millisecond,
		// Wall seconds under Run: longer than any replay, so the lease
		// sweep scans the whole table every time and reclaims nothing.
		FlowTTL: 60,
	}, nil
}

func newChurnCluster() (*cluster.Cluster, error) {
	cfg := cluster.Config{Policy: cluster.PlaceLeastLoaded, TickInterval: 10 * time.Millisecond}
	for i := 0; i < churnInstances; i++ {
		gc, err := churnGatewayConfig(1)
		if err != nil {
			return nil, err
		}
		cfg.Instances = append(cfg.Instances, gc)
	}
	return cluster.New(cfg)
}

type churnInstance struct {
	notes
	in          churnInputs
	c           *cluster.Cluster
	p           int
	tr          *tracer
	stopRun     context.CancelFunc
	bg          sync.WaitGroup // Cluster.Run and, traced, the pin sampler
	scheduleDur time.Duration

	replays  int64
	sum      loadgen.Stats
	peakPins atomic.Int64 // largest pin table the sampler saw
}

func setupChurn(seed uint64, p int, tr *tracer) (instance, error) {
	t0 := time.Now()
	in, err := genChurn(seed)
	if err != nil {
		return nil, err
	}
	scheduleDur := time.Since(t0)
	c, err := newChurnCluster()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ci := &churnInstance{in: in, c: c, p: p, tr: tr, stopRun: cancel, scheduleDur: scheduleDur}
	ci.bg.Add(1)
	go func() {
		defer ci.bg.Done()
		c.Run(ctx)
	}()
	if tr != nil {
		// Traced: look at the pin table now and then. A Snapshot walks the
		// whole table under its locks, so not as often as the tick runs.
		ci.bg.Add(1)
		go func() {
			defer ci.bg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					ci.peakPins.Store(max(ci.peakPins.Load(), c.Snapshot().Pinned))
				}
			}
		}()
	}
	return ci, nil
}

// churnTarget is the loadgen.Target one replay worker drives: the
// cluster's ReplayTarget, with every event counted as an op and one
// AdmitBatch call in churnSample timed.
type churnTarget struct {
	inner cluster.ReplayTarget
	rec   *recorder
	tr    *tracer
	d     int
	calls uint
}

func (t *churnTarget) AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	t.calls++
	if t.calls%churnSample != 0 {
		ds, err := t.inner.AdmitBatch(ctx, flows, rates)
		t.book(int64(len(flows)), 0, err)
		return ds, err
	}
	t0 := time.Now()
	ds, err := t.inner.AdmitBatch(ctx, flows, rates)
	lat := time.Since(t0)
	if t.tr != nil {
		end := t.tr.now()
		t.tr.add(spClusterAdmitBatch, uint32(t.d), end-int64(lat), end, len(flows))
	}
	t.book(int64(len(flows)), lat, err)
	return ds, err
}

func (t *churnTarget) Depart(ctx context.Context, flow uint64) (bool, error) {
	ok, err := t.inner.Depart(ctx, flow)
	t.book(1, 0, err)
	return ok, err
}

func (t *churnTarget) UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error) {
	ok, err := t.inner.UpdateRate(ctx, flow, rate)
	t.book(1, 0, err)
	return ok, err
}

func (t *churnTarget) book(ops int64, lat time.Duration, err error) {
	switch {
	case err != nil:
		t.rec.fail(t.d, ops)
	case lat > 0:
		t.rec.done(t.d, ops, lat)
	default:
		t.rec.count(t.d, ops)
	}
}

// drive replays the schedule back to back; a replay that has begun is
// finished, so the accounting identities hold at the end.
func (ci *churnInstance) drive(rec *recorder) {
	for !rec.stopped.Load() {
		st, err := loadgen.Run(context.Background(), func(w int) loadgen.Target {
			return &churnTarget{inner: cluster.ReplayTarget{C: ci.c}, rec: rec, tr: ci.tr, d: w}
		}, ci.in.events, loadgen.RunConfig{Workers: ci.p, Batch: churnBatch})
		if err != nil {
			ci.note("replay %d: %v", ci.replays, err)
			return
		}
		ci.replays++
		ci.sum.Admitted += st.Admitted
		ci.sum.Rejected += st.Rejected
		ci.sum.Departed += st.Departed
		ci.sum.NotActive += st.NotActive
		ci.sum.Updated += st.Updated
		ci.sum.UpdateMissed += st.UpdateMissed
	}
}

// pinLeaks counts the flows the pin sweep made unroutable: those the
// fleet still holds after every flow's Depart was sent, and those a later
// replay's admission found again — the duplicate refusals, which the
// drivers see and no instance counts as a rejection.
func (ci *churnInstance) pinLeaks() int64 {
	st := ci.c.Stats()
	return st.Active + ci.sum.Rejected - st.Rejected
}

func (ci *churnInstance) verify() []string {
	v := ci.lines()
	n, st, sum := ci.replays, ci.c.Stats(), ci.sum
	if sum.Admitted+sum.Rejected != n*ci.in.admits {
		v = append(v, fmt.Sprintf("admitted %d + rejected %d != %d admit events", sum.Admitted, sum.Rejected, n*ci.in.admits))
	}
	if sum.Departed+sum.NotActive != n*ci.in.departs {
		v = append(v, fmt.Sprintf("departed %d + not-active %d != %d depart events", sum.Departed, sum.NotActive, n*ci.in.departs))
	}
	if sum.Updated+sum.UpdateMissed != n*ci.in.updates {
		v = append(v, fmt.Sprintf("updated %d + missed %d != %d update events", sum.Updated, sum.UpdateMissed, n*ci.in.updates))
	}
	if st.Admitted != sum.Admitted || st.Departed != sum.Departed || st.Rejected > sum.Rejected {
		v = append(v, fmt.Sprintf("fleet counters %+v disagree with the drivers' %+v", st, sum))
	}
	if st.Admitted-st.Departed-st.Expired != st.Active || !st.LifecycleBalanced() {
		v = append(v, fmt.Sprintf("fleet lifecycle unbalanced: %+v", st))
	}
	if st.Expired != 0 {
		v = append(v, fmt.Sprintf("%d leases expired under a FlowTTL longer than the run", st.Expired))
	}
	leaks, allowed := ci.pinLeaks(), int64(math.Ceil(churnLeakAllowance*float64(st.Admitted)))
	if leaks > 0 {
		fmt.Printf("KNOWN DEFECT: the pin sweep leaked %d of %d admitted flows, %d still active (see README.md)\n", leaks, st.Admitted, st.Active)
	}
	if leaks > allowed {
		v = append(v, fmt.Sprintf("fleet not drained: %d flows leaked, %d still active; the known pin-sweep leak is allowed %d", leaks, st.Active, allowed))
	}
	return v
}

func (ci *churnInstance) close() {
	ci.stopRun()
	ci.bg.Wait()
}

// kindCost sums the time one kind of Target call took.
type kindCost struct {
	items int64
	dur   time.Duration
}

func (k *kindCost) add(items int, t0 time.Time) {
	k.items += int64(items)
	k.dur += time.Since(t0)
}

func (k kindCost) perItem() float64 { return float64(k.dur) / math.Max(1, float64(k.items)) }

// timedTarget times every call a single-goroutine replay makes into a
// Target, by kind.
type timedTarget struct {
	inner                 loadgen.Target
	admits, departs, upds kindCost
}

func (t *timedTarget) AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	t0 := time.Now()
	ds, err := t.inner.AdmitBatch(ctx, flows, rates)
	t.admits.add(len(flows), t0)
	return ds, err
}

func (t *timedTarget) Depart(ctx context.Context, flow uint64) (bool, error) {
	t0 := time.Now()
	ok, err := t.inner.Depart(ctx, flow)
	t.departs.add(1, t0)
	return ok, err
}

func (t *timedTarget) UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error) {
	t0 := time.Now()
	ok, err := t.inner.UpdateRate(ctx, flow, rate)
	t.upds.add(1, t0)
	return ok, err
}

func (t *timedTarget) total() time.Duration { return t.admits.dur + t.departs.dur + t.upds.dur }

// noopTarget admits everything and does nothing: what a replay costs when
// the substrate is free.
type noopTarget struct{ ds []gateway.Decision }

func (t *noopTarget) AdmitBatch(_ context.Context, flows []uint64, _ []float64) ([]gateway.Decision, error) {
	t.ds = t.ds[:0]
	for range flows {
		t.ds = append(t.ds, gateway.Decision{Admitted: true})
	}
	return t.ds, nil
}
func (t *noopTarget) Depart(context.Context, uint64) (bool, error)              { return true, nil }
func (t *noopTarget) UpdateRate(context.Context, uint64, float64) (bool, error) { return true, nil }

// replayCost is the generator's own cost: ns per event of a replay into
// the no-op target.
func replayCost(events []loadgen.Event) float64 {
	if len(events) == 0 {
		return 0
	}
	t0 := time.Now()
	if _, err := loadgen.Replay(context.Background(), &noopTarget{}, events, churnBatch, 0, nil); err != nil {
		return 0
	}
	return float64(time.Since(t0)) / float64(len(events))
}

func churnLayers(t *tracedPass, out metricSet) {
	ci := t.inst.(*churnInstance)
	events := ci.in.events
	n := float64(len(events))
	ctx := context.Background()

	st := ci.c.Stats()
	out["gateway.reject_share"] = float64(st.Rejected) / float64(st.Admitted+st.Rejected)
	out["gateway.admitbatch_p99_us_under_tick"] = t.agg[spClusterAdmitBatch].p(0.99) / 1e3
	out["cluster.pins_resident"] = float64(ci.peakPins.Load())
	out["cluster.pin_leaks"] = float64(ci.pinLeaks())
	snap := ci.c.Snapshot()
	var most, sum float64
	for _, in := range snap.Instances {
		sum += float64(in.Admitted)
		most = math.Max(most, float64(in.Admitted))
	}
	out["cluster.placement_imbalance"] = most / (sum / float64(len(snap.Instances)))
	out["loadgen.schedule_ns_per_event"] = float64(ci.scheduleDur) / n
	out["loadgen.replay_ns_per_event"] = replayCost(events)

	// The same schedule, one goroutine, virtual clock: through a fresh
	// cluster, then through one bare gateway of the fleet's summed capacity.
	const window = 0.1 // virtual time between ticks: 2000 ticks a replay
	c, err := newChurnCluster()
	if err != nil {
		ci.note("%v", err)
		return
	}
	ct := &timedTarget{inner: &cluster.ReplayTarget{C: c}}
	var ticks kindCost
	if _, err := loadgen.Replay(ctx, ct, events, churnBatch, window, func(now float64) {
		t0 := time.Now()
		c.Tick(now)
		ticks.add(1, t0)
	}); err != nil {
		ci.note("%v", err)
	}
	out["cluster.admitbatch_ns_per_decision"] = ct.admits.perItem()
	out["cluster.depart_ns"] = ct.departs.perItem()
	out["cluster.updaterate_ns"] = ct.upds.perItem()
	out["cluster.tick_us"] = ticks.perItem() / 1e3

	gc, err := churnGatewayConfig(churnInstances)
	if err != nil {
		ci.note("%v", err)
		return
	}
	g, err := gateway.New(gc)
	if err != nil {
		ci.note("%v", err)
		return
	}
	gt := &timedTarget{inner: &loadgen.GatewayTarget{G: g}}
	if _, err := loadgen.Replay(ctx, gt, events, churnBatch, window, func(now float64) { g.Tick(now) }); err != nil {
		ci.note("%v", err)
	}
	out["gateway.admitbatch_ns_per_decision"] = gt.admits.perItem()
	out["gateway.updaterate_ns"] = gt.upds.perItem()
	out["cluster.route_overhead_ns_per_op"] = float64(ct.total()-gt.total()) / n

	// What the benchmark's own wrapper adds per event, against what a
	// worker spends per event in the traced phase.
	wrapped := &churnTarget{rec: newRecorder(1)}
	t0 := time.Now()
	for i := 0; i < 1<<20; i++ {
		wrapped.book(1, 0, nil)
	}
	bookNs := float64(time.Since(t0)) / (1 << 20)
	out["harness.client_cpu_share"] = bookNs / (float64(ci.p) * float64(t.wall) / float64(t.ops))

	tickLayers(out)
}
