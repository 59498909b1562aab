package loadgen

import (
	"context"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/flowtab"
	"repro/internal/gateway"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/traffic"
)

func testConfig() Config {
	return Config{Seed: 7, Lambda: 3, Hold: 12, SVR: 0.3, TC: 1, Duration: 60}
}

// newGateway's capacity is small enough that the offered load forces
// rejections.
func newGateway(tb testing.TB) *gateway.Gateway { return newGatewayCap(tb, 25) }

func newGatewayCap(tb testing.TB, capacity float64) *gateway.Gateway {
	tb.Helper()
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	var lat atomic.Int64
	g, err := gateway.New(gateway.Config{
		Capacity:     capacity,
		Controller:   ctrl,
		Estimator:    estimator.NewMemoryless(),
		Shards:       4,
		EstimateRing: 8,
		LatencyClock: func() int64 { return lat.Add(1) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestScheduleDeterminism(t *testing.T) {
	a, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	admits, departs := 0, 0
	for _, ev := range a {
		switch ev.Kind {
		case KindAdmit:
			admits++
		case KindDepart:
			departs++
		}
	}
	if admits == 0 || admits != departs {
		t.Fatalf("schedule has %d admits, %d departs", admits, departs)
	}
	other := testConfig()
	other.Seed = 8
	c, err := Schedule(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if _, err := Schedule(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestReplayMatchesAcrossSubstrates is the end-to-end acceptance check for
// the serving layer: the same seeded schedule replayed (a) against an
// in-process gateway and (b) through client -> server -> an identically
// configured gateway must yield identical admit/reject/depart counts —
// the wire protocol, the server's micro-batching and the client's
// request correlation are all transparent to the admission outcome.
func TestReplayMatchesAcrossSubstrates(t *testing.T) {
	events, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const batch, window = 8, 0.5

	// Substrate (a): the in-process gateway.
	gA := newGateway(t)
	direct, err := Replay(context.Background(), &GatewayTarget{G: gA}, events, batch, window,
		func(now float64) { gA.Tick(now) })
	if err != nil {
		t.Fatal(err)
	}

	// Substrate (b): an identical gateway behind the network stack.
	gB := newGateway(t)
	srv, err := server.New(server.Config{Gateway: gB})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cl, err := client.New(client.Config{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The tick hook fires between windows, after every response for the
	// window has been received (Replay is synchronous), so both gateways
	// measure exactly the same populations.
	netted, err := Replay(context.Background(), ClientTarget{C: cl}, events, batch, window,
		func(now float64) { gB.Tick(now) })
	if err != nil {
		t.Fatal(err)
	}

	if direct != netted {
		t.Fatalf("substrates disagree:\n  in-process %+v\n  networked  %+v", direct, netted)
	}
	if direct.Admitted == 0 || direct.Rejected == 0 {
		t.Fatalf("degenerate workload (no admissions or no rejections): %+v", direct)
	}
	// Sanity: the two gateways finished in the same admission state.
	sa, sb := gA.Stats(), gB.Stats()
	if sa.Admitted != sb.Admitted || sa.Rejected != sb.Rejected ||
		sa.Departed != sb.Departed || sa.Active != sb.Active {
		t.Fatalf("gateway states diverged:\n  in-process %+v\n  networked  %+v", sa, sb)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunConcurrent exercises the open-loop concurrent runner against the
// in-process gateway: totals must account for every scheduled event even
// though cross-flow interleaving is nondeterministic. With one worker
// nothing is left to race, and Run must count exactly what Replay counts —
// they drive the same loop.
func TestRunConcurrent(t *testing.T) {
	events, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	for _, ev := range events {
		if ev.Kind == KindAdmit {
			flows++
		}
	}
	for _, workers := range []int{1, 4, 500} { // 500: more workers than flows, so some own nothing
		g := newGateway(t)
		st, err := Run(context.Background(), func(int) Target { return &GatewayTarget{G: g} },
			events, RunConfig{Workers: workers, Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		if int(st.Admitted+st.Rejected) != flows {
			t.Fatalf("%d workers: decided %d flows, scheduled %d: %+v", workers, st.Admitted+st.Rejected, flows, st)
		}
		if int(st.Departed+st.NotActive) != flows {
			t.Fatalf("%d workers: departed %d flows, scheduled %d: %+v", workers, st.Departed+st.NotActive, flows, st)
		}
		if st.Departed != st.Admitted {
			t.Fatalf("%d workers: departed %d but admitted %d", workers, st.Departed, st.Admitted)
		}
		if workers == 1 {
			want, err := Replay(context.Background(), &GatewayTarget{G: newGateway(t)}, events, 8, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st != want {
				t.Fatalf("single-worker Run %+v != Replay %+v", st, want)
			}
		}
	}
}

// TestRunnerWindowsKeepFlowOrder replays a renegotiating schedule the way
// cmd/gateway does — tick-sized windows, concurrent workers, a measurement
// tick between windows — into a gateway whose bound never binds. Flows
// shard to workers by id and a worker's position survives the window
// boundary, so no update or depart can overtake its own flow's admit:
// every event must land on an active flow.
func TestRunnerWindowsKeepFlowOrder(t *testing.T) {
	cfg := testConfig()
	cfg.Renegotiate = true
	events, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for _, ev := range events {
		switch ev.Kind {
		case KindAdmit:
			want.Admitted++
		case KindDepart:
			want.Departed++
		case KindUpdate:
			want.Updated++
		}
	}
	g := newGatewayCap(t, 1e6)
	r := NewRunner(func(int) Target { return &GatewayTarget{G: g} }, events, RunConfig{Workers: 5, Batch: 4})
	for now := 0.0; now < cfg.Duration; {
		now += 0.5
		if err := r.Advance(context.Background(), now); err != nil {
			t.Fatal(err)
		}
		g.Tick(now)
	}
	if st := r.Stats(); st != want || want.Updated == 0 {
		t.Fatalf("windowed replay lost per-flow order: got %+v, want %+v", st, want)
	}
	if active := g.Stats().Active; active != 0 {
		t.Fatalf("%d flows still active after every depart", active)
	}
}

// recordingTarget accepts every call and counts, per flow, the events its
// worker dispatched.
type recordingTarget struct{ seen map[uint64]int }

func (r *recordingTarget) AdmitBatch(_ context.Context, flows []uint64, _ []float64) ([]gateway.Decision, error) {
	ds := make([]gateway.Decision, len(flows))
	for i, f := range flows {
		r.seen[f]++
		ds[i].Admitted = true
	}
	return ds, nil
}

func (r *recordingTarget) Depart(_ context.Context, flow uint64) (bool, error) {
	r.seen[flow]++
	return true, nil
}

func (r *recordingTarget) UpdateRate(_ context.Context, flow uint64, _ float64) (bool, error) {
	r.seen[flow]++
	return true, nil
}

// TestRunnerLanesOwnShards: a Runner hands each flow's events to the one
// worker laneOf names — the shard hash modulo Workers — so with a
// power-of-two worker count dividing a gateway's 64 shards, gateway shard
// k is driven by worker k % Workers alone.
func TestRunnerLanesOwnShards(t *testing.T) {
	cfg := testConfig()
	cfg.Renegotiate = true
	events, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	for _, ev := range events {
		want[ev.Flow]++
	}
	const shards = 64
	for _, workers := range []int{2, 4} {
		targets := make([]*recordingTarget, workers)
		for w := range targets {
			targets[w] = &recordingTarget{seen: map[uint64]int{}}
		}
		if _, err := Run(context.Background(), func(w int) Target { return targets[w] }, events,
			RunConfig{Workers: workers, Batch: 4}); err != nil {
			t.Fatal(err)
		}
		got := map[uint64]int{}
		for w, tgt := range targets {
			for flow, n := range tgt.seen {
				if _, dup := got[flow]; dup {
					t.Errorf("%d workers: flow %d reached more than one worker", workers, flow)
				}
				got[flow] = n
				if lw := flowtab.Mix(flow) % uint64(workers); lw != uint64(w) {
					t.Errorf("%d workers: flow %d driven by worker %d, want %d", workers, flow, w, lw)
				}
				if k := int(flowtab.Mix(flow) % shards); k%workers != w {
					t.Errorf("%d workers: shard %d driven by worker %d, want %d", workers, k, w, k%workers)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: per-flow event counts differ from the schedule's", workers)
		}
	}
}

// TestNewRunnerAllocsIndependentOfEvents: building a Runner allocates the
// same for any schedule — the lanes keep a cursor into the shared events,
// nothing per event. The schedules are one renegotiating flow each, the
// most uneven a lane's share can be.
func TestNewRunnerAllocsIndependentOfEvents(t *testing.T) {
	oneFlow := func(n int) []Event {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{T: float64(i), Kind: KindUpdate, Flow: 7, Rate: 1}
		}
		events[0].Kind, events[n-1].Kind = KindAdmit, KindDepart
		return events
	}
	tgt := &GatewayTarget{}
	allocs := func(events []Event) float64 {
		return testing.AllocsPerRun(20, func() {
			NewRunner(func(int) Target { return tgt }, events, RunConfig{Workers: 4, Batch: 8})
		})
	}
	if small, large := allocs(oneFlow(1_000)), allocs(oneFlow(100_000)); small != large {
		t.Fatalf("NewRunner allocates %g times for 1k events, %g for 100k", small, large)
	}
}

// TestScheduleNewKnobs covers the scenario-tier schedule extensions:
// Gamma-burst arrivals, the flash-crowd window, and client plans (lying
// declarations with trailing updates, leaked departs).
func TestScheduleNewKnobs(t *testing.T) {
	count := func(evs []Event) (admits, departs, updates int) {
		for _, ev := range evs {
			switch ev.Kind {
			case KindAdmit:
				admits++
			case KindDepart:
				departs++
			case KindUpdate:
				updates++
			}
		}
		return
	}

	t.Run("gamma-bursts", func(t *testing.T) {
		cfg := testConfig()
		cfg.ArrivalCV = 3.5
		a, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("gamma schedule not deterministic")
		}
		poisson, err := Schedule(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, poisson) {
			t.Fatal("CV=3.5 produced the Poisson schedule")
		}
		// CV=1 Gamma is the exponential: must hit the historical draws exactly.
		cv1 := testConfig()
		cv1.ArrivalCV = 1
		c, err := Schedule(cv1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c, poisson) {
			t.Fatal("CV=1 diverged from the Poisson schedule")
		}
	})

	t.Run("flash-crowd", func(t *testing.T) {
		cfg := testConfig()
		cfg.Crowd = Crowd{Factor: 8, From: 20, To: 40}
		evs, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, out := 0, 0
		for _, ev := range evs {
			if ev.Kind != KindAdmit {
				continue
			}
			if ev.T >= 20 && ev.T < 40 {
				in++
			} else {
				out++
			}
		}
		// The crowd window is 20 of 60 time units at 8x intensity: it must
		// dominate the arrival count.
		if in <= out {
			t.Fatalf("crowd window got %d admits vs %d outside", in, out)
		}
	})

	t.Run("lying-clients", func(t *testing.T) {
		cfg := testConfig()
		cfg.Plan.Lie = 0.5
		evs, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		admits, departs, updates := count(evs)
		if updates != admits || departs != admits {
			t.Fatalf("want one update and one depart per admit, got %d/%d/%d", admits, departs, updates)
		}
		byFlow := map[uint64][2]float64{}
		for _, ev := range evs {
			v := byFlow[ev.Flow]
			switch ev.Kind {
			case KindAdmit:
				v[0] = ev.Rate
			case KindUpdate:
				v[1] = ev.Rate
			}
			byFlow[ev.Flow] = v
		}
		for f, v := range byFlow {
			if v[0] != v[1]*0.5 {
				t.Fatalf("flow %d declared %g for actual %g, want half", f, v[0], v[1])
			}
		}
	})

	t.Run("leaky-clients", func(t *testing.T) {
		cfg := testConfig()
		cfg.Plan.LeakP = 0.5
		cfg.Plan.Lie = 1
		evs, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		admits, departs, _ := count(evs)
		if departs >= admits || departs == 0 {
			t.Fatalf("LeakP=0.5 got %d departs for %d admits", departs, admits)
		}
	})

	t.Run("invalid", func(t *testing.T) {
		for name, mut := range map[string]func(*Config){
			"nan-cv":       func(c *Config) { c.ArrivalCV = math.NaN() },
			"neg-cv":       func(c *Config) { c.ArrivalCV = -1 },
			"crowd-factor": func(c *Config) { c.Crowd = Crowd{Factor: 0.5, From: 0, To: 1} },
			"crowd-window": func(c *Config) { c.Crowd = Crowd{Factor: 2, From: 5, To: 5} },
			"leak-p":       func(c *Config) { c.Plan.LeakP = 1.5 },
			"negative-lie": func(c *Config) { c.Plan.Lie = -1 },
		} {
			cfg := testConfig()
			mut(&cfg)
			if _, err := Schedule(cfg); err == nil {
				t.Errorf("%s: invalid config accepted", name)
			}
		}
	})
}

// TestScheduleRejectsNonFinite: a NaN or infinite rate, holding time,
// duration, svr or tc is an error, returned promptly. Unchecked, +Inf
// lambda makes every interarrival 0 and the arrival walk never ends, and
// the others put NaN into the schedule's times or rates. Each field is
// tried with and without an explicit Model, so svr and tc are rejected
// even where they are not required.
func TestScheduleRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Config, float64){
		"lambda":   func(c *Config, v float64) { c.Lambda = v },
		"hold":     func(c *Config, v float64) { c.Hold = v },
		"duration": func(c *Config, v float64) { c.Duration = v },
		"svr":      func(c *Config, v float64) { c.SVR = v },
		"tc":       func(c *Config, v float64) { c.TC = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, model := range []traffic.Model{nil, traffic.NewRCBR(1, 0.3, 1)} {
				cfg := testConfig()
				cfg.Renegotiate, cfg.Model = true, model
				set(&cfg, v)
				done := make(chan error, 1)
				go func() {
					_, err := Schedule(cfg)
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil {
						t.Errorf("%s = %g (model %v): accepted", name, v, model)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s = %g (model %v): Schedule did not return", name, v, model)
				}
			}
		}
	}
}

// TestReplayUpdates checks that KindUpdate events reach the substrate and
// that the gateway sees the corrected (actual) rate after a lying admit.
func TestReplayUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Plan.Lie = 0.5
	events, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateway(t)
	st, err := Replay(context.Background(), &GatewayTarget{G: g}, events, 16, 1, func(now float64) { g.Tick(now) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Updated == 0 {
		t.Fatal("no updates landed")
	}
	if st.Updated+st.UpdateMissed != st.Admitted+st.Rejected {
		t.Fatalf("update accounting: %d updated + %d missed != %d decisions",
			st.Updated, st.UpdateMissed, st.Admitted+st.Rejected)
	}
	if st.UpdateMissed != st.Rejected {
		t.Fatalf("missed updates %d should equal rejections %d (updates arrive before any depart)",
			st.UpdateMissed, st.Rejected)
	}
}

// TestScheduleShift pins the mid-run model shift: the pre-shift prefix is
// bit-identical to the unshifted schedule (same arrivals, same rates), and
// flows arriving after the shift draw from the replacement model.
func TestScheduleShift(t *testing.T) {
	base := testConfig()
	plain, err := Schedule(base)
	if err != nil {
		t.Fatal(err)
	}
	shifted := base
	shifted.ShiftAt = 30
	shifted.ShiftModel = traffic.NewRCBR(1, 0.3, 25) // same marginal, longer T_c
	got, err := Schedule(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain) {
		t.Fatalf("shift changed the event count: %d vs %d", len(got), len(plain))
	}
	// Same-marginal RCBR models draw the identical first segment rate from
	// the per-flow stream, so with this shift model the whole schedule —
	// arrival times, flow IDs, rates — must match the unshifted one.
	for i := range got {
		if got[i] != plain[i] {
			t.Fatalf("event %d diverged under a same-marginal shift: %+v vs %+v", i, got[i], plain[i])
		}
	}
	// A shift that changes the marginal must leave every pre-shift admit
	// untouched and move at least one post-shift rate.
	hot := base
	hot.ShiftAt = 30
	hot.ShiftModel = traffic.NewRCBR(2, 0.3, 1)
	got2, err := Schedule(hot)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range got2 {
		if got2[i].T < 30 {
			if got2[i] != plain[i] {
				t.Fatalf("pre-shift event %d diverged: %+v vs %+v", i, got2[i], plain[i])
			}
		} else if got2[i].Kind == KindAdmit && got2[i].Rate != plain[i].Rate {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no post-shift admit drew from the replacement model")
	}
	if _, err := Schedule(Config{
		Lambda: 1, Hold: 1, Duration: 1, SVR: 0.3, TC: 1,
		ShiftAt: math.Inf(1), ShiftModel: traffic.NewRCBR(1, 0.3, 1),
	}); err == nil {
		t.Fatal("infinite shift time accepted")
	}
}

// TestScheduleRenegotiate: with renegotiation on, every flow redraws its
// rate at its model's segment boundaries — updates appear between admit
// and depart, strictly inside the holding interval — while the admit and
// depart events themselves keep the historical stream bit for bit.
func TestScheduleRenegotiate(t *testing.T) {
	base := testConfig()
	plain, err := Schedule(base)
	if err != nil {
		t.Fatal(err)
	}
	reneg := base
	reneg.Renegotiate = true
	got, err := Schedule(reneg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= len(plain) {
		t.Fatalf("renegotiation added no updates: %d events vs %d", len(got), len(plain))
	}
	// Admits and departs are unchanged; updates land inside each flow's
	// lifetime.
	window := map[uint64][2]float64{}
	var nonUpdates []Event
	for _, ev := range got {
		switch ev.Kind {
		case KindAdmit:
			w := window[ev.Flow]
			window[ev.Flow] = [2]float64{ev.T, w[1]}
			nonUpdates = append(nonUpdates, ev)
		case KindDepart:
			w := window[ev.Flow]
			window[ev.Flow] = [2]float64{w[0], ev.T}
			nonUpdates = append(nonUpdates, ev)
		}
	}
	if len(nonUpdates) != len(plain) {
		t.Fatalf("admit/depart count changed: %d vs %d", len(nonUpdates), len(plain))
	}
	for i := range nonUpdates {
		if nonUpdates[i] != plain[i] {
			t.Fatalf("admit/depart stream diverged at %d: %+v vs %+v", i, nonUpdates[i], plain[i])
		}
	}
	updates := 0
	for _, ev := range got {
		if ev.Kind != KindUpdate {
			continue
		}
		updates++
		w := window[ev.Flow]
		if ev.T < w[0] || (w[1] > 0 && ev.T >= w[1]) {
			t.Fatalf("update for flow %d at %g outside its lifetime [%g, %g)", ev.Flow, ev.T, w[0], w[1])
		}
		if ev.Rate < 0 || math.IsNaN(ev.Rate) || math.IsInf(ev.Rate, 0) {
			t.Fatalf("update rate %g invalid", ev.Rate)
		}
	}
	// Mean segment length is TC=1 against mean hold 12: renegotiation
	// should produce roughly hold/TC updates per flow, far more than one.
	if updates < len(window)*3 {
		t.Fatalf("only %d updates across %d flows — segment walk is not advancing", updates, len(window))
	}
	// Determinism: an identical config reproduces the identical schedule.
	again, err := Schedule(reneg)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Fatalf("renegotiated schedule not deterministic: %d vs %d events", len(again), len(got))
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("renegotiated schedule diverged at event %d", i)
		}
	}
}

// TestImpulsiveFillRedraw: a fill stops at the bound's first refusal with
// exactly the admitted flows active, near the certainty-equivalent m*; the
// redraw then re-measures those same flows at fresh rates. Both are
// deterministic in the substream.
func TestImpulsiveFillRedraw(t *testing.T) {
	model := traffic.NewRCBR(1, 0.3, 1)
	run := func() (int, gateway.Stats, gateway.Stats) {
		g := newGatewayCap(t, 100)
		r := rng.New(0x696d70, 1)
		m0, err := ImpulsiveFill(g, model, r)
		if err != nil {
			t.Fatal(err)
		}
		filled := g.Stats()
		redrawn, err := ImpulsiveRedraw(g, model, r, m0)
		if err != nil {
			t.Fatal(err)
		}
		return m0, filled, redrawn
	}
	m0, filled, redrawn := run()
	if filled.Active != int64(m0) || filled.Admitted != int64(m0) || filled.Rejected != 1 {
		t.Fatalf("fill admitted %d, gateway says %+v", m0, filled)
	}
	if m0 < 80 || m0 > 100 { // m* = 93.3 at n = 100, SVR 0.3, p_q = 1e-2; sd 3
		t.Fatalf("fill admitted %d flows, far from m* = 93", m0)
	}
	if redrawn.MeasuredFlows != m0 || redrawn.AggregateRate == filled.AggregateRate || redrawn.LastTick != 1e6 {
		t.Fatalf("redraw did not re-measure the %d admitted flows: before %+v after %+v", m0, filled, redrawn)
	}
	if m, f, r := run(); m != m0 || f != filled || r != redrawn {
		t.Fatal("same substream produced a different replication")
	}
}

// TestScheduleSizesFromModel: a schedule's list is allocated once, at the
// length its count pass found, whatever model draws its segments — an RCBR
// given by TC or as Model, an on-off source whose correlation time (0.099
// here) is not its mean segment (5.05), and a shift between two RCBRs.
func TestScheduleSizesFromModel(t *testing.T) {
	byTC := Config{Seed: 5, Lambda: 1, Hold: 150, SVR: 0.3, TC: 1.25, Duration: 1000, Renegotiate: true}
	byModel := byTC
	byModel.SVR, byModel.TC, byModel.Model = 0, 0, traffic.NewRCBR(1, 0.3, 1.25)
	a, err := Schedule(byTC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(byModel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same RCBR given as Model and by TC made different schedules")
	}
	onOff := byModel
	onOff.Model = traffic.OnOff{PeakRate: 1, OnTime: 0.1, OffTime: 10}
	shift := byTC
	shift.ShiftAt, shift.ShiftModel = 400, traffic.NewRCBR(1, 0.3, 0.25)
	for name, cfg := range map[string]Config{"rcbr-by-tc": byTC, "rcbr-model": byModel, "on-off": onOff, "shift": shift} {
		ev, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev) == 0 || cap(ev) != len(ev) {
			t.Errorf("%s: %d events in a list of capacity %d", name, len(ev), cap(ev))
		}
	}
}
