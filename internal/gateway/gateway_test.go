package gateway

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/theory"
)

// perfectGateway builds a gateway with a fixed perfect-knowledge bound m*
// (oracle estimator), the configuration whose admissible count is known
// exactly — the reference for invariant checks.
func perfectGateway(t *testing.T, capacity, mu, sigma, pq float64, shards int) (*Gateway, float64) {
	t.Helper()
	ctrl, err := core.NewPerfectKnowledge(capacity, mu, sigma, pq)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   capacity,
		Controller: ctrl,
		Estimator:  &estimator.Oracle{Mu: mu, Sigma: sigma},
		Shards:     shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, ctrl.MStar()
}

func TestNewValidation(t *testing.T) {
	ctrl, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	est := &estimator.Oracle{Mu: 1, Sigma: 0.3}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{Controller: ctrl, Estimator: est}},
		{"negative capacity", Config{Capacity: -1, Controller: ctrl, Estimator: est}},
		{"nil controller", Config{Capacity: 100, Estimator: est}},
		{"nil estimator", Config{Capacity: 100, Controller: ctrl}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	g, err := New(Config{Capacity: 100, Controller: ctrl, Estimator: est, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.shards) != 8 {
		t.Errorf("shards = %d, want next power of two 8", len(g.shards))
	}
}

func TestAdmitDepartLifecycle(t *testing.T) {
	g, mstar := perfectGateway(t, 10, 1, 0, 1e-2, 2) // sigma=0: m* = 10 exactly
	if mstar != 10 {
		t.Fatalf("m* = %g, want 10", mstar)
	}
	for id := uint64(0); id < 10; id++ {
		d, err := g.Admit(id, 1)
		if err != nil || !d.Admitted {
			t.Fatalf("admit %d: %+v, %v", id, d, err)
		}
	}
	// The 11th flow must be refused with a capacity Decision, not an error.
	d, err := g.Admit(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted || d.Reason != ReasonCapacity {
		t.Fatalf("over-capacity admit: %+v", d)
	}
	if d.Reason.String() != "capacity" {
		t.Errorf("Reason.String() = %q", d.Reason.String())
	}
	// Duplicate active ID is an input error and must not leak a slot.
	if _, err := g.Admit(3, 1); err == nil {
		t.Fatal("duplicate admit: want error")
	}
	if got := g.Stats().Active; got != 10 {
		t.Fatalf("active = %d after duplicate admit, want 10", got)
	}
	// Invalid rates are errors.
	for _, r := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := g.Admit(99, r); err == nil {
			t.Errorf("admit rate %g: want error", r)
		}
	}
	// Rate renegotiation applies to active flows only.
	if err := g.UpdateRate(3, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateRate(77, 1); err == nil || err.Error() != "gateway: flow 77 is not active" {
		t.Fatalf("update of unknown flow: error %v", err)
	}
	if err := g.Touch(1 << 40); err == nil || err.Error() != "gateway: flow 1099511627776 is not active" {
		t.Fatalf("touch of unknown flow: error %v", err)
	}
	// Depart frees a slot for a new admission.
	if err := g.Depart(3); err != nil {
		t.Fatal(err)
	}
	if err := g.Depart(3); err == nil || err.Error() != "gateway: flow 3 is not active" {
		t.Fatalf("double depart: error %v", err)
	}
	if d, err := g.Admit(10, 1); err != nil || !d.Admitted {
		t.Fatalf("admit after depart: %+v, %v", d, err)
	}
	st := g.Stats()
	if st.Active != 10 || st.Admitted != 11 || st.Departed != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTickMeasuresCrossSection(t *testing.T) {
	pce := 1e-2
	ctrl, err := core.NewCertaintyEquivalent(pce, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   100,
		Controller: ctrl,
		Estimator:  estimator.NewMemoryless(),
		Shards:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before any measurement the bound comes from the bootstrap
	// declaration: the perfect-knowledge m* for (1, 0.3).
	boot := theory.AdmissibleFlows(100, 1, 0.3, pce)
	if got := g.Admissible(); math.Abs(got-boot) > 1e-9 {
		t.Fatalf("bootstrap bound = %g, want %g", got, boot)
	}
	rates := []float64{0.8, 1.2, 1.0, 1.4}
	for i, r := range rates {
		if _, err := g.Admit(uint64(i), r); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Tick(1)
	// The gateway measures each rate as it carries it, a whole number of
	// units u (see MaxRate), so the reference sums the carried rates.
	carried := func(r float64) float64 { return float64(fixed(r)) * unit }
	var sum, sumSq float64
	for _, r := range rates {
		sum += carried(r)
		sumSq += carried(r) * carried(r)
	}
	n := float64(len(rates))
	wantMu := sum / n
	wantSigma := math.Sqrt((sumSq - sum*wantMu) / (n - 1))
	if math.Abs(st.Mu-wantMu) > 1e-12 || math.Abs(st.Sigma-wantSigma) > 1e-12 {
		t.Fatalf("tick estimates (%g, %g), want (%g, %g)", st.Mu, st.Sigma, wantMu, wantSigma)
	}
	if !st.MeasurementOK || st.MeasuredFlows != len(rates) || math.Abs(st.AggregateRate-sum) > 1e-12 {
		t.Fatalf("tick snapshot: %+v", st)
	}
	want := theory.AdmissibleFlowsAlpha(100, wantMu, wantSigma, ctrl.Alpha())
	if math.Abs(st.Admissible-want) > 1e-9 {
		t.Fatalf("published bound %g, want %g", st.Admissible, want)
	}
	// UpdateRate feeds the next tick's cross-section.
	if err := g.UpdateRate(0, 2.0); err != nil {
		t.Fatal(err)
	}
	st = g.Tick(2)
	if math.Abs(st.AggregateRate-(sum-carried(0.8)+2.0)) > 1e-12 {
		t.Fatalf("aggregate after renegotiation = %g", st.AggregateRate)
	}
}

func TestVirtualClockDeterminism(t *testing.T) {
	build := func() *Gateway {
		ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Capacity:   50,
			Controller: ctrl,
			Estimator:  estimator.NewExponential(2),
			Shards:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	drive := func(g *Gateway) Stats {
		var st Stats
		for i := 0; i < 200; i++ {
			id := uint64(i)
			rate := 0.5 + float64(i%7)*0.2
			if d, _ := g.Admit(id, rate); d.Admitted && i%3 == 0 {
				if err := g.Depart(id); err != nil {
					t.Fatal(err)
				}
			}
			st = g.Tick(float64(i) * 0.1)
		}
		return st
	}
	a, b := drive(build()), drive(build())
	if a != b {
		t.Fatalf("virtual-clock replays diverged:\n%+v\n%+v", a, b)
	}
}

// TestConcurrentAdmitDepart is the table-driven race test of the issue: N
// goroutines hammer Admit/Depart against a fixed certainty-equivalent
// bound while a ticker thread remeasures, asserting that the active count
// never exceeds the bound and that the counters balance exactly. Run it
// under -race.
func TestConcurrentAdmitDepart(t *testing.T) {
	cases := []struct {
		name       string
		capacity   float64
		sigma      float64
		pq         float64
		shards     int
		goroutines int
		opsPerG    int
		churn      bool // depart some admitted flows mid-storm
	}{
		{"tight-2workers", 16, 0.3, 1e-2, 1, 2, 400, false},
		{"small-8workers", 32, 0.3, 1e-2, 4, 8, 300, true},
		{"medium-16workers", 100, 0.3, 1e-3, 8, 16, 250, true},
		{"wide-32workers", 100, 0.5, 1e-2, 32, 32, 150, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g, mstar := perfectGateway(t, tc.capacity, 1, tc.sigma, tc.pq, tc.shards)
			limit := int64(math.Floor(mstar))

			stop := make(chan struct{})
			var tickWG sync.WaitGroup
			tickWG.Add(1)
			go func() { // concurrent remeasurement
				defer tickWG.Done()
				now := 0.0
				for {
					select {
					case <-stop:
						return
					default:
						now += 0.01
						g.Tick(now)
					}
				}
			}()

			var (
				wg                           sync.WaitGroup
				admitted, rejected, departed atomic.Int64
				violations                   atomic.Int64
			)
			for w := 0; w < tc.goroutines; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					var mine []uint64
					for i := 0; i < tc.opsPerG; i++ {
						id := uint64(w)<<32 | uint64(i)
						d, err := g.Admit(id, 1)
						if err != nil {
							t.Error(err)
							return
						}
						if d.Admitted {
							admitted.Add(1)
							mine = append(mine, id)
							if d.Active > limit {
								violations.Add(1)
							}
						} else {
							rejected.Add(1)
						}
						if tc.churn && len(mine) > 0 && i%2 == 1 {
							victim := mine[len(mine)-1]
							mine = mine[:len(mine)-1]
							if err := g.Depart(victim); err != nil {
								t.Error(err)
								return
							}
							departed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			tickWG.Wait()

			if v := violations.Load(); v > 0 {
				t.Fatalf("%d admissions observed active > floor(m*) = %d", v, limit)
			}
			st := g.Stats()
			if st.Active > limit {
				t.Fatalf("final active %d exceeds bound %d", st.Active, limit)
			}
			if st.Admitted != admitted.Load() || st.Rejected != rejected.Load() || st.Departed != departed.Load() {
				t.Fatalf("counter mismatch: gateway %+v vs driver admitted=%d rejected=%d departed=%d",
					st, admitted.Load(), rejected.Load(), departed.Load())
			}
			if st.Admitted-st.Departed != st.Active {
				t.Fatalf("admitted-departed = %d, active = %d", st.Admitted-st.Departed, st.Active)
			}
			if got := admitted.Load() + rejected.Load(); got != int64(tc.goroutines*tc.opsPerG) {
				t.Fatalf("attempts = %d, want %d", got, tc.goroutines*tc.opsPerG)
			}
			// Drain: every admitted flow must still be departable, and the
			// shard aggregates must return to exactly zero.
			for w := 0; w < tc.goroutines; w++ {
				for i := 0; i < tc.opsPerG; i++ {
					id := uint64(w)<<32 | uint64(i)
					if err := g.Depart(id); err == nil {
						departed.Add(1)
					}
				}
			}
			st = g.Tick(1e9)
			if st.Active != 0 || st.MeasuredFlows != 0 || st.AggregateRate != 0 {
				t.Fatalf("after drain: %+v", st)
			}
			if st.Departed != st.Admitted {
				t.Fatalf("drain departed %d != admitted %d", st.Departed, st.Admitted)
			}
		})
	}
}

func TestRunWallClock(t *testing.T) {
	ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:     100,
		Controller:   ctrl,
		Estimator:    estimator.NewExponential(0.01),
		TickInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.Run(ctx)
		close(done)
	}()
	for i := 0; i < 20; i++ {
		if _, err := g.Admit(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for g.Stats().Ticks < 3 {
		select {
		case <-deadline:
			t.Fatal("wall-clock ticker did not fire")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if st := g.Stats(); !st.MeasurementOK || st.MeasuredFlows != 20 {
		t.Fatalf("wall-clock run stats: %+v", st)
	}
}
