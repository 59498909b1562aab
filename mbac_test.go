package mbac

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/theory"
)

func TestFacadePlanAndSimulate(t *testing.T) {
	sys := System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 300, Tc: 1}
	plan, err := Plan(sys, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MemoryTm <= 0 || plan.AdjustedPce <= 0 || plan.AdjustedPce >= 1e-2 {
		t.Fatalf("implausible plan %+v", plan)
	}

	ctrl, err := NewCertaintyEquivalent(plan.AdjustedPce, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		Capacity:    100,
		Model:       RCBR(1, 0.3, 1),
		Controller:  ctrl,
		Estimator:   NewExponentialEstimator(plan.MemoryTm),
		HoldingTime: 300,
		Seed:        1,
		Warmup:      600,
		MaxTime:     30000,
		Tc:          1,
		Tm:          plan.MemoryTm,
		TargetP:     1e-2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The robust plan should keep the overflow at or below the QoS target
	// (theory is conservative).
	if res.Pf > 1.5e-2 {
		t.Errorf("robust plan missed the target: pf = %v", res.Pf)
	}
	if res.Utilization <= 0.5 {
		t.Errorf("utilization = %v implausibly low", res.Utilization)
	}
}

func TestFacadeTheoryHelpers(t *testing.T) {
	if p := ImpulsiveOverflow(1e-5); p < 1.2e-3 || p > 1.4e-3 {
		t.Errorf("sqrt-2 law: %v", p)
	}
	if m := AdmissibleFlows(100, 1, 0.3, 1e-3); m <= 0 || m >= 100 {
		t.Errorf("m* = %v", m)
	}
	sys := System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1, Tm: 10}
	if p := OverflowIntegral(sys, 1e-3); p <= 0 || p >= 1 {
		t.Errorf("overflow integral = %v", p)
	}
	if q := Q(Qinv(0.01)); math.Abs(q-0.01) > 1e-9 {
		t.Errorf("Q/Qinv roundtrip: %v", q)
	}
}

func TestFacadeVideo(t *testing.T) {
	cfg := DefaultVideoConfig()
	cfg.N = 4096
	tr, err := SyntheticVideo(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if math.Abs(st.Mean-cfg.Mean) > 1e-9 {
		t.Errorf("trace mean %v", st.Mean)
	}
	// Trace plugs into the simulator as a model.
	var _ TrafficModel = TraceModel{Trace: tr}
}

func TestFacadeTrafficConstructors(t *testing.T) {
	if _, err := NewMixture([]TrafficModel{RCBR(1, 0.3, 1)}, []float64{1}); err != nil {
		t.Error(err)
	}
	if _, err := NewPerfectKnowledge(100, 1, 0.3, 1e-3); err != nil {
		t.Error(err)
	}
	for _, e := range []Estimator{
		NewMemorylessEstimator(), NewExponentialEstimator(1),
		NewAggregateOnlyEstimator(1, 1),
	} {
		if e.Name() == "" {
			t.Error("estimator without name")
		}
	}
}

// The facade's controller and traffic model drive the impulsive-load
// ensemble of Proposition 3.1 directly.
func TestFacadeImpulsive(t *testing.T) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunImpulsive(sim.ImpulsiveConfig{
		Capacity: 100, Model: RCBR(1, 0.3, 1), Controller: ctrl,
		MeasureCount: 100, Grid: []float64{10}, Replications: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.M0.N() != 500 {
		t.Errorf("replications recorded: %d", res.M0.N())
	}
}

// The facade's Plan (integral inversion) agrees with the closed-form
// inversion under separation of time scales (gamma = 30 here).
func TestFacadePlanClosedForm(t *testing.T) {
	sys := System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
	a, err := Plan(sys, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := theory.PlanRobust(sys, 1e-3, theory.InvertClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Log(a.AdjustedPce/b.AdjustedPce)) > 0.1 {
		t.Errorf("plans diverge: %v vs %v", a.AdjustedPce, b.AdjustedPce)
	}
}

// The Bayesian controller satisfies the facade's Controller and falls back
// to its prior before the estimator warms up.
func TestFacadeBayesianController(t *testing.T) {
	b, err := core.NewBayesianCE(1e-2, 50, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var ctrl Controller = b
	if ctrl.Name() != "bayesian-ce" {
		t.Error("name")
	}
	if got := ctrl.Admissible(core.Measurement{Capacity: 100, Flows: 0, OK: false}); got <= 0 {
		t.Errorf("prior-only admissible = %v", got)
	}
}

// A gateway built through the facade admits and departs without allocating
// once the flow's shard slot is warm.
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
		t.Fatalf("Admit/Depart through the facade allocates %.1f times per op, want 0", allocs)
	}
}
