package mbac

import (
	"math"
	"testing"
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
	in, cf := OverflowIntegral(sys, 1e-3), OverflowClosedForm(sys, 1e-3)
	if in <= 0 || cf <= 0 || math.Abs(math.Log(in/cf)) > 0.5 {
		t.Errorf("integral %v vs closed form %v", in, cf)
	}
	if q := Q(Qinv(0.01)); math.Abs(q-0.01) > 1e-9 {
		t.Errorf("Q/Qinv roundtrip: %v", q)
	}
	if tr := OverflowTransient(sys, 1e-3, 1e7); math.Abs(tr-in)/in > 1e-3 {
		t.Errorf("transient at large t %v vs steady %v", tr, in)
	}
	if b := ErlangB(10, 5); b <= 0 || b > 0.1 {
		t.Errorf("ErlangB(10,5) = %v", b)
	}
	// General-ACF path with a Markov fluid model.
	mmf, err := NewMarkovFluid([]float64{0.4, 1.6}, [][]float64{{-1, 1}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	st := mmf.Stats()
	gsys := System{Capacity: 100, Mu: st.Mean, Sigma: st.StdDev(), Th: 100, Tc: st.CorrTime}
	if p := OverflowGeneralACF(gsys, 1e-2, mmf.ACF(), mmf.ACFDerivative0()); p <= 0 || p > 1 {
		t.Errorf("general ACF overflow = %v", p)
	}
}

func TestFacadeImpulsive(t *testing.T) {
	ctrl, err := NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateImpulsive(ImpulsiveConfig{
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

func TestFacadePlanClosedForm(t *testing.T) {
	sys := System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
	a, err := Plan(sys, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanClosedForm(sys, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form and integral agree under separation (gamma = 30 here).
	if math.Abs(math.Log(a.AdjustedPce/b.AdjustedPce)) > 0.1 {
		t.Errorf("plans diverge: %v vs %v", a.AdjustedPce, b.AdjustedPce)
	}
}

func TestFacadeUtilities(t *testing.T) {
	if StepUtility(1)(0.99) != 0 || StepUtility(1)(1) != 1 {
		t.Error("step utility")
	}
	if LinearUtility()(0.5) != 0.5 {
		t.Error("linear utility")
	}
	if ConcaveUtility(10)(0.5) <= 0.5 {
		t.Error("concave utility should dominate linear inside (0,1)")
	}
	if ConvexUtility(4)(0.5) >= 0.5 {
		t.Error("convex utility should undercut linear inside (0,1)")
	}
}

func TestFacadeBayesianController(t *testing.T) {
	b, err := NewBayesianCE(1e-2, 50, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "bayesian-ce" {
		t.Error("name")
	}
	if got := b.Admissible(Measurement{Capacity: 100, Flows: 0, OK: false}); got <= 0 {
		t.Errorf("prior-only admissible = %v", got)
	}
}

func TestFacadeTrafficConstructors(t *testing.T) {
	if _, err := NewMarkovFluid([]float64{0, 1}, [][]float64{{-1, 1}, {1, -1}}); err != nil {
		t.Error(err)
	}
	if _, err := NewMixture([]TrafficModel{RCBR(1, 0.3, 1)}, []float64{1}); err != nil {
		t.Error(err)
	}
	onoff := OnOff{PeakRate: 1, OnTime: 1, OffTime: 1}
	if onoff.Stats().Mean != 0.5 {
		t.Error("on-off stats")
	}
	if (PeakRate{Peak: 2}).Admissible(Measurement{Capacity: 10}) != 5 {
		t.Error("peak rate")
	}
	if _, err := NewMeasuredSum(0.9, 1); err != nil {
		t.Error(err)
	}
	if _, err := NewPerfectKnowledge(100, 1, 0.3, 1e-3); err != nil {
		t.Error(err)
	}
	for _, e := range []Estimator{
		NewMemorylessEstimator(), NewExponentialEstimator(1),
		NewWindowEstimator(1), NewAggregateOnlyEstimator(1, 1),
		NewPerFlowEstimator(1),
	} {
		if e.Name() == "" {
			t.Error("estimator without name")
		}
	}
}
