package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/theory"
	"repro/internal/traffic"
)

func TestRunImpulsiveValidation(t *testing.T) {
	model := traffic.NewRCBR(1, 0.3, 1)
	ce, _ := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	base := ImpulsiveConfig{
		Capacity: 100, Model: model, Controller: ce,
		MeasureCount: 100, Grid: []float64{1}, Replications: 10,
	}
	bad := base
	bad.Capacity = 0
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("capacity 0 should fail")
	}
	bad = base
	bad.Model = nil
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("nil model should fail")
	}
	bad = base
	bad.Replications = 0
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("0 replications should fail")
	}
	bad = base
	bad.MeasureCount = 1
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("MeasureCount 1 should fail")
	}
	bad = base
	bad.Grid = nil
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("empty grid should fail")
	}
	bad = base
	bad.Grid = []float64{3, 1}
	if _, err := RunImpulsive(bad); err == nil {
		t.Error("unsorted grid should fail")
	}
}

func TestImpulsiveAdmittedCountDistribution(t *testing.T) {
	// Proposition 3.1: M0 ~ Normal(m*, (sigma/mu)^2 n) for large n.
	const n, pce = 100.0, 1e-2
	model := traffic.NewRCBR(1, 0.3, 1)
	ce, _ := core.NewCertaintyEquivalent(pce, 1, 0.3)
	res, err := RunImpulsive(ImpulsiveConfig{
		Capacity: n, Model: model, Controller: ce,
		MeasureCount: int(n), HoldingTime: 0,
		Grid: []float64{10}, Replications: 3000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.M0.N() != 3000 {
		t.Errorf("replications recorded: %d, want 3000", res.M0.N())
	}
	pred := theory.ImpulsiveAdmittedCount(theory.System{Capacity: n, Mu: 1, Sigma: 0.3}, pce)
	// Integer truncation shifts the mean down by ~0.5.
	if math.Abs(res.M0.Mean()-(pred.Mean-0.5)) > 0.5 {
		t.Errorf("E[M0] = %v, theory %v", res.M0.Mean(), pred.Mean)
	}
	if math.Abs(res.M0.StdDev()-pred.StdDev) > 0.5 {
		t.Errorf("sd[M0] = %v, theory %v", res.M0.StdDev(), pred.StdDev)
	}
}

func TestImpulsiveSqrtTwoLaw(t *testing.T) {
	// Proposition 3.3: steady-state overflow probability of the impulsive
	// certainty-equivalent MBAC is Q(alpha/sqrt(2)), far above the target.
	const n, pce = 400.0, 1e-2
	model := traffic.NewRCBR(1, 0.3, 1)
	ce, _ := core.NewCertaintyEquivalent(pce, 1, 0.3)
	res, err := RunImpulsive(ImpulsiveConfig{
		Capacity: n, Model: model, Controller: ce,
		MeasureCount: int(n), HoldingTime: 0,
		// Probe long after Tc so Y_t is independent of Y_0.
		Grid: []float64{10, 20}, Replications: 6000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := theory.ImpulsiveOverflow(pce) // Q(2.326/sqrt2) ~ 0.05
	for gi, ctr := range res.PfAt {
		got := ctr.P()
		if math.Abs(got-want) > 0.012 {
			t.Errorf("grid %d: pf = %v, want ~%v (sqrt-2 law)", gi, got, want)
		}
		if got <= 2*pce {
			t.Errorf("grid %d: pf = %v should far exceed the %v target", gi, got, pce)
		}
	}
}

func TestImpulsivePerfectKnowledgeHitsTarget(t *testing.T) {
	// Baseline sanity: the genie controller admits m* and achieves ~p_q.
	const n, pq = 400.0, 2e-2
	model := traffic.NewRCBR(1, 0.3, 1)
	pk, _ := core.NewPerfectKnowledge(n, 1, 0.3, pq)
	res, err := RunImpulsive(ImpulsiveConfig{
		Capacity: n, Model: model, Controller: pk,
		MeasureCount: int(n), HoldingTime: 0,
		Grid: []float64{10}, Replications: 6000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.PfAt[0].P()
	if math.Abs(got-pq) > 0.008 {
		t.Errorf("perfect knowledge pf = %v, want ~%v", got, pq)
	}
	// M0 is deterministic for the genie.
	if res.M0.StdDev() != 0 {
		t.Errorf("genie M0 should not fluctuate: sd = %v", res.M0.StdDev())
	}
}

func TestImpulsiveFiniteHoldingProfile(t *testing.T) {
	// Eq. 21's shape: p_f(t) starts at ~0 (correlation), peaks near the
	// critical time-scale, then decays as flows depart.
	const n, pce, th = 100.0, 1e-2, 100.0 // ThTilde = 10
	model := traffic.NewRCBR(1, 0.3, 1)
	ce, _ := core.NewCertaintyEquivalent(pce, 1, 0.3)
	grid := []float64{0.05, 2, 5, 10, 40, 80}
	res, err := RunImpulsive(ImpulsiveConfig{
		Capacity: n, Model: model, Controller: ce,
		MeasureCount: int(n), HoldingTime: th,
		Grid: grid, Replications: 8000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(grid))
	for i, c := range res.PfAt {
		p[i] = c.P()
	}
	if p[0] > 0.01 {
		t.Errorf("p_f just after admission should be tiny, got %v", p[0])
	}
	peak := 0.0
	for _, v := range p {
		peak = math.Max(peak, v)
	}
	if peak < 0.01 {
		t.Errorf("no visible peak: %v", p)
	}
	if last := p[len(p)-1]; last > peak/2 {
		t.Errorf("departures should repair the error: late pf %v vs peak %v (%v)", last, peak, p)
	}
}

// TestImpulsiveDeterminism: the worker count is an input, not a knob, and
// the ensemble is the same bits at 1 and 3 Ps — whole M0 state and every
// probe counter — on both engines, below and above 64 replications.
func TestImpulsiveDeterminism(t *testing.T) {
	rcbr := traffic.NewRCBR(1, 0.3, 1)
	for _, model := range []traffic.Model{rcbr, struct{ traffic.Model }{rcbr}} {
		for _, reps := range []int{10, 130} {
			cfg := ImpulsiveConfig{
				Capacity: 50, Model: model, Controller: mustCE(t, 1e-2),
				MeasureCount: 50, HoldingTime: 10,
				Grid: []float64{1, 5}, Replications: reps, Seed: 99,
			}
			run := func(procs int) *ImpulsiveResult {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				res, err := RunImpulsive(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			assertImpulsiveEqual(t, run(1), run(3))
		}
	}
}

// impulsiveReplication returns the kernel behind every ensemble at the size
// the benchmark and its allocation gate share: ten replications of a
// 100-flow impulsive fill probed at three grid times.
func impulsiveReplication(tb testing.TB) func(seed uint64) {
	model := traffic.NewRCBR(1, 0.3, 1)
	ce, _ := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	return func(seed uint64) {
		if _, err := RunImpulsive(ImpulsiveConfig{
			Capacity: 100, Model: model, Controller: ce,
			MeasureCount: 100, HoldingTime: 100,
			Grid: []float64{1, 10, 50}, Replications: 10, Seed: seed,
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkImpulsiveReplication(b *testing.B) {
	run := impulsiveReplication(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(uint64(i))
	}
}
