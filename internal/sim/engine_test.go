package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gauss"
	"repro/internal/rng"
	"repro/internal/theory"
	"repro/internal/traffic"
)

func TestNewValidation(t *testing.T) {
	model := traffic.NewRCBR(1, 0.3, 1)
	pk, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	est := estimator.NewMemoryless()
	cases := []Config{
		{Capacity: 0, Model: model, Controller: pk, Estimator: est, MaxTime: 1},
		{Capacity: 100, Controller: pk, Estimator: est, MaxTime: 1},
		{Capacity: 100, Model: model, Estimator: est, MaxTime: 1},
		{Capacity: 100, Model: model, Controller: pk, MaxTime: 1},
		{Capacity: 100, Model: model, Controller: pk, Estimator: est, MaxTime: 0},
		{Capacity: 100, Model: model, Controller: pk, Estimator: est, MaxTime: 1, Warmup: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestConstantSourcesPeakRate(t *testing.T) {
	// 50 CBR flows of rate 2 on capacity 100: exact fill, zero overflow,
	// 100% utilization.
	e, err := New(Config{
		Capacity:   100,
		Model:      traffic.Constant{Rate: 2},
		Controller: core.PeakRate{Peak: 2},
		Estimator:  estimator.NewMemoryless(),
		Seed:       1,
		Warmup:     1,
		MaxTime:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows != 50 {
		t.Errorf("flows = %d, want 50", res.Flows)
	}
	if res.OverflowTimeFraction != 0 {
		t.Errorf("overflow = %v", res.OverflowTimeFraction)
	}
	if math.Abs(res.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1", res.Utilization)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		pk, _ := core.NewPerfectKnowledge(50, 1, 0.3, 1e-2)
		e, err := New(Config{
			Capacity:    50,
			Model:       traffic.NewRCBR(1, 0.3, 1),
			Controller:  pk,
			Estimator:   estimator.NewMemoryless(),
			HoldingTime: 20,
			Seed:        42,
			Warmup:      10,
			MaxTime:     200,
			Tc:          1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.OverflowTimeFraction != b.OverflowTimeFraction || a.Admitted != b.Admitted ||
		a.Events != b.Events || a.Utilization != b.Utilization {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) Result {
		pk, _ := core.NewPerfectKnowledge(50, 1, 0.3, 1e-2)
		e, _ := New(Config{
			Capacity: 50, Model: traffic.NewRCBR(1, 0.3, 1), Controller: pk,
			Estimator: estimator.NewMemoryless(), HoldingTime: 20,
			Seed: seed, Warmup: 10, MaxTime: 100, Tc: 1,
		})
		res, _ := e.Run()
		return res
	}
	if run(1).OverflowTimeFraction == run(2).OverflowTimeFraction {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestPerfectKnowledgeHitsTarget(t *testing.T) {
	// With the genie controller the flow count pins at floor(m*), so the
	// overflow fraction must match the Gaussian prediction for that count.
	const c, mu, sigma, pq = 100, 1.0, 0.3, 1e-2
	pk, err := core.NewPerfectKnowledge(c, mu, sigma, pq)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Capacity:    c,
		Model:       traffic.NewRCBR(mu, sigma/mu, 1),
		Controller:  pk,
		Estimator:   estimator.NewMemoryless(),
		HoldingTime: 50,
		Seed:        7,
		Warmup:      100,
		MaxTime:     40000,
		Tc:          1,
		TargetP:     pq,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := math.Floor(pk.MStar())
	want := gauss.Q((c - m*mu) / (sigma * math.Sqrt(m)))
	if res.Pf <= 0 {
		t.Fatalf("no overflow observed; pf=%v", res.Pf)
	}
	if ratio := res.Pf / want; ratio < 0.6 || ratio > 1.6 {
		t.Errorf("pf = %v, predicted %v (ratio %v)", res.Pf, want, ratio)
	}
	// The controller holds the system at exactly floor(m*) flows.
	if math.Abs(res.MeanFlows-m) > 0.2 {
		t.Errorf("mean flows = %v, want ~%v", res.MeanFlows, m)
	}
}

func TestMemorylessMBACMissesTarget(t *testing.T) {
	// The paper's central claim: the memoryless certainty-equivalent MBAC
	// under continuous load misses the target by a large factor.
	const c, mu, svr, pce = 100, 1.0, 0.3, 1e-2
	ce, err := core.NewCertaintyEquivalent(pce, mu, svr*mu)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Capacity:    c,
		Model:       traffic.NewRCBR(mu, svr, 1),
		Controller:  ce,
		Estimator:   estimator.NewMemoryless(),
		HoldingTime: 100, // ThTilde = 10, gamma = 3
		Seed:        11,
		Warmup:      200,
		MaxTime:     20000,
		Tc:          1,
		TargetP:     pce,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sys := theory.System{Capacity: c, Mu: mu, Sigma: svr * mu, Th: 100, Tc: 1, Tm: 0}
	predicted := theory.ContinuousOverflowIntegral(sys, pce)
	if res.Pf < 3*pce {
		t.Errorf("memoryless MBAC pf = %v should blow past the %v target", res.Pf, pce)
	}
	// Theory is expected to be conservative w.r.t. simulation (paper §5.2)
	// but in the same ballpark.
	if res.Pf > predicted*1.5 || res.Pf < predicted/6 {
		t.Errorf("pf = %v vs theory %v: outside plausible band", res.Pf, predicted)
	}
}

func TestMemoryImprovesOverMemoryless(t *testing.T) {
	// Figure 5's message: raising Tm slashes the overflow probability.
	run := func(tm float64) float64 {
		const c, mu, svr, pce = 100, 1.0, 0.3, 1e-2
		ce, _ := core.NewCertaintyEquivalent(pce, mu, svr*mu)
		var est estimator.Estimator
		if tm > 0 {
			est = estimator.NewExponential(tm)
		} else {
			est = estimator.NewMemoryless()
		}
		e, err := New(Config{
			Capacity: c, Model: traffic.NewRCBR(mu, svr, 1), Controller: ce,
			Estimator: est, HoldingTime: 100, Seed: 13,
			Warmup: 300, MaxTime: 15000, Tc: 1, Tm: tm, TargetP: pce,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Pf
	}
	memless := run(0)
	withMem := run(10) // Tm = ThTilde
	if withMem >= memless/2 {
		t.Errorf("memory should cut pf substantially: memoryless %v vs Tm=ThTilde %v", memless, withMem)
	}
}

func TestTrackAdmissible(t *testing.T) {
	ce, _ := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	e, err := New(Config{
		Capacity: 50, Model: traffic.NewRCBR(1, 0.3, 1), Controller: ce,
		Estimator: estimator.NewMemoryless(), HoldingTime: 50,
		Seed: 3, Warmup: 50, MaxTime: 500, Tc: 1, TrackAdmissible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAdmissible <= 0 || res.MeanAdmissible > 50 {
		t.Errorf("mean admissible = %v", res.MeanAdmissible)
	}
	if res.StdAdmissible <= 0 {
		t.Errorf("admissible process should fluctuate, std = %v", res.StdAdmissible)
	}
	// M_t should hover near m* for the same parameters.
	mstar := theory.AdmissibleFlows(50, 1, 0.3, 1e-2)
	if math.Abs(res.MeanAdmissible-mstar) > 5 {
		t.Errorf("mean admissible %v far from m* %v", res.MeanAdmissible, mstar)
	}
}

func TestInfiniteHoldingAccumulates(t *testing.T) {
	// With no departures, N_t = sup_s M_s is non-decreasing; admitted
	// should equal final flow count exactly and nothing departs.
	ce, _ := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
	e, err := New(Config{
		Capacity: 50, Model: traffic.NewRCBR(1, 0.3, 1), Controller: ce,
		Estimator: estimator.NewMemoryless(), HoldingTime: 0,
		Seed: 5, Warmup: 10, MaxTime: 200, Tc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != 0 {
		t.Errorf("departed = %d with infinite holding", res.Departed)
	}
	if int64(res.Flows) != res.Admitted {
		t.Errorf("flows %d != admitted %d", res.Flows, res.Admitted)
	}
}

func TestStoppingRuleResolvesEarly(t *testing.T) {
	// Large target -> overflow is frequent -> the CI rule should stop the
	// run long before the (huge) MaxTime.
	ce, _ := core.NewCertaintyEquivalent(0.2, 1, 0.3)
	e, err := New(Config{
		Capacity: 50, Model: traffic.NewRCBR(1, 0.3, 1), Controller: ce,
		Estimator: estimator.NewMemoryless(), HoldingTime: 20,
		Seed: 9, Warmup: 20, MaxTime: 1e7, Tc: 1, TargetP: 0.2, CheckEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Error("run should have resolved")
	}
	if res.SimTime >= 1e6 {
		t.Errorf("stopping rule did not fire: simulated %v", res.SimTime)
	}
	if res.Pf <= 0 {
		t.Errorf("pf = %v", res.Pf)
	}
}

func TestMaxEventsSafetyValve(t *testing.T) {
	pk, _ := core.NewPerfectKnowledge(50, 1, 0.3, 1e-2)
	e, err := New(Config{
		Capacity: 50, Model: traffic.NewRCBR(1, 0.3, 1), Controller: pk,
		Estimator: estimator.NewMemoryless(), HoldingTime: 20,
		Seed: 2, Warmup: 0, MaxTime: 1e9, Tc: 1, MaxEvents: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events > 5000 {
		t.Errorf("events = %d exceeds cap", res.Events)
	}
}

// brokenModel is an RCBR whose every flow returns the duration bad for its
// nth segment.
type brokenModel struct {
	traffic.RCBR
	nth int
	bad float64
}

func (m brokenModel) New(r *rng.PCG) traffic.Source {
	return &brokenSource{Source: m.RCBR.New(r), m: m}
}

type brokenSource struct {
	traffic.Source
	m brokenModel
	k int
}

func (s *brokenSource) Next() traffic.Segment {
	seg := s.Source.Next()
	if s.k++; s.k == s.m.nth {
		seg.Duration = s.m.bad
	}
	return seg
}

func TestInvalidSegmentDurationEndsRun(t *testing.T) {
	// A negative or NaN duration has no place in the event order: the run
	// must stop with an error naming the flow, whether the segment is a
	// flow's first (admitFlow) or a later one (nextSegment), instead of
	// queueing an event in the past.
	for _, tc := range []struct {
		name        string
		nth         int
		bad         float64
		arrivalRate float64
	}{
		{"negative first segment", 1, -1, 0},
		{"NaN first segment, Poisson arrivals", 1, math.NaN(), 5},
		{"NaN third segment", 3, math.NaN(), 0},
		{"-Inf second segment", 2, math.Inf(-1), 5},
	} {
		pk, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
		e, err := New(Config{
			Capacity: 100, Model: brokenModel{RCBR: traffic.NewRCBR(1, 0.3, 1), nth: tc.nth, bad: tc.bad},
			Controller: pk, Estimator: estimator.NewMemoryless(), HoldingTime: 100,
			ArrivalRate: tc.arrivalRate, Seed: 1, Warmup: 10, MaxTime: 100, Tc: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run()
		if err == nil || !strings.Contains(err.Error(), "sim: flow ") || !strings.Contains(err.Error(), "segment duration") {
			t.Errorf("%s: Run error = %v, want one naming the flow and its segment duration", tc.name, err)
		}
	}
	// Zero and +Inf are valid: a zero-length segment fires at once, an
	// endless one never.
	for _, ok := range []float64{0, math.Inf(1)} {
		pk, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
		e, err := New(Config{
			Capacity: 100, Model: brokenModel{RCBR: traffic.NewRCBR(1, 0.3, 1), nth: 2, bad: ok},
			Controller: pk, Estimator: estimator.NewMemoryless(), HoldingTime: 10,
			Seed: 1, Warmup: 10, MaxTime: 100, Tc: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := e.Run(); err != nil || res.Departed == 0 {
			t.Errorf("duration %g: %d departures, error %v", ok, res.Departed, err)
		}
	}
}

func TestOnOffWorkload(t *testing.T) {
	// The engine must work with a different source family; with perfect
	// knowledge the overflow should again track the Gaussian prediction
	// loosely (on-off marginals are Bernoulli, so CLT quality is lower).
	m := traffic.OnOff{PeakRate: 4, OnTime: 1, OffTime: 3} // mean 1, var 3
	st := m.Stats()
	pk, err := core.NewPerfectKnowledge(100, st.Mean, st.StdDev(), 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Capacity: 100, Model: m, Controller: pk,
		Estimator: estimator.NewMemoryless(), HoldingTime: 50,
		Seed: 21, Warmup: 100, MaxTime: 30000, Tc: st.CorrTime, TargetP: 1e-2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pf <= 0 || res.Pf > 0.2 {
		t.Errorf("on-off pf = %v implausible", res.Pf)
	}
}

func BenchmarkEngineRCBR(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		pk, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
		e, err := New(Config{
			Capacity: 100, Model: traffic.NewRCBR(1, 0.3, 1), Controller: pk,
			Estimator: estimator.NewMemoryless(), HoldingTime: 100,
			Seed: uint64(i), Warmup: 10, MaxTime: 1000, Tc: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineChurn stresses the arrival/departure path rather than the
// segment sampler: Poisson arrivals with a short holding time make flow
// turnover — slot recycling, a leaf of the flow queue set and cleared per
// flow (flowqueue.go), and the orphan heap's push and pop per departure
// (heap.go: with T_c >> T_h nearly every flow leaves its first segment end
// behind) — the dominant cost instead of rate redraws. Its allocs/op (held
// by TestEngineChurnAllocBudget) is what catches a per-admission allocation
// sneaking back into admitFlow or a queue's storage leaving the arena.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		events += engineChurn(b, uint64(i)).Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func engineChurn(tb testing.TB, seed uint64) Result {
	pk, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	e, err := New(Config{
		Capacity: 100, Model: traffic.NewRCBR(1, 0.3, 50), Controller: pk,
		Estimator: estimator.NewMemoryless(), HoldingTime: 2,
		ArrivalRate: 60, Seed: seed, Warmup: 5, MaxTime: 200, Tc: 50,
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestWarmupIsTheRunRule pins Warmup to the rule's expression, bit for bit,
// including a holding time of 0 (flows never depart), where only T_c and
// T_m count.
func TestWarmupIsTheRunRule(t *testing.T) {
	for _, c := range []struct{ tc, tm, th, n float64 }{
		{1, 0, 1000, 100}, // T~h = 100 dominates
		{1, 250, 1000, 100},
		{50, 10, 1000, 400},
		{1, 0, 0, 100},
		{0.3, 2.5, 0, 1e4},
		{1.1, 0.7, 3.3, 7},
	} {
		want := 20 * math.Max(c.tc, math.Max(c.tm, c.th/math.Sqrt(c.n)))
		if got := Warmup(c.tc, c.tm, c.th, c.n); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Warmup(%g, %g, %g, %g) = %v, want %v", c.tc, c.tm, c.th, c.n, got, want)
		}
	}
	if got := Warmup(1, 0, 1000, 100); got != 2000 {
		t.Errorf("Warmup at n=100, Th=1000, Tc=1 = %v, want 2000", got)
	}
}
