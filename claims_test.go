package mbac_test

// Executable statements of the paper's headline claims, phrased against
// the public API (the impulsive ensemble, which no program drives, through
// internal/sim). Each test is a claim a reader can run; together they are
// the library-level acceptance suite for the reproduction (the exhaustive
// validation lives in the internal packages and in cmd/figures).

import (
	"math"
	"testing"

	mbac "repro"
	"repro/internal/sim"
)

// paperSystem is the canonical configuration used across the claims:
// n = 100 flows of mean 1, sigma/mu = 0.3, burst scale Tc = 1.
func paperSystem(th float64) mbac.System {
	return mbac.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: th, Tc: 1}
}

// simulate runs a continuous-load simulation with the given controller
// target and memory window.
func simulate(t *testing.T, sys mbac.System, pce, tm float64, seed uint64) mbac.SimResult {
	t.Helper()
	ctrl, err := mbac.NewCertaintyEquivalent(pce, sys.Mu, sys.Sigma)
	if err != nil {
		t.Fatal(err)
	}
	var est mbac.Estimator = mbac.NewMemorylessEstimator()
	if tm > 0 {
		est = mbac.NewExponentialEstimator(tm)
	}
	res, err := mbac.Simulate(mbac.SimConfig{
		Capacity:    sys.Capacity,
		Model:       mbac.RCBR(sys.Mu, sys.Sigma/sys.Mu, sys.Tc),
		Controller:  ctrl,
		Estimator:   est,
		HoldingTime: sys.Th,
		Seed:        seed,
		Warmup:      sim.Warmup(sys.Tc, tm, sys.Th, sys.Capacity),
		MaxTime:     20000,
		Tc:          sys.Tc,
		Tm:          tm,
		TargetP:     pce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Claim (Prop. 3.3): unbiased measurement is not enough — the certainty-
// equivalent MBAC's overflow probability is Q(Q^-1(pq)/sqrt(2)), orders of
// magnitude off target, independent of system size.
func TestClaimSqrtTwoLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation claim")
	}
	ctrl, err := mbac.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []float64{100, 400} {
		res, err := sim.RunImpulsive(sim.ImpulsiveConfig{
			Capacity: n, Model: mbac.RCBR(1, 0.3, 1), Controller: ctrl,
			MeasureCount: int(n), Grid: []float64{12}, Replications: 4000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := res.PfAt[0].P()
		want := mbac.ImpulsiveOverflow(1e-2) // ~0.05
		if math.Abs(got-want) > 0.015 {
			t.Errorf("n=%v: pf = %v, sqrt-2 law says %v", n, got, want)
		}
		if got < 3e-2 {
			t.Errorf("n=%v: pf = %v should dwarf the 1e-2 target", n, got)
		}
	}
}

// Claim (Section 4): under continuous load the memoryless MBAC is worse
// still — every burst-scale estimation error within a critical time-scale
// is a chance to over-admit.
func TestClaimContinuousLoadWorseThanImpulsive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation claim")
	}
	sys := paperSystem(300)
	res := simulate(t, sys, 1e-2, 0, 11)
	if res.Pf <= mbac.ImpulsiveOverflow(1e-2) {
		t.Errorf("continuous-load pf %v should exceed the impulsive value %v",
			res.Pf, mbac.ImpulsiveOverflow(1e-2))
	}
}

// Claim (Section 5.3): the robust recipe — memory window = critical
// time-scale, adjusted target from the inverted overflow formula — meets
// the QoS while staying within a percent of the genie's utilization.
func TestClaimRobustRecipe(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation claim")
	}
	sys := paperSystem(300)
	plan, err := mbac.Plan(sys, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	robust := simulate(t, sys, plan.AdjustedPce, plan.MemoryTm, 13)
	if robust.Pf > 1e-2 {
		t.Errorf("robust pf = %v misses the 1e-2 target", robust.Pf)
	}

	genie, err := mbac.NewPerfectKnowledge(sys.Capacity, sys.Mu, sys.Sigma, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	genieRes, err := mbac.Simulate(mbac.SimConfig{
		Capacity: sys.Capacity, Model: mbac.RCBR(1, 0.3, 1), Controller: genie,
		Estimator: mbac.NewMemorylessEstimator(), HoldingTime: sys.Th,
		Seed: 13, Warmup: 600, MaxTime: 20000, Tc: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if genieRes.Utilization-robust.Utilization > 0.02 {
		t.Errorf("robustness cost too high: genie %v vs robust %v",
			genieRes.Utilization, robust.Utilization)
	}
}

// Claim (Section 3.1): the safety margin shrinks as 1/sqrt(n) — economies
// of scale in statistical multiplexing.
func TestClaimSqrtNEconomy(t *testing.T) {
	margin := func(n float64) float64 {
		return (n - mbac.AdmissibleFlows(n, 1, 0.3, 1e-3)) / n
	}
	m100, m400, m1600 := margin(100), margin(400), margin(1600)
	if !(m100 > m400 && m400 > m1600) {
		t.Fatalf("margins not decreasing: %v %v %v", m100, m400, m1600)
	}
	// Quadrupling n should halve the relative margin.
	if r := m100 / m400; math.Abs(r-2) > 0.25 {
		t.Errorf("scaling ratio %v, want ~2", r)
	}
}

// Claim (Section 5.3 / Figs 9-12): with Tm = T~h the correlation structure
// of the traffic — even its exact time-scale — barely matters: the theory
// keeps the overflow within a small factor of target for Tc spanning five
// decades.
func TestClaimCorrelationMasking(t *testing.T) {
	sys := paperSystem(1000)
	sys.Tm = sys.ThTilde()
	for _, tc := range []float64{0.01, 0.1, 1, 10, 100, 1000} {
		sys.Tc = tc
		pf := mbac.OverflowIntegral(sys, 1e-3)
		if pf > 2.5e-3 {
			t.Errorf("Tc=%v: pf %v escapes the masked band", tc, pf)
		}
	}
}

// Claim (Section 3.1): the two estimation errors are not equal — the
// sensitivity to the mean grows with sqrt(n) while the sensitivity to the
// standard deviation is size-free, so mean errors dominate at scale.
func TestClaimMeanErrorDominates(t *testing.T) {
	// |s_mu| grows by ~10 from n=100 to n=10000; |s_sigma| is unchanged.
	// (The theory package exposes these in closed form; here we verify
	// through the facade by finite differences of AdmissibleFlows.)
	perturb := func(c float64, dmu, dsigma float64) float64 {
		m := mbac.AdmissibleFlows(c, 1+dmu, 0.3+dsigma, 1e-3)
		// Achieved pf with true parameters when admitting m flows:
		return mbac.Q((c - m) / (0.3 * math.Sqrt(m)))
	}
	const h = 1e-6
	sMuSmall := (perturb(100, h, 0) - 1e-3) / h
	sMuBig := (perturb(10000, h, 0) - 1e-3) / h
	sSigSmall := (perturb(100, 0, h) - 1e-3) / h
	sSigBig := (perturb(10000, 0, h) - 1e-3) / h
	if r := sMuBig / sMuSmall; math.Abs(r-10) > 1 {
		t.Errorf("s_mu scaling %v, want ~10 (sqrt of n-ratio)", r)
	}
	if r := sSigBig / sSigSmall; math.Abs(r-1) > 0.05 {
		t.Errorf("s_sigma should be size-free, ratio %v", r)
	}
}
