package mbac_test

import (
	"fmt"
	"math"

	mbac "repro"
)

// The sqrt-2 law (Proposition 3.3): a memoryless certainty-equivalent MBAC
// targeting 1e-5 actually delivers about 1.3e-3 — two orders of magnitude
// worse — no matter how large the system.
func ExampleImpulsiveOverflow() {
	pf := mbac.ImpulsiveOverflow(1e-5)
	fmt.Printf("target 1e-5 -> delivered %.1e (%.0fx worse)\n", pf, pf/1e-5)
	// Output:
	// target 1e-5 -> delivered 1.3e-03 (128x worse)
}

// Planning a robust MBAC: the memory window equals the critical time-scale
// T~h = Th/sqrt(n) and the certainty-equivalent target comes from inverting
// the overflow formula.
func ExamplePlan() {
	sys := mbac.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
	plan, err := mbac.Plan(sys, 1e-3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Tm = %.0f, pce = %.1e, utilization cost = %.2f flows\n",
		plan.MemoryTm, plan.AdjustedPce, plan.UtilizationCost)
	// Output:
	// Tm = 100, pce = 4.9e-04, utilization cost = 0.62 flows
}

// How many flows fit on a link when the statistics are known (eq. 4): the
// safety margin scales as sqrt(n), so bigger links multiplex better.
func ExampleAdmissibleFlows() {
	for _, n := range []float64{100, 400, 1600} {
		m := mbac.AdmissibleFlows(n, 1, 0.3, 1e-3)
		fmt.Printf("n=%4.0f: m*=%7.1f margin=%.1f%%\n", n, m, 100*(n-m)/n)
	}
	// Output:
	// n= 100: m*=   91.1 margin=8.9%
	// n= 400: m*=  381.9 margin=4.5%
	// n=1600: m*= 1563.3 margin=2.3%
}

// The overflow formula with memory (eq. 37): more estimator memory, less
// overflow, with a knee at the critical time-scale.
func ExampleOverflowIntegral() {
	sys := mbac.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
	for _, tm := range []float64{0, 10, 100, 1000} {
		sys.Tm = tm
		fmt.Printf("Tm=%5.0f: pf = %.3g\n", tm, mbac.OverflowIntegral(sys, 1e-3))
	}
	// Output:
	// Tm=    0: pf = 0.728
	// Tm=   10: pf = 0.0131
	// Tm=  100: pf = 0.00199
	// Tm= 1000: pf = 0.0011
}

// A complete simulation: admit RCBR flows with a robustly configured MBAC
// and check the achieved QoS. (Seeds make this deterministic.)
func ExampleSimulate() {
	ctrl, err := mbac.NewCertaintyEquivalent(5e-3, 1, 0.3)
	if err != nil {
		panic(err)
	}
	res, err := mbac.Simulate(mbac.SimConfig{
		Capacity:    100,
		Model:       mbac.RCBR(1, 0.3, 1),
		Controller:  ctrl,
		Estimator:   mbac.NewExponentialEstimator(30),
		HoldingTime: 300,
		Seed:        42,
		Warmup:      600,
		MaxTime:     20000,
		Tc:          1,
		Tm:          30,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("pf below 1e-2: %v; utilization above 0.85: %v\n",
		res.Pf < 1e-2, res.Utilization > 0.85)
	// Output:
	// pf below 1e-2: true; utilization above 0.85: true
}

// Synthetic long-range-dependent video traffic (the Starwars substitute)
// plugs into the simulator like any other model.
func ExampleSyntheticVideo() {
	cfg := mbac.DefaultVideoConfig()
	cfg.N = 1 << 14
	tr, err := mbac.SyntheticVideo(cfg, 7)
	if err != nil {
		panic(err)
	}
	st := tr.Stats()
	fmt.Printf("mean=%.2f LRD=%v\n", st.Mean, tr.Hurst() > 0.7)
	var _ mbac.TrafficModel = mbac.TraceModel{Trace: tr}
	// Output:
	// mean=1.00 LRD=true
}

// Q and Qinv are exact inverses across the probability range the paper
// works in.
func ExampleQinv() {
	alpha := mbac.Qinv(1e-3)
	fmt.Printf("alpha_q = %.4f, round trip error %.0e\n",
		alpha, math.Abs(mbac.Q(alpha)-1e-3))
	// Output:
	// alpha_q = 3.0902, round trip error 0e+00
}

// The online gateway serves admission decisions from any goroutine against
// the last published bound; a measurement tick re-estimates (μ̂, σ̂) from
// the admitted flows and republishes it. Tick runs on a virtual clock, so
// the outcome is deterministic; Run(ctx) drives the same tick from a
// wall-clock ticker.
func ExampleNewGateway() {
	ctrl, err := mbac.NewCertaintyEquivalent(1e-2, 1, 0.3)
	if err != nil {
		panic(err)
	}
	g, err := mbac.NewGateway(mbac.GatewayConfig{
		Capacity:   100, // units of the mean flow rate
		Controller: ctrl,
		Estimator:  mbac.NewExponentialEstimator(30), // memory window Tm
		Shards:     16,
	})
	if err != nil {
		panic(err)
	}
	// Offer 120 flows of rate 0.6 or 1.2 against the bootstrap bound.
	admit := func(from, to uint64) (n int) {
		for id := from; id <= to; id++ {
			d, err := g.Admit(id, 0.6+0.6*float64(id%2)) // flowID, rate
			if err != nil {
				panic(err)
			}
			if d.Admitted {
				n++
			}
		}
		return n
	}
	fmt.Printf("bootstrap bound M=%.1f: admitted %d of 120\n", g.Stats().Admissible, admit(1, 120))
	st := g.Tick(0.5) // virtual-clock measurement
	fmt.Printf("measured mu=%.2f sigma=%.2f: bound M=%.1f\n", st.Mu, st.Sigma, st.Admissible)
	fmt.Printf("admitted %d more of 20\n", admit(121, 140))
	if err := g.Depart(1); err != nil {
		panic(err)
	}
	fmt.Printf("active after one departure: %d\n", g.Stats().Active)
	// Output:
	// bootstrap bound M=93.3: admitted 93 of 120
	// measured mu=0.90 sigma=0.30: bound M=102.8
	// admitted 9 more of 20
	// active after one departure: 101
}
