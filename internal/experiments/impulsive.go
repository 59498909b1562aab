package experiments

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// impulsiveReps scales replication counts by fidelity.
func impulsiveReps(f Fidelity, base int) int {
	switch f {
	case Quick:
		return base
	case Standard:
		return base * 8
	default:
		return base * 64
	}
}

// impulsive runs the impulsive-load ensemble of Section 3 for a
// certainty-equivalent MBAC measuring n flows at target pce.
func impulsive(n, svr, tc, th, pce float64, grid []float64, reps int, seed uint64) (*sim.ImpulsiveResult, error) {
	ce, err := core.NewCertaintyEquivalent(pce, 1, svr)
	if err != nil {
		return nil, err
	}
	return sim.RunImpulsive(sim.ImpulsiveConfig{
		Capacity: n, Model: traffic.NewRCBR(1, svr, tc), Controller: ce,
		MeasureCount: int(n), HoldingTime: th,
		Grid: grid, Replications: reps, Seed: seed,
	})
}

func runProp31(f Fidelity, seed uint64) ([]*Table, error) {
	const svr, pce = 0.3, 1e-2
	t := &Table{
		ID:      "prop31",
		Title:   "Admitted count M0: simulation vs heavy-traffic theory (pce=1e-2, sigma/mu=0.3)",
		Columns: []string{"n", "sim_mean_M0", "th_mean_M0", "sim_sd_M0", "th_sd_M0", "mstar_exact"},
	}
	reps := impulsiveReps(f, 1500)
	err := sweep(t, []float64{100, 400, 1600}, func(_ int, n float64) ([]float64, error) {
		res, err := impulsive(n, svr, 1, 0, pce, []float64{1}, reps, seed+uint64(n))
		if err != nil {
			return nil, err
		}
		pred := theory.ImpulsiveAdmittedCount(theory.System{Capacity: n, Mu: 1, Sigma: svr}, pce)
		return []float64{n, res.M0.Mean(), pred.Mean, res.M0.StdDev(), pred.StdDev,
			theory.AdmissibleFlows(n, 1, svr, pce)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Note("theory: E[M0] = n - (sigma alpha/mu) sqrt(n), sd[M0] = (sigma/mu) sqrt(n) (eq. 11)")
	t.Note("replications per n: %d", reps)
	return []*Table{t}, nil
}

func runProp33(f Fidelity, seed uint64) ([]*Table, error) {
	const svr = 0.3
	t := &Table{
		ID:      "prop33",
		Title:   "The sqrt(2) law: achieved p_f of the impulsive certainty-equivalent MBAC",
		Columns: []string{"p_q", "n", "pf_sim", "pf_theory", "miss_factor", "pf_adjusted_sim", "pce_adjusted"},
	}
	type point struct {
		pq   float64
		n    float64
		reps int
	}
	points := []point{
		{1e-2, 400, impulsiveReps(f, 4000)},
		{1e-3, 400, impulsiveReps(f, 20000)},
	}
	switch f {
	case Quick:
		// Smoke budget: ~50 overflows per row at the unadjusted target,
		// which is what the miss factor is read from.
		points[0].reps, points[1].reps = 1000, 4000
	case Full:
		// The paper's flagship example needs ~1e6 replications to resolve
		// p_f ~ 1.3e-3 from a 1e-5 target.
		points = append(points, point{1e-5, 900, 1000000})
	}
	err := sweep(t, points, func(_ int, p point) ([]float64, error) {
		// Probe well past Tc so Y_t is independent of the admission-time
		// fluctuation: the steady state of Proposition 3.3.
		res, err := impulsive(p.n, svr, 1, 0, p.pq, []float64{15}, p.reps, seed+uint64(p.n))
		if err != nil {
			return nil, err
		}
		// Re-run with the adjusted certainty-equivalent target (eq. 15):
		// achieved p_f should drop back to ~p_q.
		pceAdj := theory.ImpulsiveAdjustedTarget(p.pq)
		resAdj, err := impulsive(p.n, svr, 1, 0, pceAdj, []float64{15}, p.reps, seed+1+uint64(p.n))
		if err != nil {
			return nil, err
		}
		pfSim := res.PfAt[0].P()
		return []float64{p.pq, p.n, pfSim, theory.ImpulsiveOverflow(p.pq), pfSim / p.pq, resAdj.PfAt[0].P(), pceAdj}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Note("pf_theory = Q(Q^-1(p_q)/sqrt(2)); paper example: p_q=1e-5 -> 1.3e-3")
	t.Note("pf_adjusted_sim uses p_ce = Q(sqrt(2) Q^-1(p_q)) and should be ~p_q")
	return []*Table{t}, nil
}

func runFiniteHolding(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, th, pce = 100.0, 0.3, 1.0, 100.0, 1e-2 // ThTilde = 10
	sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc}
	t := &Table{
		ID:      "finite",
		Title:   "Impulsive load with finite holding: p_f(t) simulation vs eq. 21",
		Columns: []string{"t", "pf_sim", "pf_eq21", "ci_halfwidth"},
	}
	grid := []float64{0.1, 0.3, 1, 2, 3, 5, 8, 12, 20, 30, 50, 80}
	res, err := impulsive(n, svr, tc, th, pce, grid, impulsiveReps(f, 6000), seed)
	if err != nil {
		return nil, err
	}
	for i, tt := range grid {
		t.AddRow(tt, res.PfAt[i].P(), theory.FiniteHoldingOverflow(sys, pce, tt), res.PfAt[i].HalfWidth())
	}
	tPeak, pPeak := theory.FiniteHoldingPeak(sys, pce, 0)
	t.Note("n=%g Th=%g (ThTilde=%g) Tc=%g pce=%g", n, th, sys.ThTilde(), tc, pce)
	t.Note("eq. 21 peak: p_f(%.3g) = %.3g", tPeak, pPeak)
	return []*Table{t}, nil
}
