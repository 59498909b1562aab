package experiments

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// runFiniteHolding is the impulsive-load ensemble with finite holding
// times: the overflow profile p_f(t) against eq. 21.
func runFiniteHolding(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, th, pce = 100.0, 0.3, 1.0, 100.0, 1e-2 // ThTilde = 10
	sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc}
	t := &Table{
		ID:      "finite",
		Title:   "Impulsive load with finite holding: p_f(t) simulation vs eq. 21",
		Columns: []string{"t", "pf_sim", "pf_eq21", "ci_halfwidth"},
	}
	grid := []float64{0.1, 0.3, 1, 2, 3, 5, 8, 12, 20, 30, 50, 80}
	reps := 6000 // Quick
	switch f {
	case Standard:
		reps *= 8
	case Full:
		reps *= 64
	}
	ce, err := core.NewCertaintyEquivalent(pce, 1, svr)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunImpulsive(sim.ImpulsiveConfig{
		Capacity: n, Model: traffic.NewRCBR(1, svr, tc), Controller: ce,
		MeasureCount: int(n), HoldingTime: th,
		Grid: grid, Replications: reps, Seed: seed,
	})
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
