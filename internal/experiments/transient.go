package experiments

import (
	"repro/internal/sim"
	"repro/internal/theory"
)

func runTransient(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, th = 100.0, 0.3, 1.0, 100.0 // ThTilde = 10, gamma = 3
	const pce = 1e-2
	grid := []float64{1, 2, 5, 10, 20, 40, 80}
	reps := map[Fidelity]int{Quick: 150, Standard: 800, Full: 6000}[f]

	sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc}
	t := &Table{
		ID:      "transient",
		Title:   "Overflow probability t after a cold start: ensemble vs Prop. 4.2 finite-t",
		Columns: []string{"t", "pf_ensemble", "pf_transient_theory", "pf_steady_theory"},
	}

	// One cold-started trajectory per replication; its row says, per grid
	// time, whether the load sat above capacity (1) or not (0).
	period := grid[0]
	ensemble, err := collect(reps, func(rep int) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Pce: pce,
			Seed: seed + uint64(rep), MaxTime: grid[len(grid)-1] + 1,
			Sim: func(cfg *sim.Config) { cfg.Warmup, cfg.SeriesPeriod, cfg.CheckEvery = 0, period, 1e12 },
		})
		over := make([]float64, len(grid))
		for gi, tt := range grid {
			idx := int(tt/period) - 1
			over[gi] = bit(idx >= 0 && idx < len(res.Series) && res.Series[idx].Load > n)
		}
		return over, err
	})
	if err != nil {
		return nil, err
	}
	steady := theory.ContinuousOverflowIntegral(sys, pce)
	for gi, tt := range grid {
		count := 0.0
		for _, over := range ensemble {
			count += over[gi]
		}
		t.AddRow(tt, count/float64(reps), theory.ContinuousOverflowTransient(sys, pce, tt), steady)
	}
	t.Note("n=%g Th=%g (ThTilde=%g) Tc=%g pce=%g reps=%d memoryless CE", n, th, sys.ThTilde(), tc, pce, reps)
	t.Note("expected: the ensemble ramps from ~0 toward the steady-state value on the ThTilde scale")
	return []*Table{t}, nil
}

func runFig2(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, th, pce = 100.0, 0.3, 1.0, 300.0, 1e-2
	span := map[Fidelity]float64{Quick: 300.0, Standard: 1000, Full: 3000}[f]
	res, err := run(spec{
		N: n, SVR: svr, Th: th, Tc: tc, Pce: pce, Seed: seed, MaxTime: span,
		Sim: func(cfg *sim.Config) { cfg.SeriesPeriod, cfg.CheckEvery, cfg.TrackAdmissible = span/60, 1e12, true },
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig2",
		Title:   "One trajectory: estimated admissible M_t vs actual N_t vs load (memoryless CE)",
		Columns: []string{"t", "M_t", "N_t", "load"},
	}
	for _, p := range res.Series {
		t.AddRow(p.T, p.Admissible, float64(p.Flows), p.Load)
	}
	t.Note("n=%g Th=%g Tc=%g pce=%g; N_t tracks sup of M_s minus departures (paper Fig. 2)", n, th, tc, pce)
	t.Note("mean M_t %.2f (sd %.2f), mean N_t %.2f", res.MeanAdmissible, res.StdAdmissible, res.MeanFlows)
	return []*Table{t}, nil
}
