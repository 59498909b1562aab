package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/theory"
	"repro/internal/traffic"
)

func runAblSampling(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pce = 100.0, 0.3, 300.0, 1.0, 1e-2
	t := &Table{
		ID:      "abl-sampling",
		Title:   "Overflow estimators on identical runs: time fraction vs point samples",
		Columns: []string{"Tm", "pf_time_weighted", "tw_halfwidth", "pf_point_sampled", "ps_halfwidth", "samples"},
	}
	err := sweep(t, []float64{0, 10, 30}, func(_ int, tm float64) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Tm: tm, Pce: pce,
			Seed: seed + uint64(tm), MaxTime: simBudget(f),
		})
		return []float64{tm, res.OverflowTimeFraction, res.OverflowHalfWidth,
			res.OverflowPointSample, res.PointHalfWidth, float64(res.Samples)}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("same trajectory feeds both estimators; point samples every 2 max(ThTilde,Tm,Tc)")
	t.Note("time weighting uses all data: its CI should be materially tighter per unit sim time")
	return []*Table{t}, nil
}

func runAblFilter(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pce = 100.0, 0.3, 300.0, 1.0, 1e-2
	t := &Table{
		ID:      "abl-filter",
		Title:   "Filter implementations at matched memory: aggregate-ratio vs exact per-flow vs sliding window",
		Columns: []string{"Tm", "pf_exponential", "pf_perflow", "pf_window"},
	}
	tms := []float64{3, 10, 30}
	if f == Quick {
		tms = []float64{3, 30}
	}
	err := sweep(t, tms, func(_ int, tm float64) ([]float64, error) {
		row := []float64{tm}
		// A boxcar of length 2·Tm has the same mean sample age (Tm) as the
		// exponential kernel with time constant Tm.
		for _, est := range []estimator.Estimator{
			estimator.NewExponential(tm), estimator.NewPerFlowExponential(tm), estimator.NewWindow(2 * tm),
		} {
			res, err := run(spec{
				N: n, SVR: svr, Th: th, Tc: tc, Tm: tm, Pce: pce, Estimator: est,
				Seed: seed + uint64(tm), MaxTime: simBudget(f),
			})
			if err != nil {
				return nil, err
			}
			row = append(row, res.Pf)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Note("all three should land in the same band: the kernel shape and the churn bookkeeping are second-order")
	return []*Table{t}, nil
}

func runAblVariance(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, tm, pce = 100.0, 0.3, 300.0, 1.0, 30.0, 1e-2
	t := &Table{
		ID:      "abl-variance",
		Title:   "Variance estimation: per-flow vs aggregate-only; homogeneous vs heterogeneous flows",
		Columns: []string{"case", "pf_sim", "mean_flows", "utilization"},
	}
	homo := traffic.NewRCBR(1, svr, tc)
	hetero, err := traffic.NewMixture(
		[]traffic.Model{traffic.NewRCBR(0.5, svr, tc), traffic.NewRCBR(1.5, svr, tc)},
		[]float64{0.5, 0.5})
	if err != nil {
		return nil, err
	}
	type point struct {
		id    float64
		model traffic.Model
		est   estimator.Estimator
	}
	err = sweep(t, []point{
		{1, homo, estimator.NewExponential(tm)},
		{2, homo, estimator.NewAggregateOnly(tm, 10*tc)},
		{3, hetero, estimator.NewExponential(tm)},
		{4, hetero, estimator.NewAggregateOnly(tm, 10*tc)},
	}, func(_ int, c point) ([]float64, error) {
		st := c.model.Stats()
		ce, err := core.NewCertaintyEquivalent(pce, st.Mean, st.StdDev())
		if err != nil {
			return nil, err
		}
		res, err := run(spec{
			N: n, Th: th, Tc: tc, Tm: tm, Model: c.model, Controller: ce, Estimator: c.est,
			Seed: seed + uint64(c.id), MaxTime: simBudget(f),
		})
		return []float64{c.id, res.Pf, res.MeanFlows, res.Utilization}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("cases: 1=homo/per-flow 2=homo/aggregate-only 3=hetero/per-flow 4=hetero/aggregate-only")
	t.Note("§5.4: case 3's class-blind cross-sectional variance over-estimates -> conservative (lower pf, lower utilization than a class-aware scheme would achieve)")
	t.Note("pce=%g Tm=%g", pce, tm)
	return []*Table{t}, nil
}

func runAblTheory(_ Fidelity, _ uint64) ([]*Table, error) {
	const n, svr, th = 100.0, 0.3, 1000.0
	pce := 1e-3
	t := &Table{
		ID:      "abl-theory",
		Title:   "Closed form (eq. 38) vs integral (eq. 37) across the time-scale separation gamma",
		Columns: []string{"Tc", "gamma", "pf_eq37", "pf_eq38", "ratio"},
	}
	for _, tc := range []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300} {
		sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc, Tm: 10}
		in := theory.ContinuousOverflowIntegral(sys, pce)
		cf := theory.ContinuousOverflowClosedForm(sys, pce)
		ratio := math.NaN()
		if in > 0 {
			ratio = cf / in
		}
		t.AddRow(tc, sys.Gamma(), in, cf, ratio)
	}
	t.Note("eq. 38 assumes gamma >> 1; the ratio drifts from 1 as gamma shrinks")
	return []*Table{t}, nil
}
