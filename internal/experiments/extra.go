package experiments

import (
	"repro/internal/gauss"
	"repro/internal/theory"
)

func runUtil(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, tm, base = 100.0, 0.3, 1000.0, 1.0, 100.0, 1e-2
	t := &Table{
		ID:      "util",
		Title:   "Mean carried flows vs certainty-equivalent target: simulation vs eq. 40",
		Columns: []string{"pce", "mean_flows_sim", "delta_sim", "delta_eq40", "utilization"},
	}
	err := sweep(t, []float64{base, base / 10, base / 100}, func(i int, pce float64) ([]float64, error) {
		s := spec{
			N: n, SVR: svr, Th: th, Tc: tc, Tm: tm, Pce: pce,
			Seed: seed + uint64(i), MaxTime: simBudget(f),
		}
		res, err := run(s)
		// eq. 40 predicts the *bandwidth* delta; with mu=1 that equals the
		// flow-count delta. delta_sim is relative to row 0: filled in below.
		return []float64{pce, res.MeanFlows, 0, theory.UtilizationDelta(s.system(), base, pce), res.Utilization}, err
	})
	if err != nil {
		return nil, err
	}
	for _, row := range t.Rows {
		row[2] = t.Rows[0][1] - row[1]
	}
	t.Note("n=%g sigma/mu=%g Th=%g Tc=%g Tm=%g fidelity=%s", n, svr, th, tc, tm, f)
	t.Note("delta columns: carried-flow loss relative to the first row; eq. 40 = sigma sqrt(n) [Qinv(pce_i) - Qinv(pce_0)]")
	return []*Table{t}, nil
}

func runLimit(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th = 100.0, 0.3, 1000.0
	pce := quickTarget(f)
	dur := map[Fidelity]float64{Quick: 2e4, Standard: 2e5, Full: 4e6}[f]
	t := &Table{
		ID:      "limit",
		Title:   "Hitting probability: limit-process simulation vs Bräker approximations",
		Columns: []string{"Tc", "Tm", "pf_limit_sim", "pf_eq37", "pf_eq38", "ci_halfwidth"},
	}
	type point struct{ tc, tm float64 }
	err := sweep(t, []point{{1, 0}, {1, 10}, {1, 100}, {10, 100}, {100, 100}}, func(i int, c point) ([]float64, error) {
		sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: c.tc, Tm: c.tm}
		res, err := limitOverflow(sys, pce, limitOptions{Seed: seed + uint64(i), Duration: dur})
		return []float64{c.tc, c.tm, res.Pf,
			theory.ContinuousOverflowIntegral(sys, pce),
			theory.ContinuousOverflowClosedForm(sys, pce),
			res.HalfWidth}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("n=%g sigma/mu=%g Th=%g (ThTilde=%g) pce=%g fidelity=%s", n, svr, th,
		theory.System{Capacity: n, Mu: 1, Th: th}.ThTilde(), pce, f)
	t.Note("isolates the Bräker approximation error from finite-n effects")
	return []*Table{t}, nil
}

func runRegimes(_ Fidelity, _ uint64) ([]*Table, error) {
	const n, svr, th, pq = 100.0, 0.3, 1000.0, 1e-3
	sysBase := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th}
	thTilde := sysBase.ThTilde()
	t := &Table{
		ID:      "regimes",
		Title:   "Masking vs repair (Tm = ThTilde): regime approximations against eq. 37",
		Columns: []string{"Tc", "regime", "pf_eq37", "pf_regime_approx"},
	}
	for _, tc := range []float64{0.01, 0.1, 1, 10, 100, 1000, 10000} {
		sys := sysBase
		sys.Tc = tc
		sys.Tm = thTilde
		regime := theory.ClassifyRegime(sys)
		var approx float64
		switch regime {
		case theory.RegimeMasking:
			approx = theory.MaskingOverflow(sys, pq)
		case theory.RegimeRepair:
			approx = theory.RepairOverflow(sys, pq)
		default:
			approx = theory.ContinuousOverflowIntegral(sys, pq)
		}
		t.AddRow(tc, float64(regime), theory.ContinuousOverflowIntegral(sys, pq), approx)
	}
	t.Note("regime column: 0=masking 1=repair 2=intermediate; Tm=ThTilde=%g pq=%g", thTilde, pq)
	t.Note("masking: pf ~ (sigma alpha/mu + 1) pq = %.3g", (svr*gauss.Qinv(pq)+1)*pq)
	return []*Table{t}, nil
}
