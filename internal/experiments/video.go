package experiments

import (
	"math"

	"repro/internal/rng"
	"repro/internal/trace"
)

// videoTrace synthesizes the Starwars substitute once per call (seeded, so
// fig11 and fig12 see the same trace when given the same seed).
func videoTrace(f Fidelity, seed uint64) (*trace.Trace, error) {
	cfg := trace.DefaultVideoConfig()
	if f == Full {
		cfg.N = 1 << 17
	}
	return trace.SyntheticVideo(cfg, rng.New(seed, 0x766964)) // stream "vid"
}

// videoThSweep picks the holding-time sweep; the x-axis of Figs 11/12 is
// 1/ThTilde.
func videoThSweep(f Fidelity) []float64 {
	switch f {
	case Quick:
		// Two decades of the paper's axis. Warm-up goes as ThTilde: the
		// last decade (Th = 1e4) would cost more than the measured span.
		return []float64{100, 3000}
	default:
		return []float64{30, 100, 300, 1000, 3000, 10000}
	}
}

func runVideo(f Fidelity, seed uint64, withMemory bool) ([]*Table, error) {
	const n = 100.0
	pce := quickTarget(f)
	tr, err := videoTrace(f, seed)
	if err != nil {
		return nil, err
	}
	st := tr.Stats()
	id, title := "fig11", "LRD video, memoryless estimation: p_f vs 1/ThTilde"
	if withMemory {
		id, title = "fig12", "LRD video, Tm = ThTilde: p_f vs 1/ThTilde"
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"inv_ThTilde", "Th", "Tm", "pf_sim", "pf_over_pce", "resolved"},
	}
	t.Note("synthetic Starwars substitute: mean=%.3g sigma=%.3g Hurst=%.2f corrTime=%.3g (see DESIGN.md substitution #1)",
		st.Mean, st.StdDev(), tr.Hurst(), st.CorrTime)
	err = sweep(t, videoThSweep(f), func(_ int, th float64) ([]float64, error) {
		thTilde := th / math.Sqrt(n)
		tm := 0.0
		if withMemory {
			tm = thTilde
		}
		res, err := run(spec{
			N: n, SVR: st.StdDev() / st.Mean, Th: th, Tc: st.CorrTime, Tm: tm, Pce: pce,
			Model: trace.Model{Trace: tr},
			Seed:  seed + uint64(th), MaxTime: simBudget(f), TargetP: pce,
		})
		return []float64{1 / thTilde, th, tm, res.Pf, res.Pf / pce, bit(res.Resolved)}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("n=%g pce=%g fidelity=%s", n, pce, f)
	if withMemory {
		t.Note("expected: pf_over_pce stays ~<= 1 across the sweep (robust)")
	} else {
		t.Note("expected: misses the target by 1-2 orders of magnitude at large ThTilde (small 1/ThTilde)")
	}
	return []*Table{t}, nil
}
