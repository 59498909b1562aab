package experiments

import (
	"repro/internal/core"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// runMisdecl stages the scenario that motivates MBAC (paper Section 1):
// users cannot (or will not) characterize their traffic accurately, and a
// statistical model cannot be policed. Flows declare mean 1, sigma 0.3 —
// but actually send heavier traffic. A declaration-based admission
// controller admits the declared m* and overloads; the MBAC measures what
// the flows really do and adapts, for under-declaration and
// over-declaration alike.
func runMisdecl(f Fidelity, seed uint64) ([]*Table, error) {
	const n, tc, th, pq = 100.0, 1.0, 300.0, 1e-2
	const declMu, declSVR = 1.0, 0.3

	t := &Table{
		ID:    "misdecl",
		Title: "Mis-declared traffic: declaration-based AC vs robust MBAC",
		Columns: []string{"true_mu", "true_sigma", "scheme",
			"pf_sim", "pf_over_pq", "mean_flows", "utilization"},
	}

	// Plan the MBAC from the declaration (the operator knows nothing else).
	planSys := theory.System{Capacity: n, Mu: declMu, Sigma: declSVR * declMu, Th: th, Tc: tc}
	plan, err := theory.PlanRobust(planSys, pq, theory.InvertIntegral)
	if err != nil {
		return nil, err
	}

	type point struct{ mu, svr, scheme float64 } // the truth; scheme 1=declaration 2=mbac
	pts := []point{
		{1.0, 0.3, 1}, {1.0, 0.3, 2}, // honest declaration
		{1.25, 0.4, 1}, {1.25, 0.4, 2}, // under-declared: heavier and burstier than claimed
		{0.8, 0.2, 1}, {0.8, 0.2, 2}, // over-declared: lighter than claimed
	}
	err = sweep(t, pts, func(_ int, p point) ([]float64, error) {
		// Scheme 2 is the planned MBAC, bootstrapped at the declaration.
		s := spec{
			N: n, SVR: declSVR, Th: th, Tc: tc, Tm: plan.MemoryTm, Pce: plan.AdjustedPce,
			Model: traffic.NewRCBR(p.mu, p.svr, tc),
			Seed:  seed + uint64(p.scheme) + uint64(p.mu*100), MaxTime: simBudget(f) / 2,
		}
		if p.scheme == 1 {
			// Static admission from the declared statistics; no
			// measurement, no policing — the flows send what they send.
			var err error
			if s.Controller, err = core.NewPerfectKnowledge(n, declMu, declSVR*declMu, pq); err != nil {
				return nil, err
			}
			s.Tm = 0
		}
		res, err := run(s)
		return []float64{p.mu, p.svr * p.mu, p.scheme, res.Pf, res.Pf / pq, res.MeanFlows, res.Utilization}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("declared (mu, sigma) = (%g, %g); pq=%g; scheme 1=declaration-based AC, 2=robust MBAC (Tm=%.3g, pce=%.3g)",
		declMu, declSVR*declMu, pq, plan.MemoryTm, plan.AdjustedPce)
	t.Note("expected: under-declaration wrecks scheme 1 and not scheme 2; over-declaration strands capacity under scheme 1 that scheme 2 reclaims")
	return []*Table{t}, nil
}
