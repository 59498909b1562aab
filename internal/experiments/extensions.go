package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/theory"
)

// Extension experiments beyond the paper's figures: the finite-arrival-rate
// interpolation the continuous-load model upper-bounds (Section 4's
// motivation), the comparison against Gibbens-Kelly-Key-style prior
// smoothing (Section 6), and the adaptive-application utility metric
// (Section 7 future work).

func runHolding(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, th, pq = 100.0, 0.3, 1.0, 300.0, 1e-2
	sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc}
	plan, err := theory.PlanRobust(sys, pq, theory.InvertIntegral)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "holding",
		Title:   "Holding-time distribution sensitivity at fixed mean (robust plan)",
		Columns: []string{"dist", "scv", "pf_sim", "mean_flows", "utilization"},
	}
	// Distributions share mean th; scv is the squared coefficient of
	// variation of the holding time.
	type point struct {
		id, scv float64
		sampler func(r *rng.PCG) float64
	}
	err = sweep(t, []point{
		{1, 0, func(*rng.PCG) float64 { return th }}, // deterministic
		{2, 1, nil}, // exponential (engine default)
		{3, 3.4, func(r *rng.PCG) float64 { // balanced hyperexponential
			if r.Float64() < 0.5 {
				return r.Exp(th / 5)
			}
			return r.Exp(9 * th / 5)
		}},
	}, func(_ int, c point) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Tm: plan.MemoryTm, Pce: plan.AdjustedPce,
			Seed: seed + uint64(c.id), MaxTime: simBudget(f) / 2,
			Sim: func(cfg *sim.Config) { cfg.HoldingSampler = c.sampler },
		})
		return []float64{c.id, c.scv, res.Pf, res.MeanFlows, res.Utilization}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("dist: 1=deterministic 2=exponential 3=hyperexponential; same mean Th=%g, target pq=%g", th, pq)
	t.Note("§5.4: the critical time-scale depends only on the mean departure rate, so all rows should meet the target")
	return []*Table{t}, nil
}

func runBuffer(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pce = 100.0, 0.3, 300.0, 1.0, 1e-2
	t := &Table{
		ID:      "buffer",
		Title:   "Buffered loss fraction vs bufferless overflow fraction (same runs)",
		Columns: []string{"buffer_size", "pf_bufferless", "loss_fraction", "mean_delay", "busy_fraction"},
	}
	err := sweep(t, []float64{0.5, 2, 5, 10, 20}, func(_ int, b float64) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Pce: pce,
			Seed: seed + uint64(b*10), MaxTime: simBudget(f) / 2,
			Sim: func(cfg *sim.Config) { cfg.BufferSize = b },
		})
		return []float64{b, res.OverflowTimeFraction, res.Buffer.LossFraction,
			res.Buffer.MeanDelay, res.Buffer.BusyFraction}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("n=%g Th=%g Tc=%g pce=%g, memoryless CE MBAC; buffer in units of mean-rate-seconds", n, th, tc, pce)
	t.Note("expected: loss < overflow at every size and falling in B — the bufferless analysis is conservative")
	return []*Table{t}, nil
}

func runArrival(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pce = 100.0, 0.3, 100.0, 1.0, 1e-2
	t := &Table{
		ID:      "arrival",
		Title:   "Overflow and blocking vs arrival rate (memoryless CE MBAC; rate 0 = infinite backlog)",
		Columns: []string{"lambda", "offered_erlangs", "pf_sim", "blocking_prob", "erlangB_ref", "mean_flows", "utilization"},
	}
	mstar := theory.AdmissibleFlows(n, 1, svr, pce)
	lambdas := []float64{0.3, 0.6, 0.9, 1.2, 2, 5, 0}
	if f == Quick {
		lambdas = []float64{0.6, 1.2, 5, 0} // under-load, the knee, overload, continuous load
	}
	err := sweep(t, lambdas, func(_ int, lambda float64) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: th, Tc: tc, Pce: pce,
			Seed: seed + uint64(lambda*10), MaxTime: simBudget(f),
			Sim: func(cfg *sim.Config) { cfg.ArrivalRate = lambda },
		})
		return []float64{lambda, lambda * th, res.Pf, res.BlockingProb,
			theory.ErlangBInterp(mstar, lambda*th), res.MeanFlows, res.Utilization}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("n=%g Th=%g Tc=%g pce=%g; the lambda=0 row is the paper's continuous-load model", n, th, tc, pce)
	t.Note("expected: pf grows with lambda and saturates at the continuous-load value;")
	t.Note("blocking tracks Erlang-B with m* = %.1f servers", mstar)
	return []*Table{t}, nil
}

func runBayes(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pce = 100.0, 0.3, 300.0, 1.0, 1e-2
	thTilde := th / math.Sqrt(n)
	t := &Table{
		ID:      "bayes",
		Title:   "Prior smoothing vs estimator memory under continuous load",
		Columns: []string{"scheme", "knob", "pf_sim", "mean_flows", "utilization"},
	}
	// A scheme turns one knob: the weight of a Bayesian prior, or the
	// estimator memory of the plain certainty-equivalent MBAC.
	type scheme struct{ id, weight, tm float64 }
	err := sweep(t, []scheme{{1, 0, 0}, {2, 25, 0}, {3, 100, 0}, {4, 400, 0}, {5, 0, thTilde}},
		func(_ int, s scheme) ([]float64, error) {
			sp := spec{
				N: n, SVR: svr, Th: th, Tc: tc, Tm: s.tm, Pce: pce,
				Seed: seed + uint64(s.id), MaxTime: simBudget(f),
			}
			if s.weight > 0 {
				var err error
				if sp.Controller, err = core.NewBayesianCE(pce, s.weight, 1, svr); err != nil {
					return nil, err
				}
			}
			res, err := run(sp)
			return []float64{s.id, s.weight + s.tm, res.Pf, res.MeanFlows, res.Utilization}, err
		})
	if err != nil {
		return nil, err
	}
	t.Note("schemes: 1=memoryless CE; 2-4=Bayesian prior (true prior) with weight=knob; 5=CE with memory Tm=ThTilde=knob")
	t.Note("the paper's argument (§6): a correct prior smooths like memory, but memory needs no prior")
	t.Note("pce=%g n=%g Th=%g Tc=%g", pce, n, th, tc)
	return []*Table{t}, nil
}

func runUtility(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, th, tc, pq = 100.0, 0.3, 300.0, 1.0, 1e-2
	sys := theory.System{Capacity: n, Mu: 1, Sigma: svr, Th: th, Tc: tc}
	plan, err := theory.PlanRobust(sys, pq, theory.InvertIntegral)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "utility",
		Title:   "Adaptive-application QoS: mean utility under naive vs robust MBAC",
		Columns: []string{"scheme", "u_step", "u_convex", "u_linear", "u_concave", "pf"},
	}
	type scheme struct{ id, pce, tm float64 }
	err = sweep(t, []scheme{{1, pq, 0}, {2, plan.AdjustedPce, plan.MemoryTm}}, // naive, robust
		func(_ int, s scheme) ([]float64, error) {
			row := []float64{s.id}
			var pf float64
			for _, u := range []qos.Utility{qos.Step(1), qos.Convex(4), qos.Linear(), qos.Concave(10)} {
				res, err := run(spec{
					N: n, SVR: svr, Th: th, Tc: tc, Tm: s.tm, Pce: s.pce,
					Seed: seed + uint64(s.id), MaxTime: simBudget(f) / 4,
					Sim: func(cfg *sim.Config) { cfg.Utility = u },
				})
				if err != nil {
					return nil, err
				}
				row = append(row, res.MeanUtility)
				pf = res.OverflowTimeFraction
			}
			return append(row, pf), nil
		})
	if err != nil {
		return nil, err
	}
	t.Note("schemes: 1=naive (memoryless, pce=pq=%g); 2=robust (Tm=%.3g, pce=%.3g)", pq, plan.MemoryTm, plan.AdjustedPce)
	t.Note("u_step is 1-pf (hard real-time); concave/adaptive applications suffer much less from overload")
	return []*Table{t}, nil
}

func runReneg(f Fidelity, seed uint64) ([]*Table, error) {
	const n, svr, tc, pce = 100.0, 0.3, 1.0, 1e-2
	t := &Table{
		ID:      "reneg",
		Title:   "RCBR renegotiation-failure probability tracks the bufferless overflow metric",
		Columns: []string{"Th", "Tm", "pf_time_fraction", "reneg_failure_prob", "requests"},
	}
	type point struct{ th, tm float64 }
	err := sweep(t, []point{{100, 0}, {100, 10}, {1000, 0}, {1000, 100}}, func(_ int, c point) ([]float64, error) {
		res, err := run(spec{
			N: n, SVR: svr, Th: c.th, Tc: tc, Tm: c.tm, Pce: pce,
			Seed: seed + uint64(c.th+c.tm), MaxTime: simBudget(f) / 2,
		})
		return []float64{c.th, c.tm, res.OverflowTimeFraction, res.RenegFailureProb, float64(res.RenegRequests)}, err
	})
	if err != nil {
		return nil, err
	}
	t.Note("the paper's Section 2 motivates the bufferless model via RCBR renegotiation failures;")
	t.Note("this validates that the two QoS readings agree in magnitude on the same runs (pce=%g)", pce)
	return []*Table{t}, nil
}
