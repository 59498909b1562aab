package experiments

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// gatewayFill runs one impulsive-load replication through the online
// gateway (loadgen.ImpulsiveFill) under a memoryless estimator and a
// certainty-equivalent controller, and returns the admitted count — the
// gateway analog of Proposition 3.1's M0.
func gatewayFill(n, svr, pce float64, r *rng.PCG) (int, error) {
	ctrl, err := core.NewCertaintyEquivalent(pce, 1, svr)
	if err != nil {
		return 0, err
	}
	g, err := gateway.New(gateway.Config{
		Capacity:   n,
		Controller: ctrl,
		Estimator:  estimator.NewMemoryless(),
		Shards:     4,
	})
	if err != nil {
		return 0, err
	}
	return loadgen.ImpulsiveFill(g, traffic.NewRCBR(1, svr, 1), r)
}

// runGatewaySoak measures the gateway's admitted-count statistics under
// impulsive load across a replicated ensemble on the shared worker pool,
// next to Proposition 3.1's predictions (mean m*, stddev (σ/μ)·√n). The
// replications are striped and merged deterministically, so the table is
// bit-identical for a fixed seed — suitable for golden locking.
func runGatewaySoak(f Fidelity, seed uint64) ([]*Table, error) {
	reps := 150
	switch f {
	case Standard:
		reps = 400
	case Full:
		reps = 2000
	}
	type point struct{ n, svr, pce float64 }
	t := &Table{
		ID:      "gateway",
		Title:   "online gateway soak: admitted count vs Prop 3.1 under impulsive load",
		Columns: []string{"n", "svr", "pce", "reps", "th_mstar", "sim_mean_M0", "sim_sd_M0", "th_sd_M0", "z_mean"},
	}
	t.Note("impulsive fill through internal/gateway: one Admit + Tick per flow until first refusal")
	t.Note("memoryless estimator, CE controller bootstrapped at the true (mu, sigma); reps = %d", reps)
	err := sweep(t, []point{{100, 0.3, 1e-2}, {64, 0.5, 1e-2}, {200, 0.2, 1e-3}}, func(pi int, pt point) ([]float64, error) {
		mstar := theory.AdmissibleFlows(pt.n, 1, pt.svr, pt.pce)
		sd := pt.svr * math.Sqrt(pt.n)
		pool := sim.Replicated{
			Replications: reps,
			Seed:         seed + 0x67773a*uint64(pi+1), // per-point stream
			Tag:          0x6777,                       // stream tag "gw"
		}
		accs := make([]stats.Moments, pool.NumStripes())
		err := pool.Run(context.Background(), func(stripe, rep int, r *rng.PCG) error {
			m0, err := gatewayFill(pt.n, pt.svr, pt.pce, r)
			if err != nil {
				return err
			}
			accs[stripe].Add(float64(m0))
			return nil
		})
		var m0 stats.Moments
		for s := range accs {
			m0.Merge(&accs[s])
		}
		return []float64{pt.n, pt.svr, pt.pce, float64(reps), mstar, m0.Mean(), m0.StdDev(), sd,
			(m0.Mean() - mstar) / sd}, err
	})
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
