package gateway

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// impulsiveFill drives one replication of the paper's impulsive-load
// scenario through the online gateway: flows with rates drawn from the
// RCBR marginal request admission in batches of the given size (1 = the
// single-call Admit path), with a measurement tick after every batch,
// until the certainty-equivalent bound refuses one. The admitted count at
// the first refusal is the gateway-shaped analog of the paper's M0
// (Proposition 3.1: mean ≈ m*, stddev ≈ (σ/μ)·√n).
func impulsiveFill(n, svr, pce float64, r *rng.PCG, batch int) (int64, error) {
	ctrl, err := core.NewCertaintyEquivalent(pce, 1, svr)
	if err != nil {
		return 0, err
	}
	g, err := New(Config{
		Capacity:   n,
		Controller: ctrl,
		Estimator:  estimator.NewMemoryless(),
		Shards:     4,
	})
	if err != nil {
		return 0, err
	}
	model := traffic.NewRCBR(1, svr, 1)
	ids := make([]uint64, batch)
	rates := make([]float64, batch)
	dst := make([]Decision, 0, batch)
	next := uint64(0)
	for tick := 1; ; tick++ {
		for i := range ids {
			ids[i] = next
			rates[i] = model.New(r.Split(next)).Next().Rate
			next++
		}
		if batch == 1 {
			d, err := g.Admit(ids[0], rates[0])
			if err != nil {
				return 0, err
			}
			dst = append(dst[:0], d)
		} else if dst, err = g.AdmitBatch(ids, rates, dst[:0]); err != nil {
			return 0, err
		}
		for _, d := range dst {
			if !d.Admitted {
				return d.Active, nil
			}
		}
		g.Tick(float64(tick) * 1e-3)
		if next > uint64(4*n)+4*uint64(batch) {
			return 0, fmt.Errorf("fill did not terminate: %d admissions at capacity %g", next, n)
		}
	}
}

// TestSoakAdmittedTracksMStar is the seeded statistical soak test of the
// issue: over many replications on the shared worker pool, the gateway's
// mean admitted count under impulsive load must sit within 3σ of the
// perfect-knowledge prediction m* (eq. 4/5), where σ = (σ/μ)·√n is
// Proposition 3.1's spread of a single replication, at two (n, σ/μ)
// operating points.
func TestSoakAdmittedTracksMStar(t *testing.T) {
	reps := 200
	if testing.Short() {
		reps = 60
	}
	points := []struct {
		name   string
		n, svr float64
		pce    float64
		seed   uint64
		batch  int
	}{
		{"n100-svr0.3", 100, 0.3, 1e-2, 0x736f616b, 1},
		{"n64-svr0.5", 64, 0.5, 1e-2, 0x736f616c, 1},
		// The batched admission path must show the same Prop 3.1 statistics:
		// AdmitBatch is a transport, not a different admission policy.
		{"n100-svr0.3-batch16", 100, 0.3, 1e-2, 0x736f616d, 16},
	}
	for _, pt := range points {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			mstar := theory.AdmissibleFlows(pt.n, 1, pt.svr, pt.pce)
			sd := pt.svr * math.Sqrt(pt.n) // Prop 3.1 per-replication spread

			pool := sim.Replicated{Replications: reps, Seed: pt.seed, Tag: 0x6777}
			fills, err := sim.Collect(context.Background(), pool, func(_ int, r *rng.PCG) (int64, error) {
				return impulsiveFill(pt.n, pt.svr, pt.pce, r, pt.batch)
			})
			if err != nil {
				t.Fatal(err)
			}
			var m0 stats.Moments
			for _, v := range fills {
				m0.Add(float64(v))
			}
			mean, simSD := m0.Mean(), m0.StdDev()
			t.Logf("n=%g svr=%g: mean M0 = %.3f (m* = %.3f), sd = %.3f (theory %.3f), reps = %d",
				pt.n, pt.svr, mean, mstar, simSD, sd, reps)
			if diff := math.Abs(mean - mstar); diff > 3*sd {
				t.Errorf("mean admitted %.3f deviates from m* = %.3f by %.3f > 3σ = %.3f",
					mean, mstar, diff, 3*sd)
			}
			// The per-replication spread itself should be on Prop 3.1's
			// scale — a loose sanity band, not a sharp test.
			if simSD < sd/3 || simSD > 3*sd {
				t.Errorf("sd of M0 = %.3f outside [%.3f, %.3f]", simSD, sd/3, 3*sd)
			}
		})
	}
}
