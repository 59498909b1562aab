package experiments

import (
	"fmt"
	"math"

	"repro/internal/gauss"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/theory"
)

// Direct simulation of the heavy-traffic limit process (the "limit"
// experiment).
//
// Theorem 4.3 / Proposition 4.2 of the paper state that, as the system size
// grows, the scaled aggregate-load fluctuation converges to
//
//	sup_{s <= t} { Y_t − Z_s − beta·(t − s) }
//
// where {Y_t} is the stationary unit OU process (the aggregate bandwidth
// fluctuation), Z = h*Y its exponentially filtered version (the estimation
// error of the MBAC with memory T_m; Z = Y when memoryless), and beta =
// mu/(sigma·T~h) the repair drift. The steady-state overflow probability is
// the stationary probability that this supremum exceeds alpha = Q^-1(p_ce).
//
// limitOverflow estimates that probability by direct simulation of the limit
// process using the exact AR(1) discretization of the OU process and the
// Lindley recursion for the running supremum. Unlike the formulas in
// internal/theory (which rely on Bräker's first-passage approximation), and
// unlike the flow-level simulator in internal/sim (which has finite-n
// effects), this measures the limit model exactly up to discretization —
// so it isolates how much of the theory/simulation gap is due to the
// hitting-probability approximation versus finite system size.

// limitOptions tunes the measurement effort.
type limitOptions struct {
	// Duration is the measured span. Default: 2000·max(Tc, Tm, 1/beta).
	Duration float64
	// Seed selects the random stream.
	Seed uint64
}

// limitResult is the measured steady-state overflow probability of the
// limit process with a batch-means confidence half-width.
type limitResult struct {
	Pf        float64
	HalfWidth float64
	Batches   int64
	Steps     int64
}

// limitOverflow estimates Pr{ sup_{s<=t} (Y_t − Z_s − beta(t−s)) > alpha } in
// steady state for the system's parameters, with alpha = Q^-1(pce).
func limitOverflow(s theory.System, pce float64, opts limitOptions) (limitResult, error) {
	if err := s.Validate(); err != nil {
		return limitResult{}, err
	}
	if s.Tc <= 0 {
		return limitResult{}, fmt.Errorf("experiments: limit process: Tc %g must be positive", s.Tc)
	}
	if s.Th <= 0 {
		return limitResult{}, fmt.Errorf("experiments: limit process: Th %g must be positive (beta would vanish)", s.Th)
	}
	alpha := gauss.Qinv(pce)
	beta := s.Beta()
	tc, tm := s.Tc, s.Tm

	minScale := tc
	if tm > 0 && tm < minScale {
		minScale = tm
	}
	maxScale := math.Max(tc, math.Max(tm, 1/beta))
	if opts.Duration <= 0 {
		opts.Duration = 2000 * maxScale
	}

	dt := minScale / 32         // the time step, well below min(Tc, Tm)
	a := math.Exp(-dt / tc)     // OU AR(1) coefficient
	noise := math.Sqrt(1 - a*a) // keeps Var(Y) = 1 exactly
	var b float64               // filter coefficient
	if tm > 0 {
		b = math.Exp(-dt / tm)
	}

	r := rng.New(opts.Seed, 0x6c696d) // stream tag "lim"
	y := r.Normal()                   // stationary start
	z := y                            // filter warm start at its input
	// Lindley recursion for R_t = sup_{s<=t} (−Z_s − beta(t−s)).
	rsup := -z

	bm := stats.NewBatchMeans(2 * maxScale)
	warmSteps := int64(20 * maxScale / dt) // the discarded initial span
	measSteps := int64(opts.Duration / dt)

	for i := int64(0); i < warmSteps+measSteps; i++ {
		y = a*y + noise*r.Normal()
		if tm > 0 {
			z = b*z + (1-b)*y
		} else {
			z = y
		}
		if c := rsup - beta*dt; c > -z {
			rsup = c
		} else {
			rsup = -z
		}
		if i >= warmSteps {
			over := 0.0
			if y+rsup > alpha {
				over = 1
			}
			bm.Observe(over, dt)
		}
	}
	return limitResult{
		Pf:        bm.Mean(),
		HalfWidth: bm.HalfWidth(),
		Batches:   bm.Batches(),
		Steps:     warmSteps + measSteps,
	}, nil
}
