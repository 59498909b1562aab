package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// spec describes one continuous-load MBAC simulation point in the paper's
// canonical parameterization: mu = 1 (rates in units of the mean), so the
// capacity equals the system size n.
type spec struct {
	N   float64 // system size n = capacity
	SVR float64 // sigma/mu
	Th  float64 // mean holding time
	Tc  float64 // RCBR correlation time
	Tm  float64 // estimator memory (0 = memoryless)
	Pce float64 // certainty-equivalent target

	Model      traffic.Model   // override traffic model (default RCBR)
	Controller core.Controller // override controller (default certainty-equivalent)

	Seed    uint64
	Warmup  float64
	MaxTime float64
	TargetP float64 // stopping-rule target (0: run the full budget)
}

// system converts the spec to theory parameters.
func (s spec) system() theory.System {
	return theory.System{Capacity: s.N, Mu: 1, Sigma: s.SVR, Th: s.Th, Tc: s.Tc, Tm: s.Tm}
}

// run executes the continuous-load simulation for the spec.
func run(s spec) (sim.Result, error) {
	model := s.Model
	if model == nil {
		model = traffic.NewRCBR(1, s.SVR, s.Tc)
	}
	ctrl := s.Controller
	if ctrl == nil {
		var err error
		ctrl, err = core.NewCertaintyEquivalent(s.Pce, 1, s.SVR)
		if err != nil {
			return sim.Result{}, err
		}
	}
	var est estimator.Estimator
	if s.Tm > 0 {
		est = estimator.NewExponential(s.Tm)
	} else {
		est = estimator.NewMemoryless()
	}
	if s.Warmup <= 0 {
		// Let the system fill and the estimator forget its bootstrap:
		// several memory windows and critical time-scales.
		thTilde := s.Th / math.Sqrt(s.N)
		s.Warmup = 20 * math.Max(s.Tc, math.Max(s.Tm, thTilde))
	}
	e, err := sim.New(sim.Config{
		Capacity:    s.N,
		Model:       model,
		Controller:  ctrl,
		Estimator:   est,
		HoldingTime: s.Th,
		Seed:        s.Seed,
		Warmup:      s.Warmup,
		MaxTime:     s.MaxTime,
		Tc:          s.Tc,
		Tm:          s.Tm,
		TargetP:     s.TargetP,
	})
	if err != nil {
		return sim.Result{}, err
	}
	return e.Run()
}

// simBudget returns the per-point simulated-time budget for a fidelity
// level, scaled so that Quick finishes in roughly a second per point at
// n = 100 and Full approaches the CI-driven regime.
func simBudget(f Fidelity) float64 {
	switch f {
	case Quick:
		return 3e4
	case Standard:
		return 3e5
	default:
		return 6e6
	}
}

// quickTarget relaxes a certainty-equivalent target at Quick fidelity so
// overflow happens often enough to measure in seconds; Standard and Full
// keep the paper's value.
func quickTarget(f Fidelity, paper float64) float64 {
	if f == Quick && paper < 1e-2 {
		return 1e-2
	}
	return paper
}
