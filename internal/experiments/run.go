package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// spec describes one continuous-load MBAC simulation point in the paper's
// canonical parameterization: mu = 1 (rates in units of the mean), so the
// capacity equals the system size n. Every simulated row of every table in
// this package is a run(spec).
type spec struct {
	N   float64 // system size n = capacity
	SVR float64 // sigma/mu
	Th  float64 // mean holding time
	Tc  float64 // RCBR correlation time
	Tm  float64 // estimator memory (0 = memoryless)
	Pce float64 // certainty-equivalent target

	Model      traffic.Model       // override traffic model (default RCBR)
	Controller core.Controller     // override controller (default certainty-equivalent)
	Estimator  estimator.Estimator // override estimator (default exponential(Tm), memoryless at Tm = 0)

	Seed    uint64
	MaxTime float64
	TargetP float64 // stopping-rule target (0: run the full budget)

	// Sim, if set, has the last word on the engine configuration: the
	// fields only one runner sets (a buffer, a finite arrival rate, a
	// series recorder, a cold start) go here rather than into spec.
	Sim func(*sim.Config)
}

// system converts the spec to theory parameters.
func (s spec) system() theory.System {
	return theory.System{Capacity: s.N, Mu: 1, Sigma: s.SVR, Th: s.Th, Tc: s.Tc, Tm: s.Tm}
}

// run executes the continuous-load simulation for the spec.
func run(s spec) (sim.Result, error) {
	cfg := sim.Config{
		Capacity:    s.N,
		Model:       s.Model,
		Controller:  s.Controller,
		Estimator:   s.Estimator,
		HoldingTime: s.Th,
		Seed:        s.Seed,
		Warmup:      sim.Warmup(s.Tc, s.Tm, s.Th, s.N),
		MaxTime:     s.MaxTime,
		Tc:          s.Tc,
		Tm:          s.Tm,
		TargetP:     s.TargetP,
	}
	if cfg.Model == nil {
		cfg.Model = traffic.NewRCBR(1, s.SVR, s.Tc)
	}
	if cfg.Controller == nil {
		var err error
		if cfg.Controller, err = core.NewCertaintyEquivalent(s.Pce, 1, s.SVR); err != nil {
			return sim.Result{}, err
		}
	}
	if cfg.Estimator == nil {
		cfg.Estimator = estimator.NewMemoryless()
		if s.Tm > 0 {
			cfg.Estimator = estimator.NewExponential(s.Tm)
		}
	}
	if s.Sim != nil {
		s.Sim(&cfg)
	}
	e, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return e.Run()
}

// collect computes row(i) for every i in [0, n) on the shared worker pool
// and returns the rows in index order, so nothing built from them shows the
// schedule. Each index must carry its own seed. On the first error no rows
// come back, so row may return a result's cells and the error that voids
// them together.
func collect(n int, row func(i int) ([]float64, error)) ([][]float64, error) {
	rows := make([][]float64, n)
	err := sim.ForEach(context.Background(), n, func(i int) (err error) {
		rows[i], err = row(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// sweep collects one row per point and adds the rows to t in point order; a
// point whose row is nil is left out. A row that depends on another row is
// filled in by the caller afterwards.
func sweep[P any](t *Table, points []P, row func(i int, p P) ([]float64, error)) error {
	rows, err := collect(len(points), func(i int) ([]float64, error) { return row(i, points[i]) })
	for _, r := range rows {
		if r != nil {
			t.AddRow(r...)
		}
	}
	return err
}

// bit renders a boolean as a table cell.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// simBudget returns the per-point simulated-time budget for a fidelity
// level, scaled so that Quick finishes in a fraction of a second per point
// at n = 100 (some 500 critical time-scales at the T~h = 30 most runners
// use: a smoke run that still shows the shape) and Full approaches the
// CI-driven regime.
func simBudget(f Fidelity) float64 {
	switch f {
	case Quick:
		return 1.5e4
	case Standard:
		return 3e5
	default:
		return 6e6
	}
}

// quickTarget relaxes the paper's 1e-3 certainty-equivalent target at Quick
// fidelity so overflow happens often enough to measure in seconds; Standard
// and Full keep the paper's value.
func quickTarget(f Fidelity) float64 {
	if f == Quick {
		return 1e-2
	}
	return 1e-3
}
