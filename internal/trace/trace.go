// Package trace provides rate traces for trace-driven simulation — the
// workload behind the paper's Figures 11 and 12, which use a piecewise-CBR
// version of the long-range-dependent MPEG-1 "Star Wars" movie.
//
// That trace is not redistributable, so this package synthesizes a
// substitute with the properties those figures actually exercise: a
// long-range-dependent rate process (exact fractional Gaussian noise via
// Davies–Harte circulant embedding, Hurst ~ 0.8 as measured for the real
// trace by Garrett & Willinger) combined with exponential scene-change
// level shifts, clipped to non-negative rates and rendered piecewise-CBR.
// The substitution is documented in DESIGN.md.
package trace

import (
	"repro/internal/fft"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Trace is a rate process sampled at a fixed interval; sample i is the
// constant rate on [i·Interval, (i+1)·Interval).
type Trace struct {
	Interval float64   // duration of each sample
	Rates    []float64 // non-negative rates
}

// Stats returns empirical marginal statistics plus an estimate of the
// correlation time (integral of the empirical autocorrelation up to its
// first zero crossing) and the peak rate.
func (t *Trace) Stats() traffic.Stats {
	var m stats.Moments
	peak := 0.0
	for _, r := range t.Rates {
		m.Add(r)
		if r > peak {
			peak = r
		}
	}
	return traffic.Stats{
		Mean:     m.Mean(),
		Variance: m.Var(),
		CorrTime: t.CorrTime(),
		Peak:     peak,
	}
}

// ACF returns the empirical autocorrelation of the trace up to maxLag
// samples.
func (t *Trace) ACF(maxLag int) []float64 {
	return fft.Autocorrelation(t.Rates, maxLag)
}

// CorrTime estimates the integral correlation time-scale: the sum of the
// autocorrelation over positive lags until the first zero crossing,
// multiplied by the sampling interval. For an exactly exponential ACF with
// time constant T_c this converges to ~T_c for fine sampling.
func (t *Trace) CorrTime() float64 {
	maxLag := len(t.Rates) / 4
	if maxLag > 4096 {
		maxLag = 4096
	}
	acf := t.ACF(maxLag)
	if len(acf) == 0 {
		return 0
	}
	sum := 0.5 // half weight at lag 0 (trapezoid)
	for k := 1; k < len(acf); k++ {
		if acf[k] <= 0 {
			break
		}
		sum += acf[k]
	}
	return sum * t.Interval
}

// Hurst estimates the Hurst parameter by aggregated variance.
func (t *Trace) Hurst() float64 { return stats.HurstAggVar(t.Rates) }

// ---------------------------------------------------------------------------
// Trace-driven source model.

// Model adapts a Trace into a traffic.Model: each flow plays the trace
// cyclically starting from an independent uniformly random offset, which
// keeps flows identically distributed, stationary (for long traces) and
// approximately independent — the construction the paper uses for its
// Starwars experiment.
type Model struct {
	Trace *Trace
}

// Stats implements traffic.Model.
func (m Model) Stats() traffic.Stats { return m.Trace.Stats() }

// New implements traffic.Model.
func (m Model) New(r *rng.PCG) traffic.Source {
	return &traceSource{t: m.Trace, pos: r.Intn(len(m.Trace.Rates))}
}

type traceSource struct {
	t   *Trace
	pos int
}

func (s *traceSource) Next() traffic.Segment {
	seg := traffic.Segment{Rate: s.t.Rates[s.pos], Duration: s.t.Interval}
	s.pos++
	if s.pos == len(s.t.Rates) {
		s.pos = 0
	}
	return seg
}
