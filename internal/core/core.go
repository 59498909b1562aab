// Package core implements the admission controllers studied in the paper:
// the certainty-equivalent measurement-based controller (with any estimator
// from internal/estimator behind it), the perfect-knowledge controller used
// as the baseline, and two simpler comparison schemes (peak-rate allocation
// and a Jamin-style measured-sum rule).
//
// A controller answers one question: given the current state of the link
// and the current measurements, how many flows may be in the system right
// now? The simulator admits waiting flows while the actual flow count is
// below that limit; flows are never ejected.
package core

import (
	"fmt"
	"math"

	"repro/internal/enum"
	"repro/internal/gauss"
	"repro/internal/theory"
)

// Measurement is the controller's view of the link at a decision instant.
type Measurement struct {
	Capacity      float64 // link capacity c
	Flows         int     // number of flows currently in the system
	AggregateRate float64 // current total measured rate of those flows
	Mu            float64 // estimated per-flow mean rate
	Sigma         float64 // estimated per-flow rate standard deviation
	OK            bool    // Mu/Sigma are valid (estimator warmed up)
}

// Controller decides the admissible number of flows.
type Controller interface {
	// Admissible returns the maximum (real-valued) number of flows that may
	// be in the system given m. The simulator admits while
	// float64(m.Flows) < Admissible(m).
	Admissible(m Measurement) float64
	// Name identifies the controller in reports.
	Name() string
}

// Policy names an admission rule the paper compares: the one table every
// CLI flag and scenario arm resolves a policy name through. Its names are
// the ones the controllers' Name methods return.
type Policy int

const (
	PolicyCertaintyEquivalent Policy = iota
	PolicyPerfectKnowledge
	PolicyPeakRate
	PolicyMeasuredSum
	policyEnd // sentinel: PolicyNames names every constant above
)

// PolicyNames is the policy name table.
var PolicyNames = enum.New(PolicyCertaintyEquivalent, policyEnd,
	"certainty-equivalent", "perfect-knowledge", "peak-rate", "measured-sum")

// String implements fmt.Stringer.
func (p Policy) String() string { return PolicyNames.String(p) }

// Declared is what a policy is built from: the link, the per-flow
// statistics declared for the traffic, and the policy's own target.
type Declared struct {
	Capacity    float64 // link capacity c
	Mean, Sigma float64 // per-flow mean rate and standard deviation
	Peak        float64 // per-flow peak rate (peak-rate)
	Target      float64 // p_ce (certainty-equivalent) or p_q (perfect-knowledge)
	Eta         float64 // utilization target (measured-sum)
}

// New builds the policy's controller from d. Peak-rate refuses a peak that
// is not finite and positive: c/peak would admit nothing.
func (p Policy) New(d Declared) (Controller, error) {
	switch p {
	case PolicyCertaintyEquivalent:
		return NewCertaintyEquivalent(d.Target, d.Mean, d.Sigma)
	case PolicyPerfectKnowledge:
		return NewPerfectKnowledge(d.Capacity, d.Mean, d.Sigma, d.Target)
	case PolicyPeakRate:
		if !(d.Peak > 0) || math.IsInf(d.Peak, 1) {
			return nil, fmt.Errorf("core: peak-rate needs a finite positive peak, got %g", d.Peak)
		}
		return PeakRate{Peak: d.Peak}, nil
	case PolicyMeasuredSum:
		return NewMeasuredSum(d.Eta, d.Mean)
	}
	return nil, fmt.Errorf("core: unknown policy %v", p)
}

// ---------------------------------------------------------------------------
// Certainty-equivalent MBAC (eqs. 6/22, closed form eq. 42).

// CertaintyEquivalent is the paper's measurement-based admission
// controller: it admits the largest M satisfying
//
//	Q[ (c − M·mu^) / (sigma^·sqrt(M)) ] <= p_ce,
//
// treating the estimates as if they were the true parameters. The
// conservatism of the scheme is set by the certainty-equivalent target
// p_ce (equivalently the safety factor alpha_ce = Q^-1(p_ce)).
type CertaintyEquivalent struct {
	alpha float64 // Q^-1(p_ce), precomputed
	pce   float64

	// Bootstrap parameters used while measurements are not yet valid
	// (fewer than two flows ever observed). DeclaredMean must be positive;
	// DeclaredSigma may be zero for a peak/mean-style declaration.
	DeclaredMean  float64
	DeclaredSigma float64
}

// NewCertaintyEquivalent returns a certainty-equivalent controller with
// target overflow probability pce (0 < pce < 1) and the given bootstrap
// declaration. It returns an error for invalid parameters.
func NewCertaintyEquivalent(pce, declaredMean, declaredSigma float64) (*CertaintyEquivalent, error) {
	if pce <= 0 || pce >= 1 {
		return nil, fmt.Errorf("core: certainty-equivalent target %g out of (0,1)", pce)
	}
	if declaredMean <= 0 {
		return nil, fmt.Errorf("core: declared mean %g must be positive", declaredMean)
	}
	if declaredSigma < 0 {
		return nil, fmt.Errorf("core: declared sigma %g must be non-negative", declaredSigma)
	}
	return &CertaintyEquivalent{
		alpha:         gauss.Qinv(pce),
		pce:           pce,
		DeclaredMean:  declaredMean,
		DeclaredSigma: declaredSigma,
	}, nil
}

// Target returns the certainty-equivalent target p_ce.
func (c *CertaintyEquivalent) Target() float64 { return c.pce }

// Alpha returns the safety factor Q^-1(p_ce).
func (c *CertaintyEquivalent) Alpha() float64 { return c.alpha }

// Name implements Controller.
func (c *CertaintyEquivalent) Name() string { return PolicyCertaintyEquivalent.String() }

// Admissible implements Controller. Non-finite or non-positive estimates
// (a collapsed or corrupted measurement path) fall back to the bootstrap
// declaration rather than admitting unboundedly, and the result is clamped
// to a finite non-negative count — an online gateway must never publish
// NaN as its admission bound.
func (c *CertaintyEquivalent) Admissible(m Measurement) float64 {
	mu, sigma := m.Mu, m.Sigma
	if !m.OK || !(mu > 0) || math.IsInf(mu, 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 {
		mu, sigma = c.DeclaredMean, c.DeclaredSigma
	}
	a := theory.AdmissibleFlowsAlpha(m.Capacity, mu, sigma, c.alpha)
	if math.IsNaN(a) || a < 0 {
		return 0
	}
	return a
}

// ---------------------------------------------------------------------------
// Perfect-knowledge controller (Section 3.1 baseline).

// PerfectKnowledge admits the fixed m* computed from the true flow
// statistics — the genie-aided baseline whose achieved overflow probability
// equals the target exactly (in the heavy-traffic limit).
type PerfectKnowledge struct {
	mstar float64
	pq    float64
}

// NewPerfectKnowledge returns the baseline controller for target pq and
// true statistics (mu, sigma) on capacity c.
func NewPerfectKnowledge(c, mu, sigma, pq float64) (*PerfectKnowledge, error) {
	if pq <= 0 || pq >= 1 {
		return nil, fmt.Errorf("core: target %g out of (0,1)", pq)
	}
	if c <= 0 || mu <= 0 || sigma < 0 {
		return nil, fmt.Errorf("core: invalid parameters c=%g mu=%g sigma=%g", c, mu, sigma)
	}
	return &PerfectKnowledge{mstar: theory.AdmissibleFlows(c, mu, sigma, pq), pq: pq}, nil
}

// MStar returns the precomputed admissible flow count m*.
func (c *PerfectKnowledge) MStar() float64 { return c.mstar }

// Name implements Controller.
func (c *PerfectKnowledge) Name() string { return PolicyPerfectKnowledge.String() }

// Admissible implements Controller.
func (c *PerfectKnowledge) Admissible(Measurement) float64 { return c.mstar }

// ---------------------------------------------------------------------------
// Peak-rate allocation.

// PeakRate admits floor(c/peak) flows: the zero-multiplexing baseline that
// a-priori traffic specification with peak-rate policing yields. It never
// overflows (for sources honoring the peak) and wastes the statistical
// multiplexing gain — the inefficiency motivating MBAC in the first place.
type PeakRate struct {
	Peak float64
}

// Name implements Controller.
func (c PeakRate) Name() string { return PolicyPeakRate.String() }

// Admissible implements Controller. A peak that is not positive (none
// declared yet, or NaN) admits nothing.
func (c PeakRate) Admissible(m Measurement) float64 {
	if !(c.Peak > 0) {
		return 0
	}
	return m.Capacity / c.Peak
}

// ---------------------------------------------------------------------------
// Measured-sum controller (Jamin et al. style).

// MeasuredSum admits a new flow while the measured aggregate load plus the
// newcomer's declared rate stays below a utilization target eta·c — the
// simple admission rule of Jamin, Danzig, Shenker & Zhang (SIGCOMM'95),
// included as a comparison point (Section 6 of the paper relates eta to
// the certainty-equivalent conservatism).
type MeasuredSum struct {
	Eta          float64 // utilization target in (0, 1]
	DeclaredRate float64 // rate attributed to an arriving flow
}

// NewMeasuredSum validates and returns a measured-sum controller.
func NewMeasuredSum(eta, declaredRate float64) (*MeasuredSum, error) {
	if eta <= 0 || eta > 1 {
		return nil, fmt.Errorf("core: utilization target %g out of (0,1]", eta)
	}
	if declaredRate <= 0 {
		return nil, fmt.Errorf("core: declared rate %g must be positive", declaredRate)
	}
	return &MeasuredSum{Eta: eta, DeclaredRate: declaredRate}, nil
}

// Name implements Controller.
func (c *MeasuredSum) Name() string { return PolicyMeasuredSum.String() }

// Admissible implements Controller. The headroom (eta·c − measured load)
// divided by the declared rate bounds how many more flows fit; the rule
// never ejects, so the result is at least the current flow count.
func (c *MeasuredSum) Admissible(m Measurement) float64 {
	headroom := c.Eta*m.Capacity - m.AggregateRate
	extra := math.Max(0, headroom/c.DeclaredRate)
	return float64(m.Flows) + extra
}

// ---------------------------------------------------------------------------
// Hard limit wrapper.

// WithFlowCap wraps a controller with an absolute upper bound on the flow
// count, e.g. a port limit; useful for failure-injection tests.
func WithFlowCap(inner Controller, cap float64) Controller {
	return flowCap{inner: inner, cap: cap}
}

type flowCap struct {
	inner Controller
	cap   float64
}

func (f flowCap) Name() string { return f.inner.Name() + "+cap" }

func (f flowCap) Admissible(m Measurement) float64 {
	return math.Min(f.cap, f.inner.Admissible(m))
}
