// Package theory implements every analytical result of Grossglauser & Tse's
// robust-MBAC framework: the perfect-knowledge admissible-flow count, the
// impulsive-load results (the sqrt-2 law, Proposition 3.3), the
// finite-holding-time overflow profile (eq. 21), the continuous-load
// boundary-hitting approximations for memoryless and filtered estimators
// (eqs. 30, 32, 33, 37, 38), the masking/repair regime approximations of
// Section 5.3, the utilization formulas (eq. 40), and the inversion used to
// compute adjusted certainty-equivalent targets (Figure 6).
//
// Notation follows the paper: n = c/mu is the system size, alpha_q =
// Q^-1(p_q) the Gaussian safety factor, T~h = Th/sqrt(n) the critical
// time-scale, beta = mu/(sigma·T~h) the drift of the moving boundary, and
// gamma = 1/(beta·Tc) = (T~h/Tc)(sigma/mu) the time-scale separation.
package theory

import (
	"fmt"
	"math"

	"repro/internal/gauss"
)

// System collects the parameters of the bufferless-link MBAC model.
type System struct {
	Capacity float64 // link capacity c
	Mu       float64 // per-flow mean rate mu
	Sigma    float64 // per-flow rate standard deviation sigma
	Th       float64 // mean flow holding time T_h (unscaled)
	Tc       float64 // traffic correlation time-scale T_c (OU model, eq. 31)
	Tm       float64 // estimator memory window T_m (0 = memoryless)
}

// Validate reports the first structural problem with the parameters, or nil.
func (s System) Validate() error {
	switch {
	case s.Capacity <= 0:
		return fmt.Errorf("theory: capacity %g must be positive", s.Capacity)
	case s.Mu <= 0:
		return fmt.Errorf("theory: mu %g must be positive", s.Mu)
	case s.Sigma < 0:
		return fmt.Errorf("theory: sigma %g must be non-negative", s.Sigma)
	case s.Th < 0:
		return fmt.Errorf("theory: Th %g must be non-negative", s.Th)
	case s.Tc < 0:
		return fmt.Errorf("theory: Tc %g must be non-negative", s.Tc)
	case s.Tm < 0:
		return fmt.Errorf("theory: Tm %g must be non-negative", s.Tm)
	}
	return nil
}

// N returns the system size n = c/mu: the number of flows the link carries
// at constant rate mu.
func (s System) N() float64 { return s.Capacity / s.Mu }

// SVR returns sigma/mu, the flows' coefficient of variation.
func (s System) SVR() float64 { return s.Sigma / s.Mu }

// ThTilde returns the critical time-scale T~h = Th/sqrt(n): the time the
// system needs to repair an admission error through departures.
func (s System) ThTilde() float64 { return s.Th / math.Sqrt(s.N()) }

// Beta returns beta = mu/(sigma·T~h), the drift of the moving boundary in
// the hitting-probability representation (eq. 28).
func (s System) Beta() float64 { return s.Mu / (s.Sigma * s.ThTilde()) }

// Gamma returns gamma = 1/(beta·Tc) = (T~h/Tc)·(sigma/mu), the separation
// between the flow and burst time-scales.
func (s System) Gamma() float64 { return 1 / (s.Beta() * s.Tc) }

// clampProb forces a probability approximation into [0, 1]; the paper's
// asymptotic formulas can exceed 1 far outside their validity regime.
func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	case math.IsNaN(p):
		return math.NaN()
	}
	return p
}

// ---------------------------------------------------------------------------
// Perfect-knowledge admission (Section 3.1).

// AdmissibleFlows returns m*, the largest (real-valued) number of flows m
// satisfying Q[(c − m·mu)/(sigma·sqrt(m))] = p (eqs. 4 and 42):
//
//	m* = ( sqrt(sigma²·alpha² + 4·c·mu) − sigma·alpha )² / (4·mu²)
//
// with alpha = Q^-1(p). For sigma = 0 it degenerates to c/mu. The result
// may exceed c/mu when p > 1/2 (alpha < 0), i.e. deliberate overbooking.
func AdmissibleFlows(c, mu, sigma, p float64) float64 {
	if mu <= 0 || c <= 0 {
		return 0
	}
	if sigma == 0 {
		return c / mu
	}
	alpha := gauss.Qinv(p)
	return AdmissibleFlowsAlpha(c, mu, sigma, alpha)
}

// AdmissibleFlowsAlpha is AdmissibleFlows parameterized directly by the
// safety factor alpha = Q^-1(p); this is the form controllers use so that
// the quantile inversion happens once, not per decision.
func AdmissibleFlowsAlpha(c, mu, sigma, alpha float64) float64 {
	if mu <= 0 || c <= 0 {
		return 0
	}
	if sigma == 0 {
		return c / mu
	}
	sa := sigma * alpha
	disc := sa*sa + 4*c*mu
	root := (math.Sqrt(disc) - sa) / (2 * mu)
	return root * root
}

// MStarApprox returns the heavy-traffic expansion of m* (eq. 5):
//
//	m* = n − (sigma·alpha_q/mu)·sqrt(n) + o(sqrt(n)).
func MStarApprox(s System, pq float64) float64 {
	n := s.N()
	return n - s.SVR()*gauss.Qinv(pq)*math.Sqrt(n)
}

// SensitivityMu returns s_mu = −phi(alpha_q)·mu·sqrt(m*)/sigma, the
// derivative of the achieved overflow probability with respect to the
// measured mean at the nominal operating point (Section 3.1). Its growth
// with sqrt(n) is the paper's explanation for why mean-estimation errors
// do not wash out in large systems.
func SensitivityMu(s System, pq float64) float64 {
	alpha := gauss.Qinv(pq)
	mstar := AdmissibleFlowsAlpha(s.Capacity, s.Mu, s.Sigma, alpha)
	return -gauss.Phi(alpha) * s.Mu * math.Sqrt(mstar) / s.Sigma
}

// SensitivitySigma returns s_sigma = −alpha_q·phi(alpha_q)/sigma, the
// derivative of the achieved overflow probability with respect to the
// measured standard deviation; independent of system size.
func SensitivitySigma(s System, pq float64) float64 {
	alpha := gauss.Qinv(pq)
	return -alpha * gauss.Phi(alpha) / s.Sigma
}
