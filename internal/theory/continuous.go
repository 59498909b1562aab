package theory

import (
	"math"

	"repro/internal/gauss"
	"repro/internal/quad"
)

// Continuous-load results (Section 4): the steady-state overflow
// probability is the probability that a Gaussian error process hits the
// moving boundary alpha + beta·t (Prop. 4.2, Thm. 4.3), approximated by
// Bräker's first-passage density integral.

// integTol is the absolute tolerance used for the hitting integrals; the
// integrands are O(1) smooth densities, so this translates to ~1e-10
// absolute error on probabilities.
const integTol = 1e-10

// HittingProbability evaluates the general locally-stationary boundary
// crossing approximation (eq. 30):
//
//	Pr{ sup_{t>=0} ( X_t − beta·t ) > alpha }
//	  ≈ Q(alpha/sigma(0)) + (v0/2)·∫_0^∞ (alpha+beta·t)/sigma³(t) · phi((alpha+beta·t)/sigma(t)) dt
//
// where sigma2(t) = Var(X_t) and v0 is the right derivative of sigma2 at 0.
// The first term accounts for the process starting above the boundary when
// sigma2(0) > 0 (zero for increment processes such as Y_{-t} − Y_0). The
// result is clamped to [0, 1].
func HittingProbability(alpha, beta float64, sigma2 func(float64) float64, v0 float64) float64 {
	s0 := sigma2(0)
	initial := 0.0
	if s0 > 0 {
		initial = gauss.Q(alpha / math.Sqrt(s0))
	}
	integrand := func(t float64) float64 {
		v := sigma2(t)
		if v <= 0 {
			return 0
		}
		s := math.Sqrt(v)
		z := (alpha + beta*t) / s
		return z / v * gauss.Phi(z)
	}
	integral := 0.5 * v0 * quad.ToInfinity(integrand, 0, integTol)
	return clampProb(initial + integral)
}

// sigmaM2 returns sigma_m²(t/beta) from Section 4.3 as a function of the
// rescaled time u = beta·t:
//
//	sigma_m²(u) = (2Tc+Tm)/(Tc+Tm) − (2Tc/(Tc+Tm))·exp(−gamma·u),
//
// the variance of Z_{−u/beta} − Y_0 where Z is the exponentially filtered
// estimation error. Tm = 0 recovers the memoryless 2(1−exp(−gamma·u)).
func sigmaM2(tc, tm, gamma, u float64) float64 {
	return (2*tc+tm)/(tc+tm) - (2*tc/(tc+tm))*math.Exp(-gamma*u)
}

// ContinuousOverflowIntegral returns the steady-state overflow probability
// of the continuous-load model by numerical evaluation of the paper's
// hitting integral: eq. 32 for Tm = 0, eq. 37 for Tm > 0. pce is the
// certainty-equivalent target used by the MBAC (alpha = Q^-1(pce)).
func ContinuousOverflowIntegral(s System, pce float64) float64 {
	return ContinuousOverflowIntegralAlpha(s, gauss.Qinv(pce))
}

// ContinuousOverflowIntegralAlpha is ContinuousOverflowIntegral with the
// safety factor alpha supplied directly (used by the inversion routines).
func ContinuousOverflowIntegralAlpha(s System, alpha float64) float64 {
	gamma := s.Gamma()
	tc, tm := s.Tc, s.Tm

	// Immediate-hit term: Q(alpha·sqrt(1+Tc/Tm)); absent when memoryless
	// (sigma_m(0) = 0).
	initial := 0.0
	if tm > 0 {
		initial = gauss.Q(alpha * math.Sqrt(1+tc/tm))
	}
	// Prefactor gamma·Tc/(Tc+Tm) (eq. 37); gamma when memoryless (eq. 32).
	pre := gamma * tc / (tc + tm)

	integrand := func(u float64) float64 {
		v := sigmaM2(tc, tm, gamma, u)
		if v <= 0 {
			return 0
		}
		sm := math.Sqrt(v)
		z := (alpha + u) / sm
		return (alpha + u) / (v * sm) * gauss.Phi(z)
	}
	return clampProb(initial + pre*quad.ToInfinity(integrand, 0, integTol))
}

// ContinuousOverflowTransient returns the Bräker approximation of the
// overflow probability a finite time t after the continuous-load system
// started (Proposition 4.2 before letting t → ∞): estimation errors only
// from the interval [0, t] can contribute, so the hitting integral runs
// over rescaled ages u = beta·tau in [0, beta·t]. It increases
// monotonically to the steady-state ContinuousOverflowIntegralAlpha value.
func ContinuousOverflowTransient(s System, pce, t float64) float64 {
	if t <= 0 {
		return 0
	}
	alpha := gauss.Qinv(pce)
	gamma := s.Gamma()
	tc, tm := s.Tc, s.Tm

	initial := 0.0
	if tm > 0 {
		initial = gauss.Q(alpha * math.Sqrt(1+tc/tm))
	}
	pre := gamma * tc / (tc + tm)
	integrand := func(u float64) float64 {
		v := sigmaM2(tc, tm, gamma, u)
		if v <= 0 {
			return 0
		}
		sm := math.Sqrt(v)
		z := (alpha + u) / sm
		return (alpha + u) / (v * sm) * gauss.Phi(z)
	}
	horizon := s.Beta() * t
	return clampProb(initial + pre*quad.Simpson(integrand, 0, horizon, integTol))
}

// ContinuousOverflowClosedForm returns the separation-of-time-scales closed
// form for the steady-state overflow probability: eq. 33 when Tm = 0,
// eq. 38 when Tm > 0. Valid when gamma = (T~h/Tc)(sigma/mu) >> 1; outside
// that regime prefer ContinuousOverflowIntegral.
func ContinuousOverflowClosedForm(s System, pce float64) float64 {
	return ContinuousOverflowClosedFormAlpha(s, gauss.Qinv(pce))
}

// ContinuousOverflowClosedFormAlpha is ContinuousOverflowClosedForm with
// alpha supplied directly.
func ContinuousOverflowClosedFormAlpha(s System, alpha float64) float64 {
	gamma := s.Gamma()
	tc, tm := s.Tc, s.Tm
	first := gamma * tc / math.Sqrt((tc+tm)*(2*tc+tm)) *
		gauss.InvSqrt2Pi * math.Exp(-(tc+tm)/(2*(2*tc+tm))*alpha*alpha)
	second := 0.0
	if tm > 0 {
		second = gauss.Q(alpha * math.Sqrt(1+tc/tm))
	}
	return clampProb(first + second)
}

// MemorylessFlowParamsForm returns eq. 34, the memoryless closed form
// rewritten in flow parameters:
//
//	p_f ≈ (T~h / 2Tc) · (sigma·alpha_q/mu) · Q(alpha_q/sqrt(2)),
//
// exposing the link to the impulsive-load law: the continuous-load penalty
// is the impulsive p_f multiplied by the number of independent estimation
// "chances" per critical time-scale.
func MemorylessFlowParamsForm(s System, pce float64) float64 {
	alpha := gauss.Qinv(pce)
	return clampProb(s.ThTilde() / (2 * s.Tc) * s.SVR() * alpha * gauss.Q(alpha/gauss.Sqrt2))
}

// ContinuousOverflowGeneralACF evaluates the memoryless continuous-load
// overflow probability (eq. 30 specialized as in eq. 29) for an arbitrary
// flow autocorrelation function rho with right-derivative rhoPrime0 =
// rho'(0+) (negative). sigma²(t) = 2(1−rho(t)), v0 = −2·rho'(0+).
func ContinuousOverflowGeneralACF(s System, pce float64, rho func(float64) float64, rhoPrime0 float64) float64 {
	alpha := gauss.Qinv(pce)
	beta := s.Beta()
	sigma2 := func(t float64) float64 { return 2 * (1 - rho(t)) }
	return HittingProbability(alpha, beta, sigma2, -2*rhoPrime0)
}
