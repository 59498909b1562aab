package theory

import (
	"math"

	"repro/internal/gauss"
)

// Impulsive-load results (Section 3).

// ImpulsiveOverflow returns the limiting steady-state overflow probability
// of the memoryless certainty-equivalent MBAC in the impulsive-load model
// with infinite holding time (Proposition 3.3):
//
//	p_f = Q( Q^-1(p_q) / sqrt(2) ).
//
// The sqrt(2) reflects the doubling of the aggregate variance by the
// admission-time estimation error; the result is universal (independent of
// the flow distribution and of n).
func ImpulsiveOverflow(pq float64) float64 {
	return gauss.Q(gauss.Qinv(pq) / gauss.Sqrt2)
}

// ImpulsiveAdjustedTarget returns the certainty-equivalent target that
// restores the QoS in the impulsive-load model (eq. 15):
//
//	p_ce = Q( sqrt(2)·Q^-1(p_q) ).
func ImpulsiveAdjustedTarget(pq float64) float64 {
	return gauss.Q(gauss.Sqrt2 * gauss.Qinv(pq))
}

// ImpulsiveAdjustedTargetApprox returns the tail-approximation form of
// eq. 15, showing that the adjusted target is roughly the square of the QoS
// target: applying Q(x) ≈ phi(x)/x to both sides of p_ce = Q(sqrt(2)·alpha_q)
// gives
//
//	p_ce ≈ sqrt(pi)·alpha_q · p_q².
//
// (The memo prints the constant as alpha_q/(2·sqrt(pi)), which is off by a
// factor of 2*pi from the displayed derivation; the value used here matches
// the exact eq. 15 to within the tail-approximation error.)
func ImpulsiveAdjustedTargetApprox(pq float64) float64 {
	alpha := gauss.Qinv(pq)
	return math.Sqrt(math.Pi) * alpha * pq * pq
}

// AdmittedCount describes the heavy-traffic distribution of M0, the number
// of flows the memoryless certainty-equivalent MBAC admits under impulsive
// load (eq. 11 / Proposition 3.1): M0 ≈ n − (sigma/mu)(Y0 + alpha)·sqrt(n)
// with Y0 ~ N(0,1), i.e. Gaussian with the moments below.
type AdmittedCount struct {
	Mean   float64 // n − (sigma·alpha/mu)·sqrt(n) = m*
	StdDev float64 // (sigma/mu)·sqrt(n)
}

// ImpulsiveAdmittedCount returns the limiting distribution of the admitted
// flow count for certainty-equivalent target pce.
func ImpulsiveAdmittedCount(s System, pce float64) AdmittedCount {
	n := s.N()
	sqrtN := math.Sqrt(n)
	return AdmittedCount{
		Mean:   n - s.SVR()*gauss.Qinv(pce)*sqrtN,
		StdDev: s.SVR() * sqrtN,
	}
}

// UtilizationLossSqrt2 returns the paper's Section 3.1 figure of merit for
// the cost of robustness in the impulsive model: choosing alpha_ce =
// sqrt(2)·alpha_q sacrifices (sqrt(2)−1)·sigma·alpha_q·sqrt(n) of carried
// bandwidth relative to perfect knowledge.
func UtilizationLossSqrt2(s System, pq float64) float64 {
	return (gauss.Sqrt2 - 1) * s.Sigma * gauss.Qinv(pq) * math.Sqrt(s.N())
}

// UtilizationDelta returns the difference in average carried bandwidth
// between running the MBAC at certainty-equivalent targets pce and pce2
// (eq. 40): sigma·sqrt(n)·[Q^-1(pce) − Q^-1(pce2)]. Positive values mean
// pce2 (the more conservative target) carries less traffic.
func UtilizationDelta(s System, pce, pce2 float64) float64 {
	return s.Sigma * math.Sqrt(s.N()) * (gauss.Qinv(pce2) - gauss.Qinv(pce))
}

// FiniteHoldingOverflow returns the overflow probability at time t in the
// impulsive-load model with finite exponential holding times (eq. 21):
//
//	p_f(t) = Q( [ (mu/sigma)·(t/T~h) + alpha_q ] / sqrt(2(1 − rho(t))) )
//
// with rho(t) = exp(−t/Tc). For t = 0 the correlation makes overflow
// impossible (returns 0); for large t departed flows make it vanish again;
// the maximum sits at t on the order of the critical time-scale.
func FiniteHoldingOverflow(s System, pce, t float64) float64 {
	alpha := gauss.Qinv(pce)
	rho := math.Exp(-t / s.Tc)
	v := 2 * (1 - rho)
	if v <= 0 {
		return 0
	}
	drift := (s.Mu / s.Sigma) * t / s.ThTilde()
	return gauss.Q((drift + alpha) / math.Sqrt(v))
}

// FiniteHoldingPeak numerically locates the time of the worst overflow
// probability under eq. 21 by golden-section search on [0, span], where
// span defaults to 10·max(Tc, T~h) when span <= 0. It returns the peak time
// and value.
func FiniteHoldingPeak(s System, pce, span float64) (tPeak, pPeak float64) {
	if span <= 0 {
		span = 10 * math.Max(s.Tc, s.ThTilde())
	}
	f := func(t float64) float64 { return FiniteHoldingOverflow(s, pce, t) }
	// Golden-section maximization.
	const phi = 0.6180339887498949
	a, b := 0.0, span
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && b-a > 1e-10*span; i++ {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	tPeak = 0.5 * (a + b)
	return tPeak, f(tPeak)
}
