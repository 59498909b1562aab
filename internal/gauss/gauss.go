// Package gauss provides the Gaussian (normal) distribution functions that
// underpin the heavy-traffic analysis in Grossglauser & Tse's framework for
// robust measurement-based admission control: the standard normal density
// phi, the tail function Q (complementary CDF) and its inverse Q^-1, which
// relate target overflow probabilities to their certainty-equivalent
// adjustments.
//
// All functions operate on the standard N(0,1) distribution; callers scale
// and shift as needed. Accuracy of Qinv is better than 1e-14 in relative
// terms over the full double range, achieved by a rational initial guess
// (Acklam) polished with two Halley iterations against the exact Q computed
// from math.Erfc.
package gauss

import "math"

// InvSqrt2Pi is 1/sqrt(2*pi), the peak value of the standard normal density.
const InvSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659258297

// Sqrt2 is sqrt(2), the factor relating Q to the complementary error
// function and the factor by which measurement error inflates the effective
// fluctuation in the paper's impulsive-load model (Proposition 3.3).
const Sqrt2 = math.Sqrt2

// Phi returns the standard normal probability density function
//
//	phi(x) = exp(-x^2/2) / sqrt(2*pi)
//
// (paper eq. 1).
func Phi(x float64) float64 {
	return InvSqrt2Pi * math.Exp(-0.5*x*x)
}

// CDF returns the standard normal cumulative distribution function
// Pr{N(0,1) <= x}.
func CDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/Sqrt2)
}

// Q returns the standard normal tail probability Pr{N(0,1) > x}
// (paper eq. 2). It is computed from the complementary error function and
// retains full relative accuracy deep into the tail (Q(38) ~ 2.9e-316).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/Sqrt2)
}

// Acklam's rational approximation coefficients for the inverse normal CDF.
var (
	acklamA = [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	acklamB = [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	acklamC = [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	acklamD = [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
)

// invCDF returns Phi^-1(p), the inverse of the standard normal CDF, using
// Acklam's algorithm followed by Halley refinement.
func invCDF(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((acklamA[0]*r+acklamA[1])*r+acklamA[2])*r+acklamA[3])*r+acklamA[4])*r + acklamA[5]) * q /
			(((((acklamB[0]*r+acklamB[1])*r+acklamB[2])*r+acklamB[3])*r+acklamB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((acklamC[0]*q+acklamC[1])*q+acklamC[2])*q+acklamC[3])*q+acklamC[4])*q + acklamC[5]) /
			((((acklamD[0]*q+acklamD[1])*q+acklamD[2])*q+acklamD[3])*q + 1)
	}

	// Two Halley iterations against the exact CDF push the ~1e-9 relative
	// error of the rational approximation down to machine precision.
	for i := 0; i < 2; i++ {
		e := CDF(x) - p
		u := e / Phi(x) // Newton step
		x -= u / (1 + u*x/2)
	}
	return x
}

// Qinv returns Q^-1(p): the value alpha such that Q(alpha) = p. In the
// paper's notation, Qinv(p_q) is alpha_q, the Gaussian safety-margin
// multiplier for target overflow probability p_q (used in eqs. 4, 5, 15).
func Qinv(p float64) float64 {
	return -invCDF(p)
}
