package traffic

import "math"

// ACF support: closed-form autocorrelation functions for the source
// models, so that the paper's general boundary-crossing formula (eq. 30,
// theory.ContinuousOverflowGeneralACF) can be driven by any model in this
// package rather than only the exponential rho of the OU/RCBR case.

// ACF returns the RCBR model's autocorrelation function
// rho(t) = exp(−|t|/Tc): a renewal of the rate at Poisson epochs leaves
// correlation equal to the no-renewal probability.
func (m RCBR) ACF() func(float64) float64 {
	return func(t float64) float64 { return math.Exp(-math.Abs(t) / m.CorrTime) }
}

// ACF returns the on-off model's autocorrelation
// rho(t) = exp(−t·(1/OnTime + 1/OffTime)) — the two-state chain's single
// non-zero eigenvalue.
func (m OnOff) ACF() func(float64) float64 {
	lambda := 1/m.OnTime + 1/m.OffTime
	return func(t float64) float64 { return math.Exp(-math.Abs(t) * lambda) }
}

// ACF returns the Markov fluid's exact autocorrelation function
//
//	rho(t) = [ pi·diag(r)·exp(Q|t|)·r − mu² ] / sigma²,
//
// evaluated via a scaling-and-squaring matrix exponential. The cost is
// O(K³ log t) per evaluation; chains in admission-control models are
// small, so this is negligible next to the quadrature it feeds.
func (m *MarkovFluid) ACF() func(float64) float64 {
	st := m.Stats()
	mu, variance := st.Mean, st.Variance
	k := len(m.Rates)
	return func(t float64) float64 {
		if variance <= 0 {
			return 1
		}
		e := expm(m.Gen, math.Abs(t))
		// cov = sum_i pi_i r_i (e r)_i − mu².
		var cov float64
		for i := 0; i < k; i++ {
			var er float64
			for j := 0; j < k; j++ {
				er += e[i][j] * m.Rates[j]
			}
			cov += m.pi[i] * m.Rates[i] * er
		}
		cov -= mu * mu
		rho := cov / variance
		// Numerical noise can push slightly outside [-1, 1].
		return math.Max(-1, math.Min(1, rho))
	}
}

// ACFDerivative0 returns the right derivative rho'(0+) of the Markov
// fluid's autocorrelation, needed by the general hitting formula:
//
//	rho'(0+) = [ pi·diag(r)·Q·r ] / sigma².
func (m *MarkovFluid) ACFDerivative0() float64 {
	st := m.Stats()
	if st.Variance <= 0 {
		return 0
	}
	k := len(m.Rates)
	var d float64
	for i := 0; i < k; i++ {
		var qr float64
		for j := 0; j < k; j++ {
			qr += m.Gen[i][j] * m.Rates[j]
		}
		d += m.pi[i] * m.Rates[i] * qr
	}
	return d / st.Variance
}

// expm computes exp(Q·t) for a small dense matrix by scaling and squaring
// with a degree-8 Taylor kernel: Q·t is scaled by 2^s so its norm is below
// 1/2, the series is summed, and the result squared s times. For generator
// matrices of modest size and norm this is accurate to ~1e-12.
func expm(q [][]float64, t float64) [][]float64 {
	k := len(q)
	a := make([][]float64, k)
	norm := 0.0
	for i := range a {
		a[i] = make([]float64, k)
		rowSum := 0.0
		for j := range a[i] {
			a[i][j] = q[i][j] * t
			rowSum += math.Abs(a[i][j])
		}
		if rowSum > norm {
			norm = rowSum
		}
	}
	s := 0
	for norm > 0.5 {
		norm /= 2
		s++
	}
	scale := math.Ldexp(1, -s)
	for i := range a {
		for j := range a[i] {
			a[i][j] *= scale
		}
	}
	// Taylor series I + A + A²/2! + ... + A⁸/8!.
	result := identity(k)
	term := identity(k)
	for p := 1; p <= 8; p++ {
		term = matMulScaled(term, a, 1/float64(p))
		matAdd(result, term)
	}
	for i := 0; i < s; i++ {
		result = matMulScaled(result, result, 1)
	}
	return result
}

// identity returns the k x k identity matrix.
func identity(k int) [][]float64 {
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		m[i][i] = 1
	}
	return m
}

// matMulScaled returns (a·b)·f.
func matMulScaled(a, b [][]float64, f float64) [][]float64 {
	k := len(a)
	out := make([][]float64, k)
	for i := 0; i < k; i++ {
		out[i] = make([]float64, k)
		for l := 0; l < k; l++ {
			ail := a[i][l]
			if ail == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				out[i][j] += ail * b[l][j]
			}
		}
		for j := 0; j < k; j++ {
			out[i][j] *= f
		}
	}
	return out
}

// matAdd adds b into a in place.
func matAdd(a, b [][]float64) {
	for i := range a {
		for j := range a[i] {
			a[i][j] += b[i][j]
		}
	}
}
