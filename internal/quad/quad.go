// Package quad provides the numerical machinery used to evaluate the
// paper's non-closed-form expressions: adaptive quadrature for the
// boundary-hitting integrals (eqs. 30, 32, 37) and bracketing root finders
// for inverting the overflow-probability formulas to obtain adjusted
// certainty-equivalent targets (Figure 6).
//
// Everything is deterministic and allocation-light; integrands are plain
// func(float64) float64.
package quad

import (
	"errors"
	"math"
)

// ErrNoBracket is returned by root finders when the supplied interval does
// not bracket a sign change.
var ErrNoBracket = errors.New("quad: interval does not bracket a root")

// ErrMaxIter is returned when an iterative method fails to converge within
// its iteration budget.
var ErrMaxIter = errors.New("quad: maximum iterations exceeded")

// Simpson integrates f over [a, b] with adaptive Simpson quadrature to the
// given absolute tolerance. The recursion depth is capped at 50, which is
// ample for the smooth Gaussian-tail integrands in this repository.
func Simpson(f func(float64) float64, a, b, tol float64) float64 {
	if a == b {
		return 0
	}
	if b < a {
		return -Simpson(f, b, a, tol)
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := (b - a) / 6 * (fa + 4*fm + fb)
	return adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, 50)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := 0.5 * (a + b)
	lm, rm := 0.5*(a+m), 0.5*(m+b)
	flm, frm := f(lm), f(rm)
	left := (m - a) / 6 * (fa + 4*flm + fm)
	right := (b - m) / 6 * (fm + 4*frm + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// ToInfinity integrates f over [a, +inf) for integrands that decay at least
// exponentially (all hitting-time densities in the paper do: they carry a
// factor phi((alpha+beta*t)/sigma)). It maps [a, inf) to (0, 1] via
// t = a + u/(1-u) and integrates the transformed integrand adaptively,
// avoiding the singular endpoint.
func ToInfinity(f func(float64) float64, a, tol float64) float64 {
	g := func(u float64) float64 {
		om := 1 - u
		t := a + u/om
		return f(t) / (om * om)
	}
	// Keep away from u=1 where the Jacobian blows up; the integrand decays
	// super-exponentially there for our use cases, so the truncation error
	// at u = 1 - 1e-8 (t ~ 1e8) is negligible.
	return Simpson(g, 0, 1-1e-8, tol)
}

// Bisect finds a root of f in [a, b] by bisection to absolute x-tolerance
// tol. f(a) and f(b) must have opposite signs.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), ErrMaxIter
}

// Brent finds a root of f in [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs. tol is the absolute x-tolerance.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNoBracket
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, ErrMaxIter
}

// BracketDecreasing expands a search interval for a strictly decreasing
// function g until g crosses the target value, returning (lo, hi) with
// g(lo) >= target >= g(hi). It starts from [x0, x0*grow] and multiplies hi
// by grow up to maxExpand times. Used to bracket inversions of overflow
// probability as a function of the certainty-equivalent safety factor.
func BracketDecreasing(g func(float64) float64, target, x0, grow float64, maxExpand int) (lo, hi float64, err error) {
	if grow <= 1 {
		grow = 2
	}
	lo, hi = x0, x0*grow
	if g(lo) < target {
		// Expand downward instead.
		for i := 0; i < maxExpand; i++ {
			hi = lo
			lo /= grow
			if g(lo) >= target {
				return lo, hi, nil
			}
		}
		return 0, 0, ErrNoBracket
	}
	for i := 0; i < maxExpand; i++ {
		if g(hi) <= target {
			return lo, hi, nil
		}
		lo = hi
		hi *= grow
	}
	return 0, 0, ErrNoBracket
}
