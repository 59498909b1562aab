// Package fft implements an iterative radix-2 complex fast Fourier
// transform. It exists to support two needs of the reproduction:
//
//   - exact synthesis of fractional Gaussian noise by circulant embedding
//     (Davies–Harte), used to build the long-range-dependent substitute for
//     the paper's Starwars MPEG trace (Figures 11–12); and
//   - fast empirical autocorrelation estimation of simulated rate processes
//     for validating the OU model ρ(t) = exp(−|t|/T_c) (eq. 31).
//
// Only power-of-two lengths are supported; callers pad as needed.
package fft

import (
	"errors"
	"math"
	"math/bits"
)

// ErrNotPowerOfTwo is returned when an input length is not a power of two.
var ErrNotPowerOfTwo = errors.New("fft: length must be a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n (and >= 1).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(uint64(n-1)))
}

// Forward computes the in-place forward DFT of x. len(x) must be a power of
// two. The convention is X[k] = sum_j x[j]·exp(−2πi·jk/N) (no scaling).
func Forward(x []complex128) error {
	return transform(x, -1)
}

// Inverse computes the in-place inverse DFT of x, including the 1/N scaling
// so that Inverse(Forward(x)) == x up to rounding.
func Inverse(x []complex128) error {
	if err := transform(x, +1); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

// transform runs the iterative Cooley-Tukey butterfly with twiddle sign s.
func transform(x []complex128, s float64) error {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
	}
	if n == 1 {
		return nil
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros64(uint64(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		theta := s * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(theta), math.Sin(theta))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := start; k < start+half; k++ {
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
				w *= wStep
			}
		}
	}
	return nil
}

// Autocorrelation returns the biased empirical autocorrelation function
// r[k] = (1/n)·Σ_t (x[t]−m)(x[t+k]−m) / var(x) for k = 0..maxLag, computed
// in O(n log n) via the Wiener–Khinchin theorem. r[0] == 1 unless the series
// is constant, in which case all entries are 0.
func Autocorrelation(x []float64, maxLag int) []float64 {
	n := len(x)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 || n == 0 {
		return nil
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)

	// Zero-pad to at least 2n to avoid circular wrap-around.
	m := NextPowerOfTwo(2 * n)
	c := make([]complex128, m)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	_ = Forward(c) // length is a power of two by construction
	for i := range c {
		re, im := real(c[i]), imag(c[i])
		c[i] = complex(re*re+im*im, 0)
	}
	_ = Inverse(c)

	r := make([]float64, maxLag+1)
	c0 := real(c[0])
	if c0 <= 0 {
		return r // constant series: zero autocorrelation by convention
	}
	for k := 0; k <= maxLag; k++ {
		r[k] = real(c[k]) / c0
	}
	return r
}
