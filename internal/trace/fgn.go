package trace

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/rng"
)

// fgn generates n samples of exact fractional Gaussian noise with Hurst
// parameter h in (0, 1), zero mean and unit variance, using the
// Davies–Harte circulant-embedding method. The method is exact: the sample
// has precisely the fGn autocovariance
//
//	gamma(k) = ( |k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H} ) / 2.
//
// It returns an error if h is out of range or the circulant eigenvalues are
// not all non-negative (which cannot happen for true fGn covariances but is
// checked defensively against floating-point trouble).
func fgn(n int, h float64, r *rng.PCG) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: FGN length %d must be positive", n)
	}
	if h <= 0 || h >= 1 {
		return nil, fmt.Errorf("trace: Hurst parameter %g must be in (0,1)", h)
	}
	if h == 0.5 {
		// Plain white noise.
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Normal()
		}
		return out, nil
	}

	// Embed the n x n Toeplitz covariance in a circulant of size m = 2^k >= 2n.
	m := fft.NextPowerOfTwo(2 * n)
	half := m / 2

	gamma := func(k int) float64 {
		fk := float64(k)
		return 0.5 * (math.Pow(math.Abs(fk+1), 2*h) - 2*math.Pow(math.Abs(fk), 2*h) + math.Pow(math.Abs(fk-1), 2*h))
	}

	c := make([]complex128, m)
	for k := 0; k <= half; k++ {
		c[k] = complex(gamma(k), 0)
	}
	for k := half + 1; k < m; k++ {
		c[k] = c[m-k]
	}
	if err := fft.Forward(c); err != nil {
		return nil, err
	}

	// Eigenvalues should be real non-negative; tolerate tiny negative noise.
	lambda := make([]float64, m)
	for k := range c {
		l := real(c[k])
		if l < 0 {
			if l < -1e-8*float64(m) {
				return nil, fmt.Errorf("trace: circulant embedding not nonnegative definite (lambda[%d]=%g)", k, l)
			}
			l = 0
		}
		lambda[k] = l
	}

	// Spectral synthesis with Hermitian-symmetric Gaussian coefficients.
	v := make([]complex128, m)
	v[0] = complex(math.Sqrt(lambda[0])*r.Normal(), 0)
	v[half] = complex(math.Sqrt(lambda[half])*r.Normal(), 0)
	for k := 1; k < half; k++ {
		s := math.Sqrt(lambda[k] / 2)
		re, im := s*r.Normal(), s*r.Normal()
		v[k] = complex(re, im)
		v[m-k] = complex(re, -im)
	}
	if err := fft.Forward(v); err != nil {
		return nil, err
	}

	scale := 1 / math.Sqrt(float64(m))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = real(v[i]) * scale
	}
	return out, nil
}

// VideoConfig parameterizes the synthetic long-range-dependent video trace
// used as the substitute for the Starwars MPEG-1 trace (Figures 11-12).
type VideoConfig struct {
	N         int     // number of samples
	Interval  float64 // piecewise-CBR segment duration
	Mean      float64 // target mean rate
	CV        float64 // coefficient of variation sigma/mu of the rate
	Hurst     float64 // Hurst parameter of the fGn component (~0.8 for Starwars)
	SceneMean float64 // mean scene duration, in samples' time units (0 disables scenes)
	SceneFrac float64 // fraction of the variance carried by scene-level shifts, in [0,1)
}

// DefaultVideoConfig mirrors the gross statistics reported for the
// piecewise-CBR Starwars trace: strong long-range dependence (H ~ 0.8),
// coefficient of variation ~ 0.3 after RCBR smoothing, and scene changes a
// couple of orders of magnitude slower than the segment interval.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{
		N:         1 << 15,
		Interval:  1.0,
		Mean:      1.0,
		CV:        0.3,
		Hurst:     0.8,
		SceneMean: 50,
		SceneFrac: 0.3,
	}
}

// SyntheticVideo builds the LRD piecewise-CBR trace described by cfg.
// Rates are clipped at zero; the final trace is rescaled so that its
// empirical mean matches cfg.Mean exactly.
func SyntheticVideo(cfg VideoConfig, r *rng.PCG) (*Trace, error) {
	if cfg.N <= 0 || cfg.Interval <= 0 || cfg.Mean <= 0 {
		return nil, fmt.Errorf("trace: invalid video config %+v", cfg)
	}
	if cfg.SceneFrac < 0 || cfg.SceneFrac >= 1 {
		return nil, fmt.Errorf("trace: SceneFrac %g must be in [0,1)", cfg.SceneFrac)
	}
	sigma := cfg.CV * cfg.Mean
	sigmaScene := sigma * math.Sqrt(cfg.SceneFrac)
	sigmaFgn := sigma * math.Sqrt(1-cfg.SceneFrac)

	g, err := fgn(cfg.N, cfg.Hurst, r)
	if err != nil {
		return nil, err
	}

	rates := make([]float64, cfg.N)
	sceneLevel := r.Normal() * sigmaScene
	sceneLeft := 0.0
	var sum float64
	for i := range rates {
		if cfg.SceneMean > 0 && cfg.SceneFrac > 0 {
			if sceneLeft <= 0 {
				sceneLevel = r.Normal() * sigmaScene
				sceneLeft = r.Exp(cfg.SceneMean)
			}
			sceneLeft -= cfg.Interval
		} else {
			sceneLevel = 0
		}
		v := cfg.Mean + sigmaFgn*g[i] + sceneLevel
		if v < 0 {
			v = 0
		}
		rates[i] = v
		sum += v
	}
	// Rescale to hit the target mean exactly despite clipping.
	if sum > 0 {
		f := cfg.Mean * float64(cfg.N) / sum
		for i := range rates {
			rates[i] *= f
		}
	}
	return &Trace{Interval: cfg.Interval, Rates: rates}, nil
}
