// Package stats provides the statistical accumulators used by the
// simulation harness: running moments (Welford), time-weighted fraction
// estimators for overflow probability, batch-means confidence intervals
// implementing the paper's Section 5.2 stopping rules, Wilson intervals,
// streaming autocorrelation, and the aggregated-variance Hurst estimator
// that validates the long-range-dependent trace substitute.
package stats

import "math"

// Moments accumulates count, mean and variance in a single pass using
// Welford's numerically stable recurrence.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean (0 if empty).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 samples).
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observation (0 if empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 if empty).
func (m *Moments) Max() float64 { return m.max }

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// indicator or value process: callers report each constant segment's value
// and duration. It is the estimator behind time-fraction overflow
// probability measurements.
type TimeWeighted struct {
	total    float64 // total observed time
	weighted float64 // integral of value dt
}

// Observe records that the process held value v for duration dt (>= 0).
func (tw *TimeWeighted) Observe(v, dt float64) {
	if dt <= 0 {
		return
	}
	tw.total += dt
	tw.weighted += v * dt
}

// Mean returns the time average (0 if no time observed).
func (tw *TimeWeighted) Mean() float64 {
	if tw.total == 0 {
		return 0
	}
	return tw.weighted / tw.total
}

// Total returns the total observed duration.
func (tw *TimeWeighted) Total() float64 { return tw.total }

// BatchMeans estimates the mean of a correlated time series together with a
// confidence interval by the method of non-overlapping batch means. The
// batch length should exceed the decorrelation time of the series; the
// simulation harness uses 2·max(T̃_h, T_m, T_c), the paper's §5.2 sample
// spacing.
type BatchMeans struct {
	batchLen float64 // time length of a batch

	curSum  float64 // integral within the current batch
	curTime float64 // elapsed time within the current batch
	batches Moments // completed batch means
}

// NewBatchMeans returns an accumulator with the given batch duration.
func NewBatchMeans(batchLen float64) *BatchMeans {
	if batchLen <= 0 {
		batchLen = 1
	}
	return &BatchMeans{batchLen: batchLen}
}

// Observe records a piecewise-constant segment with value v lasting dt,
// splitting it across batch boundaries as needed.
func (b *BatchMeans) Observe(v, dt float64) {
	for dt > 0 {
		room := b.batchLen - b.curTime
		step := math.Min(room, dt)
		b.curSum += v * step
		b.curTime += step
		dt -= step
		if b.curTime >= b.batchLen {
			b.batches.Add(b.curSum / b.batchLen)
			b.curSum, b.curTime = 0, 0
		}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// HalfWidth returns the 95% confidence half-width of the mean using the
// normal approximation across batch means (valid once Batches() is large;
// returns +Inf with fewer than 2 batches).
func (b *BatchMeans) HalfWidth() float64 {
	n := b.batches.N()
	if n < 2 {
		return math.Inf(1)
	}
	return 1.96 * b.batches.StdDev() / math.Sqrt(float64(n))
}

// Counter counts Bernoulli outcomes with a normal-approximation confidence
// interval, for point-sampled overflow estimation.
type Counter struct {
	n, hits int64
}

// Add records one trial with the given outcome.
func (c *Counter) Add(hit bool) {
	c.n++
	if hit {
		c.hits++
	}
}

// N returns the number of trials; Hits the number of successes.
func (c *Counter) N() int64    { return c.n }
func (c *Counter) Hits() int64 { return c.hits }

// P returns the empirical success probability.
func (c *Counter) P() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.n)
}

// HalfWidth returns the 95% normal-approximation confidence half-width.
func (c *Counter) HalfWidth() float64 {
	if c.n == 0 {
		return math.Inf(1)
	}
	p := c.P()
	return 1.96 * math.Sqrt(p*(1-p)/float64(c.n))
}

// Wilson returns the Wilson score interval for a binomial proportion:
// hits successes out of n trials at normal quantile z (1.96 for 95%).
// Unlike the normal-approximation interval it stays inside [0, 1] and
// remains informative at the small counts typical of windowed overflow
// estimation (p_f ~ 1e-2 over a few thousand ticks). n <= 0 yields the
// vacuous interval [0, 1].
func Wilson(hits, n int64, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if z < 0 {
		z = -z
	}
	nf := float64(n)
	p := float64(hits) / nf
	zz := z * z
	denom := 1 + zz/nf
	center := (p + zz/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+zz/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WindowedEstimate is a windowed Bernoulli rate with its Wilson confidence
// interval — the observable form of the overflow probability p_f.
type WindowedEstimate struct {
	P    float64 `json:"p"`    // windowed success fraction
	Lo   float64 `json:"lo"`   // Wilson lower bound
	Hi   float64 `json:"hi"`   // Wilson upper bound
	Hits int64   `json:"hits"` // successes inside the window
	N    int64   `json:"n"`    // trials inside the window
	Z    float64 `json:"z"`    // normal quantile used for [Lo, Hi]
}

// SlidingCounter counts Bernoulli outcomes over a sliding window of the
// last W trials. It is the accumulator
// behind windowed overflow-probability estimation: each measurement tick
// contributes one overflow indicator, and the window keeps the estimate
// responsive to the current operating point instead of averaging over the
// whole run. Not safe for concurrent use; callers synchronize.
type SlidingCounter struct {
	ring []bool
	next int
	fill int

	hits int64 // successes within the window
}

// NewSlidingCounter returns a counter over a window of w trials (w >= 1).
func NewSlidingCounter(w int) *SlidingCounter {
	if w < 1 {
		w = 1
	}
	return &SlidingCounter{ring: make([]bool, w)}
}

// Add records one trial, evicting the oldest once the window is full.
func (s *SlidingCounter) Add(hit bool) {
	if s.fill == len(s.ring) {
		if s.ring[s.next] {
			s.hits--
		}
	} else {
		s.fill++
	}
	s.ring[s.next] = hit
	if hit {
		s.hits++
	}
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
	}
}

// N returns the number of trials currently in the window.
func (s *SlidingCounter) N() int64 { return int64(s.fill) }

// Hits returns the number of successes currently in the window.
func (s *SlidingCounter) Hits() int64 { return s.hits }

// P returns the windowed success fraction (0 if the window is empty).
func (s *SlidingCounter) P() float64 {
	if s.fill == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.fill)
}

// Estimate returns the windowed rate with its Wilson interval at normal
// quantile z (z <= 0 selects 1.96, the 95% interval).
func (s *SlidingCounter) Estimate(z float64) WindowedEstimate {
	if z <= 0 {
		z = 1.96
	}
	lo, hi := Wilson(s.hits, int64(s.fill), z)
	return WindowedEstimate{
		P:    s.P(),
		Lo:   lo,
		Hi:   hi,
		Hits: s.hits,
		N:    int64(s.fill),
		Z:    z,
	}
}
