// Package link models the paper's network resource: a single bufferless
// link of capacity c. Overload occurs whenever the instantaneous aggregate
// bandwidth demand exceeds the capacity; the quality-of-service metric is
// the steady-state overflow probability p_f.
//
// The link accounts for overflow in the two ways used by the evaluation:
//
//   - time-weighted: the fraction of time the aggregate exceeds c, with a
//     batch-means confidence interval (efficient; uses every instant);
//   - point-sampled: the paper's Section 5.2 procedure — Bernoulli samples
//     of the overflow indicator at a spacing of 2·max(T~h, T_m, T_c), plus
//     the Gaussian extrapolation Q((c − mu^)/sigma^) from the sampled
//     aggregate moments for targets too small to observe directly.
//
// It also integrates carried load for utilization reporting.
package link

import (
	"math"

	"repro/internal/gauss"
	"repro/internal/stats"
)

// Link is a bufferless link with overflow and utilization accounting.
// Create with New; drive with SetLoad/AdvanceTo; read the estimators at the
// end of a run. Statistics only accumulate after EnableStats is called
// (warm-up support).
type Link struct {
	capacity float64

	now     float64 // time of the last state change
	load    float64 // current aggregate rate
	flows   int     // current flow count (for reporting)
	stating bool    // statistics enabled

	overflow  stats.TimeWeighted // time-weighted overflow indicator
	batches   *stats.BatchMeans  // batch-means CI for the overflow fraction
	carried   stats.TimeWeighted // time-weighted carried load (min(load, c))
	offered   stats.TimeWeighted // time-weighted offered load
	flowCount stats.TimeWeighted // time-weighted number of flows

	samplePeriod float64       // point-sample spacing (0 disables)
	nextSample   float64       // absolute time of the next sample
	samples      stats.Counter // point-sampled overflow indicator
	loadMoments  stats.Moments // sampled aggregate load, for extrapolation
	peakLoad     float64       // maximum load seen while stats enabled

	utilityFn func(float64) float64
	utility   stats.TimeWeighted // time-weighted utility of the served fraction
}

// Config parameterizes a Link.
type Config struct {
	Capacity float64
	// BatchLen is the batch length for the time-weighted estimator's
	// confidence interval; use 2·max(T~h, T_m, T_c). Zero disables batching
	// (the time-weighted mean still accumulates).
	BatchLen float64
	// SamplePeriod is the spacing of the paper's point samples; zero
	// disables point sampling.
	SamplePeriod float64
	// Utility, if non-nil, scores the fraction of demand the link can
	// serve at each instant (1 when under capacity, c/load when over) and
	// the time average is reported as MeanUtility. This implements the
	// utility-function QoS generalization sketched in the paper's Section 7
	// for adaptive applications.
	Utility func(servedFraction float64) float64
}

// New returns an idle link at time 0 with statistics disabled.
func New(cfg Config) *Link {
	l := &Link{capacity: cfg.Capacity, samplePeriod: cfg.SamplePeriod, utilityFn: cfg.Utility}
	if cfg.BatchLen > 0 {
		l.batches = stats.NewBatchMeans(cfg.BatchLen)
	}
	return l
}

// Capacity returns the configured capacity.
func (l *Link) Capacity() float64 { return l.capacity }

// Load returns the current aggregate rate.
func (l *Link) Load() float64 { return l.load }

// Now returns the link's current notion of time.
func (l *Link) Now() float64 { return l.now }

// EnableStats starts statistics collection at time t (the end of warm-up).
// The link must already have been advanced to t.
func (l *Link) EnableStats(t float64) {
	l.AdvanceTo(t)
	l.stating = true
	if l.samplePeriod > 0 {
		l.nextSample = t + l.samplePeriod
	}
}

// AdvanceTo accounts for the interval [now, t] under the current load and
// moves the clock to t. Calls with t <= now are no-ops.
func (l *Link) AdvanceTo(t float64) {
	if t <= l.now {
		return
	}
	if l.stating {
		dt := t - l.now
		over := 0.0
		if l.load > l.capacity {
			over = 1
		}
		l.overflow.Observe(over, dt)
		if l.batches != nil {
			l.batches.Observe(over, dt)
		}
		l.carried.Observe(math.Min(l.load, l.capacity), dt)
		l.offered.Observe(l.load, dt)
		l.flowCount.Observe(float64(l.flows), dt)
		if l.utilityFn != nil {
			frac := 1.0
			if l.load > l.capacity {
				frac = l.capacity / l.load
			}
			l.utility.Observe(l.utilityFn(frac), dt)
		}
		if l.load > l.peakLoad {
			l.peakLoad = l.load
		}
		// Point samples strictly inside (now, t].
		for l.samplePeriod > 0 && l.nextSample <= t {
			l.samples.Add(l.load > l.capacity)
			l.loadMoments.Add(l.load)
			l.nextSample += l.samplePeriod
		}
	}
	l.now = t
}

// SetLoad records a state change at time t: the link first accounts
// [now, t] under the old load, then switches to the new aggregate rate and
// flow count.
func (l *Link) SetLoad(t, load float64, flows int) {
	l.AdvanceTo(t)
	l.load = load
	l.flows = flows
}

// AccumulateBatch applies a run of load changes that all happen at the same
// instant t — an admission burst — as one state change. It is equivalent to
// calling SetLoad(t, loads[i], flows[i]) for each i in order: the
// intermediate states occupy zero time, so only the final one can ever be
// integrated or sampled, and the batch advances once and keeps the last
// entry. The simulation engine uses it to issue one link call per event
// instead of one per admitted flow. Empty batches are no-ops.
func (l *Link) AccumulateBatch(t float64, loads []float64, flows []int) {
	if len(loads) == 0 {
		return
	}
	l.AdvanceTo(t)
	l.load = loads[len(loads)-1]
	l.flows = flows[len(flows)-1]
}

// Report is a snapshot of the link's accumulated statistics.
type Report struct {
	Duration float64 // observed (post-warm-up) time

	// OverflowTimeFraction is the time-weighted overflow probability with
	// its 95% batch-means half-width (half-width is +Inf if batching was
	// disabled or produced < 2 batches).
	OverflowTimeFraction float64
	OverflowHalfWidth    float64
	Batches              int64

	// OverflowPointSample is the paper's point-sampled estimate with its
	// Bernoulli 95% half-width; Samples is the number of points.
	OverflowPointSample float64
	PointHalfWidth      float64
	Samples             int64
	OverflowHits        int64

	// OverflowGaussian is the paper's extrapolated estimate
	// Q((c − mu^)/sigma^) from the sampled aggregate moments, used when the
	// direct estimate would need prohibitively long runs.
	OverflowGaussian float64

	Utilization float64 // carried load / capacity
	OfferedLoad float64 // mean offered aggregate rate
	MeanFlows   float64 // time-averaged flow count
	PeakLoad    float64
	MeanLoad    float64 // mean of the sampled loads
	LoadStdDev  float64

	// MeanUtility is the time-averaged utility of the served fraction when
	// a Utility function was configured (Section 7's adaptive-application
	// QoS); 0 otherwise.
	MeanUtility float64
}

// Report returns the current statistics snapshot.
func (l *Link) Report() Report {
	r := Report{
		Duration:             l.overflow.Total(),
		OverflowTimeFraction: l.overflow.Mean(),
		OverflowHalfWidth:    math.Inf(1),
		OverflowPointSample:  l.samples.P(),
		PointHalfWidth:       l.samples.HalfWidth(),
		Samples:              l.samples.N(),
		OverflowHits:         l.samples.Hits(),
		OfferedLoad:          l.offered.Mean(),
		MeanFlows:            l.flowCount.Mean(),
		PeakLoad:             l.peakLoad,
		MeanLoad:             l.loadMoments.Mean(),
		LoadStdDev:           l.loadMoments.StdDev(),
	}
	if l.batches != nil {
		r.OverflowHalfWidth = l.batches.HalfWidth()
		r.Batches = l.batches.Batches()
	}
	if l.utilityFn != nil {
		r.MeanUtility = l.utility.Mean()
	}
	if l.capacity > 0 {
		r.Utilization = l.carried.Mean() / l.capacity
	}
	if l.loadMoments.N() >= 2 && r.LoadStdDev > 0 {
		r.OverflowGaussian = gauss.Q((l.capacity - r.MeanLoad) / r.LoadStdDev)
	}
	return r
}

// BestOverflowEstimate applies the paper's Section 5.2 reporting rule to
// the time-weighted estimate: if the direct estimate has resolved (its 95%
// CI is within ±rel of the mean) return it; otherwise, if the direct
// estimate plus its CI is far below the target, return the Gaussian
// extrapolation; otherwise return the direct estimate with ok = false to
// signal that neither criterion was met.
func (r Report) BestOverflowEstimate(target, rel float64) (pf float64, resolved bool) {
	if r.OverflowTimeFraction > 0 && r.OverflowHalfWidth <= rel*r.OverflowTimeFraction {
		return r.OverflowTimeFraction, true
	}
	upper := r.OverflowTimeFraction
	if !math.IsInf(r.OverflowHalfWidth, 1) {
		upper += r.OverflowHalfWidth
	}
	if target > 0 && upper <= target/100 {
		return r.OverflowGaussian, true
	}
	return r.OverflowTimeFraction, false
}
