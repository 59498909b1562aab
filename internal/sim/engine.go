// Package sim is the continuous-time discrete-event simulator behind every
// measured number in this reproduction. It multiplexes piecewise-constant
// traffic sources (internal/traffic) onto a bufferless link (internal/link)
// under an admission controller (internal/core) fed by a measurement
// estimator (internal/estimator).
//
// Two load models from the paper are provided:
//
//   - the continuous-load model (Section 4): an infinite backlog of flows
//     waits for admission, so the system always runs at the limit the MBAC
//     currently believes admissible — the engine in this file;
//   - the impulsive-load model (Section 3): a single burst of admissions at
//     time zero followed by pure departure dynamics — the ensemble runner
//     in ensemble.go.
//
// The engine implements the paper's Section 5.2 measurement methodology:
// warm-up, point samples spaced 2·max(T~h, T_m, T_c) apart, the ±20%
// confidence-interval stopping rule, and the Gaussian extrapolation for
// targets too small to observe directly. A time-weighted overflow estimator
// (with batch-means confidence intervals) is kept alongside as the more
// sample-efficient default; the ablation bench compares the two.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/link"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Config parameterizes a continuous-load simulation run.
type Config struct {
	Capacity    float64             // link capacity c
	Model       traffic.Model       // per-flow traffic model
	Controller  core.Controller     // admission controller
	Estimator   estimator.Estimator // measurement process feeding the controller
	HoldingTime float64             // mean exponential holding time T_h; <= 0 means flows never depart

	// HoldingSampler, if non-nil, draws each flow's holding time instead
	// of the exponential(HoldingTime) default — e.g. hyperexponential
	// mixes for the paper's Section 5.4 heterogeneous-holding-time
	// discussion, or deterministic durations. HoldingTime should still be
	// set to the sampler's mean: it feeds the default warm-up and batch
	// spacing computation. Samples must be positive.
	HoldingSampler func(r *rng.PCG) float64

	// ArrivalRate is the Poisson flow arrival rate. Zero (the default)
	// selects the paper's continuous-load model: an infinite backlog, so
	// the system always sits at the controller's limit. A positive rate
	// makes arrivals discrete events; a flow arriving when the controller
	// refuses is lost (blocked) — the classical loss model. The paper
	// argues the infinite-rate case upper-bounds the overflow probability
	// of any finite rate; the "arrival" experiment quantifies that.
	ArrivalRate float64

	// Utility, if non-nil, is time-averaged over the served fraction
	// (Section 7's adaptive-application QoS); reported as MeanUtility.
	Utility func(servedFraction float64) float64

	// BufferSize, if positive (or +Inf), additionally drives the same
	// aggregate through a fluid buffer of that size served at Capacity and
	// reports loss/backlog/delay in Result.Buffer — quantifying the
	// paper's Section 2 claim that the bufferless model is a conservative
	// bound for buffered systems. Zero disables buffered accounting.
	BufferSize float64

	Seed uint64 // master seed; every flow gets an independent substream

	Warmup  float64 // simulated time discarded before statistics start (the paper's: func Warmup)
	MaxTime float64 // measured simulation time budget (post warm-up)

	// TargetP is the QoS target used by the stopping rule's
	// "two-orders-below" branch; 0 disables that branch.
	TargetP float64
	// CheckEvery is the spacing of stopping-rule checks (default
	// MaxTime/64).
	CheckEvery float64

	// Tm and Tc inform the paper's 2·max(T~h, T_m, T_c) spacing of point
	// samples and of the time-weighted CI's batches (the engine cannot see
	// inside the estimator or the model); set them to the values used to
	// build the estimator/model, or leave 0.
	Tm, Tc float64

	// MaxEvents caps the total number of processed events as a safety
	// valve (default 2e9).
	MaxEvents int64

	// TrackAdmissible, if set, records the time average and variance of
	// the controller's admissible count M_t (Figure 2's upper process).
	TrackAdmissible bool

	// SeriesPeriod, if positive, records a (time, load, flows, admissible)
	// sample every SeriesPeriod time units after warm-up into
	// Result.Series — the raw material for Figure 2-style plots of M_t
	// versus N_t and for autocorrelation checks. SeriesLimit caps the
	// number of points (default 1<<20).
	SeriesPeriod float64
	SeriesLimit  int
}

// Warmup is the paper's continuous-load warm-up (Section 5.2): long
// enough for the system to fill and the estimator to forget its bootstrap,
// 20·max(T_c, T_m, T_h/√c) for correlation time tc, estimator memory tm,
// holding time th and capacity c in units of the mean flow rate.
func Warmup(tc, tm, th, c float64) float64 {
	return 20 * math.Max(tc, math.Max(tm, th/math.Sqrt(c)))
}

// relCI is the relative confidence-interval stopping threshold: the
// paper's ±20%.
const relCI = 0.2

// Where the run loop's next event comes from.
const (
	srcFlow    = iota // a live flow's segment end or departure: the flow queue's winner
	srcArrival        // the pending Poisson arrival
	srcOrphan         // a departed flow's leftover segment end
)

// Result reports everything a run measured.
type Result struct {
	link.Report

	// Pf is the overflow probability selected by the paper's reporting
	// rule (direct estimate if resolved, Gaussian extrapolation if far
	// below target); Resolved says whether either criterion was met before
	// the time budget ran out.
	Pf       float64
	Resolved bool

	Admitted int64 // flows admitted (post warm-up and during warm-up)
	Departed int64
	Events   int64
	SimTime  float64 // total simulated time including warm-up
	Flows    int     // flows in the system at the end

	// Finite-arrival-rate accounting (post warm-up): offered arrivals,
	// blocked arrivals, and the blocking probability. All zero under the
	// continuous-load model.
	Arrivals     int64
	Blocked      int64
	BlockingProb float64

	// RCBR renegotiation accounting (post warm-up): rate-increase requests
	// and those landing while the link cannot fit them — the renegotiation
	// failure probability of the RCBR service model the paper's bufferless
	// link abstracts (Section 2).
	RenegRequests    int64
	RenegFailures    int64
	RenegFailureProb float64

	// MeanAdmissible/StdAdmissible describe the controller's M_t process
	// when TrackAdmissible is set.
	MeanAdmissible float64
	StdAdmissible  float64

	// Series holds the sampled trajectory when SeriesPeriod was set.
	Series []SeriesPoint

	// Buffer carries the fluid-buffer metrics when BufferSize was set;
	// zero otherwise.
	Buffer link.BufferReport
}

// SeriesPoint is one sampled instant of a run's trajectory.
type SeriesPoint struct {
	T          float64 // sample time
	Load       float64 // aggregate rate S_t
	Flows      int     // N_t
	Admissible float64 // the controller's M_t at the sample instant
}

// engineArena holds the engine's per-flow state as parallel columns indexed
// by flow slot, plus the deferred-load run buffers — everything that scales
// with flow count and would otherwise be reallocated per run. Arenas are
// recycled through engineArenaPool: an experiment sweeping many short runs
// (a scenario arm's seed matrix, the churn benchmark) reuses one arena's
// capacity instead of regrowing the columns every run.
//
// Invariant: rates[i] is exactly 0 for every inactive slot, so the
// renormalization fold can walk the whole column linearly (x + 0 == x for
// every non-negative x) instead of branching on liveness per slot.
type engineArena struct {
	srcs    []traffic.Source
	rates   []float64
	pending []flowEvents
	streams []rng.PCG // per-slot RNG substream storage, split into in place
	free    []int     // recycled slots

	queue   flowQueue // live flows' next events: leaf i is keyed by the earlier of pending[i]'s two
	orphans eventHeap // departed flows' leftover segment ends (heap.go)

	loadRun []float64 // deferred link updates: aggregate after each change
	flowRun []int     // parallel flow counts
}

// flowEvents is a live flow's two pending events (flowqueue.go's keys):
// the end of the flow's current segment, and its departure (time key
// noEvent, seq 0, for a flow that never departs).
type flowEvents struct {
	seg, dep key
}

// engineArenaPool recycles arenas across Engine lifetimes.
var engineArenaPool = sync.Pool{New: func() any { return new(engineArena) }}

// reset readies a pooled arena: columns emptied (capacity kept) and every
// stale source dropped so a recycled arena never pins a dead model.
func (a *engineArena) reset() {
	a.srcs = a.srcs[:cap(a.srcs)]
	clear(a.srcs)
	a.srcs = a.srcs[:0]
	a.rates = a.rates[:0]
	a.pending = a.pending[:0]
	a.streams = a.streams[:0]
	a.free = a.free[:0]
	a.queue.reset()
	a.orphans.h = a.orphans.h[:0]
	a.loadRun = a.loadRun[:0]
	a.flowRun = a.flowRun[:0]
}

// grow appends one zeroed slot to every column, with an empty leaf in the
// queue, and returns its index.
func (a *engineArena) grow() int {
	a.srcs = append(a.srcs, nil)
	a.rates = append(a.rates, 0)
	a.pending = append(a.pending, flowEvents{})
	a.streams = append(a.streams, rng.PCG{})
	a.queue.grow(len(a.rates))
	return len(a.rates) - 1
}

// Engine runs continuous-load simulations. Construct with New, run with
// Run. An Engine is single-use.
type Engine struct {
	cfg   Config
	rng   *rng.PCG
	clock float64
	seq   uint64 // scheduling counter: every event scheduled takes the next one

	arr        key    // the pending Poisson arrival; its time key is noEvent under continuous load
	horizonKey uint64 // time key of warm-up + MaxTime: nothing later can fire
	err        error  // first invalid segment a model returned; ends the run

	ar      *engineArena
	nActive int
	sumRate float64
	sumSq   float64

	// maxAdmit caps how many flows one event time can admit
	// (4·capacity/meanRate + 64), guarding against a degenerate estimator
	// reporting a near-zero mean.
	maxAdmit int

	spacing float64 // point-sample and CI batch spacing, 2·max(T~h, T_m, T_c)

	lnk *link.Link
	buf *link.FluidBuffer // nil unless BufferSize is set

	flowAware estimator.FlowAware // non-nil when the estimator wants per-flow events

	admitted, departed, processed int64
	sinceRenorm                   int64

	arrivals, blocked  int64 // finite-arrival accounting (post warm-up)
	renegUp, renegFail int64 // RCBR renegotiation accounting (post warm-up)

	admissible   stats.TimeWeighted
	admissibleSq stats.TimeWeighted
	statsOn      bool
	measureStart float64

	series     []SeriesPoint
	nextSeries float64
}

// New validates the configuration and returns an engine ready to Run.
func New(cfg Config) (*Engine, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("sim: capacity %g must be positive", cfg.Capacity)
	}
	if cfg.Model == nil || cfg.Controller == nil || cfg.Estimator == nil {
		return nil, errors.New("sim: Model, Controller and Estimator are all required")
	}
	if cfg.MaxTime <= 0 {
		return nil, fmt.Errorf("sim: MaxTime %g must be positive", cfg.MaxTime)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("sim: Warmup %g must be non-negative", cfg.Warmup)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = cfg.MaxTime / 64
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 2e9
	}
	st := cfg.Model.Stats()
	maxAdmit := 64
	if st.Mean > 0 {
		maxAdmit += int(4 * cfg.Capacity / st.Mean)
	}
	// Sampling/batching: the paper's 2·max(T~h, T_m, T_c) spacing.
	n := cfg.Capacity / math.Max(st.Mean, 1e-12)
	thTilde := 0.0
	if cfg.HoldingTime > 0 {
		thTilde = cfg.HoldingTime / math.Sqrt(n)
	}
	spacing := 2 * math.Max(thTilde, math.Max(cfg.Tm, math.Max(cfg.Tc, st.CorrTime)))
	if spacing <= 0 {
		spacing = 1
	}

	e := &Engine{
		cfg:        cfg,
		maxAdmit:   maxAdmit,
		spacing:    spacing,
		arr:        key{t: noEvent},
		horizonKey: timeKey(cfg.Warmup + cfg.MaxTime),
		rng:        rng.New(cfg.Seed, 0x6d62_6163), // stream tag "mbac"
		lnk: link.New(link.Config{
			Capacity:     cfg.Capacity,
			BatchLen:     spacing,
			SamplePeriod: spacing,
			Utility:      cfg.Utility,
		}),
	}
	if cfg.BufferSize > 0 {
		e.buf = link.NewFluidBuffer(cfg.Capacity, cfg.BufferSize)
	}
	if fa, ok := cfg.Estimator.(estimator.FlowAware); ok {
		e.flowAware = fa
	}
	e.ar = engineArenaPool.Get().(*engineArena)
	e.ar.reset()
	return e, nil
}

// Run executes the simulation to completion and returns the result.
func (e *Engine) Run() (Result, error) {
	if e.ar == nil {
		return Result{}, errors.New("sim: Engine is single-use; Run was already called")
	}
	cfg, ar := e.cfg, e.ar
	e.cfg.Estimator.Reset(0)
	e.cfg.Estimator.Update(e.sumRate, e.sumSq, e.nActive)
	e.pushLoad()
	if cfg.ArrivalRate > 0 {
		e.seq++
		e.arr = key{timeKey(e.rng.Exp(1 / cfg.ArrivalRate)), e.seq}
	} else {
		e.tryAdmissions()
	}
	e.flushLoads()

	nextCheck := cfg.Warmup + cfg.CheckEvery
	horizon := cfg.Warmup + cfg.MaxTime
	resolved := false

	for e.err == nil && e.processed < cfg.MaxEvents {
		// The next event is the earliest (time, then seq) of the flow queue's
		// winner, the pending arrival and the oldest orphan.
		src := srcFlow
		slot, ev := ar.queue.min()
		if e.arr.before(ev) {
			src, ev = srcArrival, e.arr
		}
		if ar.orphans.len() > 0 {
			if o := ar.orphans.peek(); o.before(ev) {
				src, ev = srcOrphan, o
			}
		}
		at := ev.t
		// The next thing that happens is the earlier of that event and the
		// horizon; warm-up activation and stop-rule checks that fall before
		// it are handled first.
		next := horizon
		if at < e.horizonKey {
			next = math.Float64frombits(at)
		}
		if !e.statsOn && cfg.Warmup <= next {
			e.advanceTo(cfg.Warmup)
			e.lnk.EnableStats(cfg.Warmup)
			if e.buf != nil {
				e.buf.EnableStats(cfg.Warmup)
			}
			e.statsOn = true
			e.measureStart = cfg.Warmup
			e.nextSeries = cfg.Warmup
		}
		if cfg.SeriesPeriod > 0 && e.statsOn && e.nextSeries <= next && len(e.series) < e.seriesLimit() {
			e.advanceTo(e.nextSeries)
			e.series = append(e.series, SeriesPoint{
				T:          e.clock,
				Load:       e.sumRate,
				Flows:      e.nActive,
				Admissible: e.currentAdmissible(),
			})
			e.nextSeries += cfg.SeriesPeriod
			continue
		}
		if e.statsOn && nextCheck <= next {
			e.advanceTo(nextCheck)
			if e.checkStop() {
				resolved = true
				break
			}
			nextCheck += cfg.CheckEvery
			continue
		}
		if at > e.horizonKey {
			// Nothing more happens inside the budget.
			e.advanceTo(horizon)
			break
		}
		e.processed++
		if src == srcOrphan {
			ar.orphans.pop()
			continue
		}
		e.advanceTo(math.Float64frombits(at))
		switch {
		case src == srcArrival:
			e.handleArrival()
		case ev.seq == ar.pending[slot].dep.seq:
			e.removeFlow(slot)
		default:
			e.nextSegment(slot)
		}
		// Estimator updates stay per state change (controllers read it
		// between admissions), but the link writes are deferred: every
		// change at this instant is recorded in the run buffers and flushed
		// as one batched link call below. Same-instant SetLoads are pure
		// overwrites (a zero-length interval never integrates), so the
		// collapse is bit-identical.
		e.cfg.Estimator.Update(e.sumRate, e.sumSq, e.nActive)
		e.pushLoad()
		if cfg.ArrivalRate == 0 {
			e.tryAdmissions()
		}
		e.flushLoads()
		e.maybeRenormalize()
	}
	if e.err != nil {
		e.release()
		return Result{}, e.err
	}
	if !e.statsOn {
		// Horizon shorter than the warm-up: still enable stats so the
		// report is well-defined (empty).
		e.lnk.EnableStats(e.clock)
		if e.buf != nil {
			e.buf.EnableStats(e.clock)
		}
		e.statsOn = true
	}

	rep := e.lnk.Report()
	pf, ok := rep.BestOverflowEstimate(cfg.TargetP, relCI)
	res := Result{
		Report:        rep,
		Pf:            pf,
		Resolved:      ok || resolved,
		Admitted:      e.admitted,
		Departed:      e.departed,
		Events:        e.processed,
		SimTime:       e.clock,
		Flows:         e.nActive,
		Arrivals:      e.arrivals,
		Blocked:       e.blocked,
		RenegRequests: e.renegUp,
		RenegFailures: e.renegFail,
	}
	if e.arrivals > 0 {
		res.BlockingProb = float64(e.blocked) / float64(e.arrivals)
	}
	if e.renegUp > 0 {
		res.RenegFailureProb = float64(e.renegFail) / float64(e.renegUp)
	}
	res.Series = e.series
	if e.buf != nil {
		res.Buffer = e.buf.Report()
	}
	if cfg.TrackAdmissible && e.admissible.Total() > 0 {
		res.MeanAdmissible = e.admissible.Mean()
		variance := e.admissibleSq.Mean() - res.MeanAdmissible*res.MeanAdmissible
		if variance > 0 {
			res.StdAdmissible = math.Sqrt(variance)
		}
	}
	e.release()
	return res, nil
}

// release retires the arena (and every source in it) to the pool for the
// next engine: an Engine is single-use.
func (e *Engine) release() {
	e.ar.reset()
	engineArenaPool.Put(e.ar)
	e.ar = nil
}

// seriesLimit returns the configured cap on recorded series points.
func (e *Engine) seriesLimit() int {
	if e.cfg.SeriesLimit > 0 {
		return e.cfg.SeriesLimit
	}
	return 1 << 20
}

// advanceTo moves simulation time forward, carrying the estimator and link
// along.
func (e *Engine) advanceTo(t float64) {
	if t <= e.clock {
		return
	}
	e.cfg.Estimator.Advance(t)
	e.lnk.AdvanceTo(t)
	if e.buf != nil {
		e.buf.AdvanceTo(t)
	}
	if e.cfg.TrackAdmissible && e.statsOn {
		m := e.currentAdmissible()
		dt := t - e.clock
		e.admissible.Observe(m, dt)
		e.admissibleSq.Observe(m*m, dt)
	}
	e.clock = t
}

// pushLoad records the current aggregate in the deferred-load run; the
// batched flush (flushLoads) hands the whole instant to the link at once.
func (e *Engine) pushLoad() {
	e.ar.loadRun = append(e.ar.loadRun, e.sumRate)
	e.ar.flowRun = append(e.ar.flowRun, e.nActive)
}

// flushLoads issues the one batched link update for everything that changed
// at the current instant. It must run before the clock next advances: the
// collapse of a run of same-instant SetLoads into AccumulateBatch is exact
// only while no time elapses between them.
func (e *Engine) flushLoads() {
	if len(e.ar.loadRun) == 0 {
		return
	}
	e.lnk.AccumulateBatch(e.clock, e.ar.loadRun, e.ar.flowRun)
	if e.buf != nil {
		e.buf.SetLoad(e.clock, e.sumRate)
	}
	e.ar.loadRun = e.ar.loadRun[:0]
	e.ar.flowRun = e.ar.flowRun[:0]
}

// measurement assembles the controller's view.
func (e *Engine) measurement() core.Measurement {
	mu, sigma, ok := e.cfg.Estimator.Estimate()
	return core.Measurement{
		Capacity:      e.cfg.Capacity,
		Flows:         e.nActive,
		AggregateRate: e.sumRate,
		Mu:            mu,
		Sigma:         sigma,
		OK:            ok,
	}
}

// currentAdmissible evaluates the controller at the current instant.
func (e *Engine) currentAdmissible() float64 {
	return e.cfg.Controller.Admissible(e.measurement())
}

// tryAdmissions admits waiting flows while the controller allows — the
// continuous-load model's infinite backlog. The estimator is updated after
// every admission (controllers read it between admissions), the link once
// per instant via the deferred-load run.
func (e *Engine) tryAdmissions() {
	for i := 0; i < e.maxAdmit; i++ {
		m := e.currentAdmissible()
		if float64(e.nActive)+1 > m {
			return
		}
		e.admitFlow()
		e.cfg.Estimator.Update(e.sumRate, e.sumSq, e.nActive)
		e.pushLoad()
	}
}

// admitFlow creates a flow with its own RNG substream and schedules its
// first segment end and departure. The substream is split in place into the
// slot's stream column and the slot's previous source object is recycled
// when the model supports it — no per-admission allocation in the steady
// state. (Stream-column growth may reallocate; that is safe because live
// sources keep drawing from their pointers into the old backing array.)
func (e *Engine) admitFlow() {
	e.admitted++
	ar := e.ar
	var slot int
	if k := len(ar.free); k > 0 {
		slot = ar.free[k-1]
		ar.free = ar.free[:k-1]
	} else {
		slot = ar.grow()
	}
	st := &ar.streams[slot]
	e.rng.SplitInto(uint64(e.admitted), st)
	src := traffic.NewSource(e.cfg.Model, ar.srcs[slot], st)
	seg := src.Next()

	ar.srcs[slot] = src
	ar.rates[slot] = seg.Rate

	e.nActive++
	e.sumRate += seg.Rate
	e.sumSq += seg.Rate * seg.Rate
	if e.flowAware != nil {
		e.flowAware.FlowAdmitted(slot, seg.Rate)
	}

	e.seq++
	ev := flowEvents{seg: key{e.segmentEnd(slot, seg.Duration), e.seq}, dep: key{t: noEvent}}
	var hold float64
	switch {
	case e.cfg.HoldingSampler != nil:
		hold = e.cfg.HoldingSampler(e.rng)
	case e.cfg.HoldingTime > 0:
		hold = e.rng.Exp(e.cfg.HoldingTime)
	}
	if hold > 0 {
		e.seq++
		ev.dep = key{timeKey(e.clock + hold), e.seq}
	}
	ar.pending[slot] = ev
	e.schedule(slot)
}

// segmentEnd returns the time key at which a segment of duration d starting
// now ends. A negative or NaN duration has no place in the event order (and
// no valid key): it ends the run with an error and the segment never ends.
func (e *Engine) segmentEnd(slot int, d float64) uint64 {
	if !(d >= 0) {
		if e.err == nil {
			e.err = fmt.Errorf("sim: flow %d: model returned segment duration %g, want >= 0", slot, d)
		}
		return noEvent
	}
	return timeKey(e.clock + d)
}

// schedule keys the slot's leaf by the earlier of its two pending events.
func (e *Engine) schedule(slot int) {
	ev := &e.ar.pending[slot]
	next := ev.seg
	if ev.dep.before(next) {
		next = ev.dep
	}
	e.ar.queue.set(slot, next)
}

// handleArrival processes one Poisson arrival: admit if the controller has
// room, count a block otherwise, and schedule the next arrival.
func (e *Engine) handleArrival() {
	if e.statsOn {
		e.arrivals++
	}
	if float64(e.nActive)+1 <= e.currentAdmissible() {
		e.admitFlow()
	} else if e.statsOn {
		e.blocked++
	}
	e.seq++
	e.arr = key{timeKey(e.clock + e.rng.Exp(1/e.cfg.ArrivalRate)), e.seq}
}

// nextSegment advances a flow to its next constant-rate segment, keeping
// the RCBR renegotiation-failure books: a rate increase landing when the
// link cannot fit it is a failed renegotiation.
func (e *Engine) nextSegment(slot int) {
	ar := e.ar
	old := ar.rates[slot]
	seg := ar.srcs[slot].Next()
	ar.rates[slot] = seg.Rate
	e.sumRate += seg.Rate - old
	e.sumSq += seg.Rate*seg.Rate - old*old
	if e.flowAware != nil {
		e.flowAware.FlowRateChanged(slot, seg.Rate)
	}
	if e.statsOn && seg.Rate > old {
		e.renegUp++
		if e.sumRate > e.cfg.Capacity {
			e.renegFail++
		}
	}
	e.seq++
	ar.pending[slot].seg = key{e.segmentEnd(slot, seg.Duration), e.seq}
	e.schedule(slot)
}

// removeFlow departs a flow and recycles its slot. The rate column is
// zeroed (the arena's inactive-slot invariant); the source object stays in
// its column for admitFlow to recycle. The segment end the flow leaves
// pending is orphaned: it still counts as an event if the run can reach it.
func (e *Engine) removeFlow(slot int) {
	ar := e.ar
	rate := ar.rates[slot]
	e.sumRate -= rate
	e.sumSq -= rate * rate
	if e.flowAware != nil {
		e.flowAware.FlowDeparted(slot)
	}
	ar.rates[slot] = 0
	if seg := ar.pending[slot].seg; seg.t <= e.horizonKey {
		ar.orphans.push(seg)
	}
	ar.queue.clear(slot)
	e.nActive--
	e.departed++
	ar.free = append(ar.free, slot)
}

// maybeRenormalize recomputes the aggregates from scratch periodically to
// stop floating-point drift from the incremental updates; over billions of
// events the drift in sumSq would otherwise bias the variance estimate.
// Inactive slots hold exactly 0, so the eq.-7 fold walks the whole rate
// column linearly (x + 0 == x bitwise for the non-negative rates involved)
// — same result as the historical skip-inactive loop, no branch per slot.
func (e *Engine) maybeRenormalize() {
	e.sinceRenorm++
	if e.sinceRenorm < 1<<22 {
		return
	}
	e.sinceRenorm = 0
	e.sumRate, e.sumSq = estimator.FoldRates(e.ar.rates)
}

// checkStop applies the paper's stopping rule to the current statistics.
func (e *Engine) checkStop() bool {
	rep := e.lnk.Report()
	_, ok := rep.BestOverflowEstimate(e.cfg.TargetP, relCI)
	// Require a minimum of measurement time so an early zero-overflow
	// window does not trigger the extrapolation branch prematurely.
	minTime := math.Min(e.cfg.MaxTime/4, 100*e.spacing)
	return ok && (e.clock-e.measureStart) >= minTime
}
