package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ImpulsiveConfig parameterizes the impulsive-load ensemble of Section 3:
// an infinite burst of flows demands admission at time zero, the MBAC
// estimates (mu, sigma) from the initial bandwidths of MeasureCount waiting
// flows (eq. 7), admits M0 flows by the certainty-equivalent criterion, and
// the system then evolves with no further admissions.
type ImpulsiveConfig struct {
	Capacity     float64
	Model        traffic.Model
	Controller   core.Controller
	MeasureCount int       // flows used for the initial estimate (paper: n = c/mu)
	HoldingTime  float64   // mean exponential holding time; <= 0 keeps flows forever
	Grid         []float64 // strictly increasing probe times (> 0) at which overflow is tested
	Replications int
	Seed         uint64
}

// ImpulsiveResult aggregates the ensemble.
type ImpulsiveResult struct {
	// M0 summarizes the admitted-flow counts across replications
	// (Proposition 3.1: mean ~ m*, stddev ~ (sigma/mu)·sqrt(n)).
	M0 stats.Moments
	// PfAt[i] is the Bernoulli overflow estimate at Grid[i] (eq. 21's
	// p_f(t), or the approach to Q(alpha/sqrt2) for infinite holding).
	PfAt []stats.Counter
	// Grid echoes the probe times.
	Grid []float64
}

// ensFlow is one flow inside a replication.
type ensFlow struct {
	src     traffic.Source
	rate    float64
	segEnd  float64 // absolute end time of the current segment
	departs float64 // absolute departure time (+Inf if none)
}

// impPending is a measured-but-not-yet-admitted flow.
type impPending struct {
	src traffic.Source
	seg traffic.Segment
}

// impulseScratch is one replication's reusable state. A replication
// borrows one from impScratchPool and returns it when done, so no two
// concurrent replications share one and its buffers are recycled across
// replications and whole RunImpulsive calls; after the first few
// replications the steady state allocates only the per-flow sources.
type impulseScratch struct {
	waiting []impPending
	flows   []ensFlow
	streams []rng.PCG // per-flow substream storage for SplitInto

	// Columnar-path arena: flow state as parallel columns plus the
	// departure times, recycled the same way as the slices above.
	cols    traffic.Columns
	departs []float64
}

// impScratchPool recycles scratch arenas across replications and
// RunImpulsive calls, so a caller looping over ensembles (scenario grids, benchmarks) reaches a
// steady state with zero per-replication and near-zero per-run allocation.
var impScratchPool = sync.Pool{New: func() any { return new(impulseScratch) }}

// newSource derives the next per-flow source: it splits a substream from r
// with the given tag into the scratch backing array and binds a new source
// to it. Stream-array growth may reallocate, which is safe: earlier sources
// keep drawing from their pointers into the old array.
func (sc *impulseScratch) newSource(model traffic.Model, r *rng.PCG, tag uint64) traffic.Source {
	sc.streams = append(sc.streams, rng.PCG{})
	st := &sc.streams[len(sc.streams)-1]
	r.SplitInto(tag, st)
	return model.New(st)
}

// RunImpulsive executes the ensemble and returns the aggregated overflow
// profile. Each replication draws an independent RNG substream, so results
// are reproducible for a fixed seed and invariant to the replication count
// of other experiments. An RCBR model runs on the columnar engine; every
// other model runs on per-flow sources. The two are bit-identical on RCBR.
func RunImpulsive(cfg ImpulsiveConfig) (*ImpulsiveResult, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("sim: capacity %g must be positive", cfg.Capacity)
	}
	if cfg.Model == nil || cfg.Controller == nil {
		return nil, errors.New("sim: Model and Controller are required")
	}
	if cfg.Replications <= 0 {
		return nil, fmt.Errorf("sim: replications %d must be positive", cfg.Replications)
	}
	if cfg.MeasureCount < 2 {
		return nil, fmt.Errorf("sim: MeasureCount %d must be at least 2", cfg.MeasureCount)
	}
	if len(cfg.Grid) == 0 {
		return nil, errors.New("sim: empty probe grid")
	}
	if !sort.Float64sAreSorted(cfg.Grid) || cfg.Grid[0] < 0 {
		return nil, errors.New("sim: probe grid must be sorted and non-negative")
	}

	res := &ImpulsiveResult{
		PfAt: make([]stats.Counter, len(cfg.Grid)),
		Grid: append([]float64(nil), cfg.Grid...),
	}

	// Replications run on the shared Replicated pool. Each keeps its
	// admitted count and overflow bits at its index, and the results fold
	// in replication order, so the result is bit-identical regardless of
	// GOMAXPROCS or scheduling (each replication draws from its own
	// substream of the master generator).
	pool := Replicated{
		Replications: cfg.Replications,
		Seed:         cfg.Seed,
		Tag:          0x696d_70, // stream tag "imp"
	}
	ir := impRunPool.Get().(*impRun)
	ir.begin(cfg)
	err := pool.Run(context.Background(), ir.bodyFn)
	if err == nil {
		g := len(cfg.Grid)
		for rep, m0 := range ir.m0 {
			res.M0.Add(float64(m0))
			for gi, hit := range ir.over[rep*g : (rep+1)*g] {
				res.PfAt[gi].Add(hit)
			}
		}
	}
	ir.cfg = ImpulsiveConfig{} // pooled state must not pin a dead model
	impRunPool.Put(ir)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// impRun is the reusable orchestration state of one RunImpulsive call:
// each replication's admitted count and overflow bits, and the pool body.
// The body is bound once at construction (bodyFn), so a steady-state run
// allocates nothing here — not even the closure a literal body would cost.
type impRun struct {
	cfg        ImpulsiveConfig
	rcbr       traffic.RCBR
	useColumns bool // cfg.Model is a traffic.RCBR

	m0   []int  // admitted count by replication
	over []bool // overflow at Grid[gi] of replication rep at rep·len(Grid)+gi

	bodyFn func(rep int, r *rng.PCG) error
}

// impRunPool recycles run state across RunImpulsive calls (the same
// discipline as impScratchPool, one level up).
var impRunPool = sync.Pool{New: func() any {
	ir := new(impRun)
	ir.bodyFn = ir.replicate
	return ir
}}

// begin readies the run state for a fresh ensemble: result slices sized,
// engine chosen by the model's type. Every replication overwrites its own
// entries, so the slices need no clearing.
func (ir *impRun) begin(cfg ImpulsiveConfig) {
	ir.cfg = cfg
	ir.rcbr, ir.useColumns = cfg.Model.(traffic.RCBR)
	ir.m0 = slices.Grow(ir.m0[:0], cfg.Replications)[:cfg.Replications]
	n := cfg.Replications * len(cfg.Grid)
	ir.over = slices.Grow(ir.over[:0], n)[:n]
}

// replicate is the pool body: one replication on this run's configuration.
func (ir *impRun) replicate(rep int, r *rng.PCG) error {
	sc := impScratchPool.Get().(*impulseScratch)
	g := len(ir.cfg.Grid)
	over := ir.over[rep*g : (rep+1)*g]
	if ir.useColumns {
		ir.m0[rep] = runOneImpulseColumnar(ir.cfg, ir.rcbr, r, over, sc)
	} else {
		ir.m0[rep] = runOneImpulse(ir.cfg, r, over, sc)
	}
	impScratchPool.Put(sc)
	return nil
}

// runOneImpulse performs a single replication, recording whether the
// aggregate overflows at each grid time into over, and returns the
// admitted count. sc provides reusable buffers; the caller guarantees it
// is not shared across concurrent replications.
func runOneImpulse(cfg ImpulsiveConfig, r *rng.PCG, over []bool, sc *impulseScratch) int {
	if cap(sc.streams) < cfg.MeasureCount {
		sc.streams = make([]rng.PCG, 0, cfg.MeasureCount)
	}
	sc.streams = sc.streams[:0]
	// Draw the waiting flows the MBAC measures (eq. 7): their initial
	// segments provide both the estimate and, if admitted, their traffic.
	if cap(sc.waiting) < cfg.MeasureCount {
		sc.waiting = make([]impPending, cfg.MeasureCount)
	}
	waiting := sc.waiting[:cfg.MeasureCount]
	var sumRate, sumSq float64
	for i := range waiting {
		src := sc.newSource(cfg.Model, r, uint64(i))
		seg := src.Next()
		waiting[i] = impPending{src: src, seg: seg}
		sumRate += seg.Rate
		sumSq += seg.Rate * seg.Rate
	}
	nm := float64(cfg.MeasureCount)
	mu := sumRate / nm
	variance := (sumSq - sumRate*mu) / (nm - 1)
	if variance < 0 {
		variance = 0
	}

	meas := core.Measurement{
		Capacity:      cfg.Capacity,
		Flows:         0,
		AggregateRate: sumRate,
		Mu:            mu,
		Sigma:         math.Sqrt(variance),
		OK:            true,
	}
	m0 := int(cfg.Controller.Admissible(meas))
	if m0 < 0 {
		m0 = 0
	}

	// Materialize the admitted flows: measured flows first (the paper's
	// M0 ~ n regime), extra draws if the controller admits more than were
	// measured.
	if cap(sc.flows) < m0 {
		sc.flows = make([]ensFlow, m0)
	}
	flows := sc.flows[:m0]
	for i := 0; i < m0; i++ {
		var p impPending
		if i < len(waiting) {
			p = waiting[i]
		} else {
			src := sc.newSource(cfg.Model, r, uint64(cfg.MeasureCount+i))
			p = impPending{src: src, seg: src.Next()}
		}
		departs := math.Inf(1)
		if cfg.HoldingTime > 0 {
			departs = r.Exp(cfg.HoldingTime)
		}
		flows[i] = ensFlow{src: p.src, rate: p.seg.Rate, segEnd: p.seg.Duration, departs: departs}
	}

	// Probe the aggregate at each grid time. Each flow's segment chain is
	// advanced lazily; departed flows contribute nothing and are skipped
	// permanently by swapping them to the tail.
	alive := len(flows)
	for gi, t := range cfg.Grid {
		var agg float64
		for i := 0; i < alive; {
			f := &flows[i]
			if f.departs <= t {
				flows[i], flows[alive-1] = flows[alive-1], flows[i]
				alive--
				continue
			}
			for f.segEnd <= t {
				seg := f.src.Next()
				f.rate = seg.Rate
				f.segEnd += seg.Duration
			}
			agg += f.rate
			i++
		}
		over[gi] = agg > cfg.Capacity
	}
	return m0
}

// runOneImpulseColumnar is runOneImpulse for an RCBR model on the columnar
// engine: flow state lives in parallel columns (traffic.Columns) instead of
// per-flow Source objects, segment redraws land straight into the columns
// through RCBR's lane-interleaved AdvanceColumn, and the eq.-7 estimate
// folds the rate column in one batched call. Bit-identity with the scalar
// path holds step by step:
//
//   - the per-flow substreams carry the same tags, and splitting them all
//     before the first-segment draws reorders only draws on *different*
//     streams (scalar interleaves split_i with flow i's draws);
//   - the master-stream draw order is preserved exactly — for extra flows
//     beyond MeasureCount, split_i and departs_i stay interleaved per flow;
//   - per probe time, compacting departed flows first reproduces the scalar
//     loop's swap-to-tail sequence (which depends only on departure times),
//     and the surviving flows' advances commute because each flow draws
//     from its own substream; the aggregate then folds in index order over
//     exactly the arrangement the scalar loop summed.
//
// TestImpulsiveColumnarMatchesScalar pins the equivalence end to end.
func runOneImpulseColumnar(cfg ImpulsiveConfig, m traffic.RCBR, r *rng.PCG, over []bool, sc *impulseScratch) int {
	c := &sc.cols
	n := cfg.MeasureCount
	c.Grow(n)
	for i := 0; i < n; i++ {
		r.SplitInto(uint64(i), &c.Str[i])
	}
	m.InitColumn(c, 0, n)
	sumRate, sumSq := estimator.FoldRates(c.Rate[:n])
	nm := float64(n)
	mu := sumRate / nm
	variance := (sumSq - sumRate*mu) / (nm - 1)
	if variance < 0 {
		variance = 0
	}

	meas := core.Measurement{
		Capacity:      cfg.Capacity,
		Flows:         0,
		AggregateRate: sumRate,
		Mu:            mu,
		Sigma:         math.Sqrt(variance),
		OK:            true,
	}
	m0 := int(cfg.Controller.Admissible(meas))
	if m0 < 0 {
		m0 = 0
	}

	// Departure times for the admitted flows, in the scalar path's exact
	// master-stream order: measured flows draw only departs; extras draw
	// split-then-departs per flow. The extras' first segments (their own
	// substreams) batch afterwards.
	if m0 > n {
		c.Grow(m0)
	}
	if cap(sc.departs) < m0 {
		sc.departs = make([]float64, m0)
	}
	departs := sc.departs[:m0]
	for i := 0; i < m0; i++ {
		if i >= n {
			r.SplitInto(uint64(cfg.MeasureCount+i), &c.Str[i])
		}
		if cfg.HoldingTime > 0 {
			departs[i] = r.Exp(cfg.HoldingTime)
		} else {
			departs[i] = math.Inf(1)
		}
	}
	if m0 > n {
		m.InitColumn(c, n, m0)
	}

	// Probe the aggregate at each grid time: compact departures to the
	// tail, advance the survivors in lanes, fold the rate column.
	alive := m0
	for gi, t := range cfg.Grid {
		for i := 0; i < alive; {
			if departs[i] <= t {
				last := alive - 1
				departs[i], departs[last] = departs[last], departs[i]
				c.Swap(i, last)
				alive--
				continue
			}
			i++
		}
		m.AdvanceColumn(c, alive, t)
		agg, _ := estimator.FoldRates(c.Rate[:alive])
		over[gi] = agg > cfg.Capacity
	}
	return m0
}
