package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// impulseScratch is one stripe's reusable replication state. A stripe runs
// sequentially on a single worker by the pool's construction, so its
// buffers can be recycled across that stripe's replications without
// synchronization; after the first few replications the steady state
// allocates only the per-flow sources.
type impulseScratch struct {
	waiting []impPending
	flows   []ensFlow
	streams []rng.PCG // per-flow substream storage for SplitInto

	// Columnar-path arena: flow state as parallel columns plus the
	// departure times. Owned by one worker at a time (same discipline as
	// the slices above), recycled across replications, stripes, and — via
	// impScratchPool — whole RunImpulsive calls.
	cols    traffic.Columns
	departs []float64
}

// impScratchPool recycles scratch arenas across RunImpulsive calls, so a
// caller looping over ensembles (scenario grids, benchmarks) reaches a
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

	// Replications run on the shared Replicated pool: one accumulator per
	// stripe, merged in stripe order, so the result is bit-identical
	// regardless of GOMAXPROCS or scheduling (floating-point summation
	// order is pinned by the striping, and each replication draws from its
	// own substream of the master generator).
	pool := Replicated{
		Replications: cfg.Replications,
		Seed:         cfg.Seed,
		Tag:          0x696d_70, // stream tag "imp"
	}
	ir := impRunPool.Get().(*impRun)
	ir.begin(cfg, pool.NumStripes())
	err := pool.Run(context.Background(), ir.bodyFn)
	if err == nil {
		for s := range ir.accs {
			res.M0.Merge(&ir.accs[s].m0)
			for gi := range res.PfAt {
				res.PfAt[gi].Merge(&ir.accs[s].pfAt[gi])
			}
		}
	}
	ir.end()
	impRunPool.Put(ir)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// stripeAcc is one stripe's accumulator: owned exclusively by the stripe's
// worker during a run, merged in stripe order afterwards.
type stripeAcc struct {
	m0   stats.Moments
	pfAt []stats.Counter
}

// impRun is the reusable orchestration state of one RunImpulsive call:
// per-stripe accumulators, the scratch-arena hand-off, and the pool body.
// The body is bound once at construction (bodyFn), so a steady-state run
// allocates nothing here — not even the closure a literal body would cost.
type impRun struct {
	cfg        ImpulsiveConfig
	rcbr       traffic.RCBR
	useColumns bool // cfg.Model is a traffic.RCBR
	stripes    int

	accs      []stripeAcc
	pfBacking []stats.Counter

	// Scratch buffers are handed off between stripes through a free list
	// rather than pinned one per stripe: a worker acquires a scratch at a
	// stripe's first replication and releases it after the last, so at most
	// numWorkers scratches ever exist and their buffers amortize across
	// the whole run even when stripes outnumber replications per stripe.
	// Scratch identity cannot affect results: every buffer is fully
	// overwritten per replication.
	scMu   sync.Mutex
	scFree []*impulseScratch
	held   []*impulseScratch

	bodyFn func(stripe, rep int, r *rng.PCG) error
}

// impRunPool recycles run state across RunImpulsive calls (the same
// discipline as impScratchPool, one level up).
var impRunPool = sync.Pool{New: func() any {
	ir := new(impRun)
	ir.bodyFn = ir.replicate
	return ir
}}

// begin readies the run state for a fresh ensemble: accumulators sized and
// zeroed, engine chosen by the model's type, no scratches held.
func (ir *impRun) begin(cfg ImpulsiveConfig, stripes int) {
	ir.cfg = cfg
	ir.rcbr, ir.useColumns = cfg.Model.(traffic.RCBR)
	ir.stripes = stripes

	g := len(cfg.Grid)
	if cap(ir.accs) < stripes {
		ir.accs = make([]stripeAcc, stripes)
	}
	ir.accs = ir.accs[:stripes]
	if cap(ir.pfBacking) < stripes*g {
		ir.pfBacking = make([]stats.Counter, stripes*g)
	}
	ir.pfBacking = ir.pfBacking[:stripes*g]
	clear(ir.pfBacking)
	// One backing array for every stripe's counters: the slices are disjoint
	// (full-slice expressions), so stripes still own their rows exclusively.
	for i := range ir.accs {
		lo, hi := i*g, (i+1)*g
		ir.accs[i] = stripeAcc{pfAt: ir.pfBacking[lo:hi:hi]}
	}
	if cap(ir.held) < stripes {
		ir.held = make([]*impulseScratch, stripes)
	}
	ir.held = ir.held[:stripes]
	clear(ir.held)
	ir.scFree = ir.scFree[:0]
}

// replicate is the pool body: one replication on this run's configuration.
func (ir *impRun) replicate(stripe, rep int, r *rng.PCG) error {
	sc := ir.held[stripe]
	if sc == nil {
		ir.scMu.Lock()
		if n := len(ir.scFree); n > 0 {
			sc, ir.scFree = ir.scFree[n-1], ir.scFree[:n-1]
		}
		ir.scMu.Unlock()
		if sc == nil {
			sc = impScratchPool.Get().(*impulseScratch)
		}
		ir.held[stripe] = sc
	}
	acc := &ir.accs[stripe]
	var m0 int
	if ir.useColumns {
		m0 = runOneImpulseColumnar(ir.cfg, ir.rcbr, r, acc.pfAt, sc)
	} else {
		m0 = runOneImpulse(ir.cfg, r, acc.pfAt, sc)
	}
	acc.m0.Add(float64(m0))
	if rep+ir.stripes >= ir.cfg.Replications { // stripe's last replication
		ir.held[stripe] = nil
		ir.scMu.Lock()
		ir.scFree = append(ir.scFree, sc)
		ir.scMu.Unlock()
	}
	return nil
}

// end retires the run's scratch arenas to the process-wide pool and drops
// every model reference so pooled state never pins a dead model. Scratches
// still held (a run stopped by an error) retire too.
func (ir *impRun) end() {
	for i, sc := range ir.held {
		if sc != nil {
			ir.scFree = append(ir.scFree, sc)
			ir.held[i] = nil
		}
	}
	for _, sc := range ir.scFree {
		impScratchPool.Put(sc)
	}
	ir.scFree = ir.scFree[:0]
	ir.cfg = ImpulsiveConfig{}
}

// runOneImpulse performs a single replication, recording overflow
// indicators into pfAt (one counter per grid time), and returns the
// admitted count. sc provides reusable buffers; the caller guarantees it
// is not shared across concurrent replications.
func runOneImpulse(cfg ImpulsiveConfig, r *rng.PCG, pfAt []stats.Counter, sc *impulseScratch) int {
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
		pfAt[gi].Add(agg > cfg.Capacity)
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
func runOneImpulseColumnar(cfg ImpulsiveConfig, m traffic.RCBR, r *rng.PCG, pfAt []stats.Counter, sc *impulseScratch) int {
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
		pfAt[gi].Add(agg > cfg.Capacity)
	}
	return m0
}
