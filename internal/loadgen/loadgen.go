// Package loadgen generates and replays open-loop admission workloads:
// Poisson flow arrivals at a configurable offered load, exponential
// holding times, RCBR-marginal flow rates. The same seeded schedule can
// be replayed against an in-process gateway or through the network
// client — the deterministic single-worker replay produces identical
// decision counts on both substrates, which is the end-to-end
// correctness check for the serving layer (the wire, the server's
// micro-batching and the client's correlation must all be transparent
// to the admission outcome).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/fault"
	"repro/internal/flowtab"
	"repro/internal/gateway"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Kind is an event type in the generated workload.
type Kind uint8

const (
	KindAdmit Kind = iota
	KindDepart
	// KindUpdate renegotiates a flow's rate mid-life — the path through
	// which a lying client's *measured* rate reaches the gateway after its
	// understated declaration was admitted.
	KindUpdate
)

// Event is one scheduled admission action at virtual time T.
type Event struct {
	T    float64
	Kind Kind
	Flow uint64
	Rate float64
}

// Crowd is a flash-crowd window: while virtual time is in [From, To) the
// arrival intensity is multiplied by Factor. The zero value disables it.
type Crowd struct {
	Factor float64
	From   float64
	To     float64
}

// Config parameterizes a workload.
type Config struct {
	Seed     uint64  // schedule RNG seed
	Lambda   float64 // flow arrival rate (flows per virtual time unit)
	Hold     float64 // mean exponential holding time
	SVR      float64 // sigma/mu of the flow-rate distribution (RCBR default model)
	TC       float64 // RCBR correlation time of the rate model
	Duration float64 // virtual schedule length

	// ArrivalCV selects the interarrival law: 0 (or 1) keeps the paper's
	// Poisson arrivals; any other positive value draws Gamma interarrival
	// times with that coefficient of variation at the same mean — the
	// Gamma-burst arrivals of the scenario tier (CV > 1 clusters arrivals
	// into bursts a Poisson process never produces).
	ArrivalCV float64

	// Model overrides the flow-rate model. nil keeps the default
	// RCBR(1, SVR, TC); with a Model set, SVR and TC are not required.
	Model traffic.Model

	// Plan is the client-misbehavior population (fault.ClientPlan): flows
	// declare Plan.Declared(rate) at admission (a lying client's actual
	// rate still follows as a KindUpdate event), and a departing flow
	// silently leaks its slot with probability LeakP — no depart event is
	// scheduled, leaving reclamation to the gateway's lease sweep. The
	// zero value is an honest population.
	Plan fault.ClientPlan

	// Crowd, when Factor > 1, is the flash-crowd window.
	Crowd Crowd

	// ShiftModel, when non-nil, replaces the rate model for flows arriving
	// at or after ShiftAt: a mid-run change in the traffic's correlation
	// structure (e.g. the RCBR correlation time T_c jumping) that the
	// adaptive measurement tier must detect and retune for. Flows arriving
	// before ShiftAt draw from the base model with exactly the historical
	// RNG stream, so a schedule with a shift is bit-identical to the
	// unshifted one up to the shift point.
	ShiftAt    float64
	ShiftModel traffic.Model

	// Renegotiate, when true, walks each flow's segment process across its
	// holding time and emits a KindUpdate event at every segment boundary —
	// the paper's renegotiated-CBR dynamics, where an admitted flow's rate
	// keeps fluctuating at the model's correlation time-scale instead of
	// freezing at its admission draw. Off, schedules are bit-identical to
	// the historical single-draw form.
	Renegotiate bool
}

func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"lambda", c.Lambda}, {"hold", c.Hold}, {"duration", c.Duration}, {"svr", c.SVR}, {"tc", c.TC}} {
		// NaN and the infinities would hang the arrival walk (every
		// interarrival 0) or put NaN into the schedule's times and rates.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("loadgen: %s %g must be finite", f.name, f.v)
		}
	}
	if c.Lambda <= 0 || c.Hold <= 0 || c.Duration <= 0 {
		return fmt.Errorf("loadgen: lambda, hold and duration must be positive")
	}
	if c.Model == nil && (c.SVR <= 0 || c.TC <= 0) {
		return fmt.Errorf("loadgen: svr and tc must be positive without an explicit model")
	}
	if math.IsNaN(c.ArrivalCV) || math.IsInf(c.ArrivalCV, 0) || c.ArrivalCV < 0 {
		return fmt.Errorf("loadgen: arrival CV %g must be a non-negative finite value", c.ArrivalCV)
	}
	if c.Plan.Lie != 0 || c.Plan.LeakP != 0 {
		if err := c.Plan.Validate(); err != nil {
			return err
		}
	}
	if c.Crowd.Factor != 0 {
		if math.IsNaN(c.Crowd.Factor) || math.IsInf(c.Crowd.Factor, 0) || c.Crowd.Factor < 1 {
			return fmt.Errorf("loadgen: crowd factor %g must be >= 1 and finite", c.Crowd.Factor)
		}
		if math.IsNaN(c.Crowd.From) || math.IsNaN(c.Crowd.To) || !(c.Crowd.To > c.Crowd.From) {
			return fmt.Errorf("loadgen: crowd window [%g, %g) is empty", c.Crowd.From, c.Crowd.To)
		}
	}
	if c.ShiftModel != nil &&
		(math.IsNaN(c.ShiftAt) || math.IsInf(c.ShiftAt, 0) || c.ShiftAt < 0) {
		return fmt.Errorf("loadgen: shift time %g must be a non-negative finite value", c.ShiftAt)
	}
	return nil
}

// Schedule pregenerates the deterministic event list for cfg: one admit
// per arriving flow (rate drawn from the RCBR marginal), one depart at the
// end of its holding time, and the updates its plan and renegotiation add,
// ordered by (T, Flow, Kind).
//
// It makes three passes over chunks of chunkFlows consecutive flows. The
// arrival walk draws the arrival process serially and checkpoints the
// master stream at each chunk's first flow. The count pass regenerates
// every chunk from its checkpoint, draw for draw, and counts its events
// into time buckets, fanOut(2·flows) over [0, Duration) and one at
// Duration, where every flow the schedule cuts off departs; prefix sums in
// (bucket, chunk) order give each chunk a cursor in each bucket and the
// list its exact length. The place pass allocates the list once, at that
// length, and writes every event of every chunk at its cursor: from the
// worker's buffer if the chunk is the one it counted last, regenerated
// otherwise. Each bucket, a run that fits in cache, is then ordered by
// sortByTime. GOMAXPROCS workers claim the chunks and the buckets; a
// one-chunk schedule runs every pass inline and generates its flows once.
//
// Buckets are monotone in T and (T, Flow, Kind) is a strict total order
// on a schedule, so the list is the only one any correct sort of these
// events can produce: a given seed yields the same list for any worker
// count.
func Schedule(cfg Config) ([]Event, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := generator{cfg: &cfg, model: cfg.Model}
	if g.model == nil {
		g.model = traffic.NewRCBR(1, cfg.SVR, cfg.TC)
	}
	g.walkArrivals()
	chunks := len(g.cps)
	if chunks == 0 {
		return []Event{}, nil
	}
	// fanOut(2·flows) buckets split [0, Duration); one more holds the
	// departs at Duration of every flow the schedule cuts off.
	f := fanOut(2*int(g.flows)) + 1
	g.last, g.scale = f-1, float64(f-1)/cfg.Duration
	if !(g.scale < math.Inf(1)) { // a subnormal Duration: one bucket below it
		g.scale = 0
	}
	walkers := make([]walker, min(runtime.GOMAXPROCS(0), chunks))
	for w := range walkers {
		walkers[w].held = -1
	}

	// cursor's row c is chunk c's event count per bucket, then its cursor.
	// The count pass claims chunks from the last, so the chunks the workers
	// still hold when it ends are the first the place pass claims.
	cursor := make([]int, chunks*f)
	parallel(len(walkers), chunks, func(w, i int) {
		c := chunks - 1 - i
		row := cursor[c*f : (c+1)*f]
		for _, e := range g.chunk(&walkers[w], c) {
			row[g.bucket(e.T)]++
		}
	})
	end := make([]int, f) // bucket b is events[end[b-1]:end[b]]
	n := 0
	for b := range f {
		for i := b; i < len(cursor); i += f {
			n, cursor[i] = n+cursor[i], n
		}
		end[b] = n
	}

	events := make([]Event, n)
	parallel(len(walkers), chunks, func(w, c int) {
		row := cursor[c*f : (c+1)*f]
		for _, e := range g.chunk(&walkers[w], c) {
			b := g.bucket(e.T)
			events[row[b]] = e
			row[b]++
		}
	})
	// The last bucket is the largest (~6 % of cluster-churn's events), but
	// its times are all equal and the place pass left it in flow order,
	// the order it sorts to; claiming from it still starts it first.
	parallel(len(walkers), f, func(_, i int) {
		b := f - 1 - i
		start := 0
		if b > 0 {
			start = end[b-1]
		}
		sortByTime(events[start:end[b]], sortDepth)
	})
	return events, nil
}

// chunkFlows is the flows in one chunk: the unit a worker regenerates from
// a checkpoint and claims in the count and place passes. At the churn
// shape a chunk is ~36 k events.
const chunkFlows = 8192

// checkpoint is where a chunk's regeneration starts: the master stream's
// state before its first flow's split, and that flow's arrival time.
type checkpoint struct {
	r rng.PCG
	t float64
}

// generator is one schedule's draws: the arrival process on the master
// stream, and each flow's rate, holding time and segments on the stream
// split from it for that flow.
type generator struct {
	cfg   *Config
	model traffic.Model
	cps   []checkpoint // one a chunk
	flows uint64
	// bucket(T) is last from Duration on and min(⌊T·scale⌋, last−1)
	// below it: monotone in T.
	scale float64
	last  int
}

// walker is one worker's regeneration state. A flow's draws are finished
// before the next flow's begin, so one split stream and one source per
// model, recycled where the model is a traffic.RCBR, serve every flow.
type walker struct {
	r, fr rng.PCG
	srcs  [2]traffic.Source // the base model's last source, the shifted model's
	ev    []Event           // chunk held's events, in flow order
	held  int               // -1 before the first chunk
	// Every draw writes r or fr: the pad keeps the next worker's
	// streams off this one's cache lines.
	_ [64]byte
}

func (g *generator) bucket(t float64) int {
	if t >= g.cfg.Duration {
		return g.last
	}
	return min(int(t*g.scale), g.last-1)
}

// next draws one interarrival time starting at virtual time now. With the
// crowd and arrival-CV knobs at their zero values this is exactly the
// historical r.Exp(1/λ) draw, so old seeds keep their old schedules bit
// for bit.
func (g *generator) next(r *rng.PCG, now float64) float64 {
	cfg := g.cfg
	mean := 1 / cfg.Lambda
	if cfg.Crowd.Factor > 1 && now >= cfg.Crowd.From && now < cfg.Crowd.To {
		mean /= cfg.Crowd.Factor
	}
	if cfg.ArrivalCV == 0 || cfg.ArrivalCV == 1 {
		return r.Exp(mean)
	}
	shape := 1 / (cfg.ArrivalCV * cfg.ArrivalCV)
	return r.Gamma(shape, mean/shape)
}

// walkArrivals draws every arrival time from the master stream and
// checkpoints the stream at every chunkFlows-th flow. After each arrival
// it skips the two draws that seed the flow's own stream (SplitInto's),
// which only chunk needs.
func (g *generator) walkArrivals() {
	r := rng.New(g.cfg.Seed, 0x6c6f6164) // "load"
	for t, id := g.next(r, 0), uint64(0); t < g.cfg.Duration; t, id = t+g.next(r, t), id+1 {
		if id%chunkFlows == 0 {
			g.cps = append(g.cps, checkpoint{r: *r, t: t})
		}
		r.Uint64()
		r.Uint64()
		g.flows = id + 1
	}
}

// chunk returns chunk c's events in flow order: w's buffer when it still
// holds them, or else regenerated there from the chunk's checkpoint.
func (g *generator) chunk(w *walker, c int) []Event {
	if w.held == c {
		return w.ev
	}
	cp := &g.cps[c]
	id := uint64(c) * chunkFlows
	end := min(id+chunkFlows, g.flows)
	if w.ev == nil {
		// A flow has an admit and, unless it leaks, a depart.
		w.ev = make([]Event, 0, 2*(end-id))
	}
	w.r, w.ev, w.held = cp.r, w.ev[:0], c
	t := cp.t
	for ; id < end; id++ {
		w.r.SplitInto(id, &w.fr)
		g.flow(w, id, t)
		t += g.next(&w.r, t)
	}
	return w.ev
}

// flow appends the events of flow id, arriving at t, to w's buffer,
// drawing from w.fr.
func (g *generator) flow(w *walker, id uint64, t float64) {
	cfg := g.cfg
	m, k := g.model, 0
	if cfg.ShiftModel != nil && t >= cfg.ShiftAt {
		// The shifted model draws from the same split per-flow stream,
		// so the arrival process (driven by r) is untouched and the
		// pre-shift prefix of the schedule is bit-identical.
		m, k = cfg.ShiftModel, 1
	}
	src := traffic.NewSource(m, w.srcs[k], &w.fr)
	w.srcs[k] = src
	seg := src.Next() // same two draws (rate, duration) as the historical single-draw form
	rate := seg.Rate
	hold := w.fr.Exp(cfg.Hold)
	leak := false
	if cfg.Plan.LeakP > 0 { // draw only when leaking is on: keeps old streams intact
		leak = cfg.Plan.Leaks(w.fr.Float64())
	}
	if t+hold > cfg.Duration {
		hold = cfg.Duration - t
	}
	declared := cfg.Plan.Declared(rate)
	ev := append(w.ev, Event{T: t, Kind: KindAdmit, Flow: id, Rate: declared})
	if declared != rate {
		// The measured rate follows the lying declaration immediately;
		// the kind tie-break keeps it after the admit.
		ev = append(ev, Event{T: t, Kind: KindUpdate, Flow: id, Rate: rate})
	}
	if cfg.Renegotiate {
		// Renegotiated-CBR dynamics: the flow redraws its rate at every
		// segment boundary until it departs. Updates carry the true rate
		// — renegotiation models the measured path, not the declaration.
		for ts := t + seg.Duration; ts < t+hold; {
			seg = src.Next()
			ev = append(ev, Event{T: ts, Kind: KindUpdate, Flow: id, Rate: seg.Rate})
			if !(seg.Duration > 0) {
				break // a non-advancing source cannot renegotiate further
			}
			ts += seg.Duration
		}
	}
	if !leak {
		ev = append(ev, Event{T: t + hold, Kind: KindDepart, Flow: id})
	}
	w.ev = ev
}

// parallel calls fn(w, i) for every i in [0, n) on workers goroutines,
// which claim indices in turn; w is the calling worker's index. One worker
// runs inline.
func parallel(workers, n int, fn func(w, i int)) {
	if workers <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// Stats counts replay outcomes. NotActive counts departs that raced a
// rejected (or never-admitted) flow — the schedule departs every flow,
// admitted or not.
type Stats struct {
	Admitted  int64
	Rejected  int64
	Departed  int64
	NotActive int64
	// Updated counts rate renegotiations that landed on an active flow;
	// UpdateMissed counts those whose flow was rejected or already gone.
	Updated      int64
	UpdateMissed int64
}

// Target is an admission substrate a schedule can replay against: the
// in-process gateway or the network client, interchangeably.
type Target interface {
	// AdmitBatch decides the batch in order; decisions index-align with
	// the flows.
	AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error)
	// Depart releases one flow; active reports whether the flow was
	// actually active (false for the gateway's not-active outcome).
	Depart(ctx context.Context, flow uint64) (active bool, err error)
	// UpdateRate renegotiates an active flow's rate; active reports
	// whether the flow was active (false when it was rejected or gone).
	UpdateRate(ctx context.Context, flow uint64, rate float64) (active bool, err error)
}

// GatewayTarget replays against an in-process gateway.
type GatewayTarget struct {
	G   *gateway.Gateway
	dst []gateway.Decision
}

// AdmitBatch implements Target.
func (t *GatewayTarget) AdmitBatch(_ context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	var err error
	t.dst, err = t.G.AdmitBatch(flows, rates, t.dst[:0])
	return t.dst, err
}

// Depart implements Target.
func (t *GatewayTarget) Depart(_ context.Context, flow uint64) (bool, error) {
	if err := t.G.Depart(flow); err != nil {
		return false, nil // the gateway's only Depart error is not-active
	}
	return true, nil
}

// UpdateRate implements Target. Schedules never carry invalid rates, so
// any gateway error here is the not-active outcome.
func (t *GatewayTarget) UpdateRate(_ context.Context, flow uint64, rate float64) (bool, error) {
	if err := t.G.UpdateRate(flow, rate); err != nil {
		return false, nil
	}
	return true, nil
}

// ClientTarget replays through the network client.
type ClientTarget struct{ C *client.Client }

// AdmitBatch implements Target.
func (t ClientTarget) AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	return t.C.AdmitBatch(ctx, flows, rates)
}

// Depart implements Target.
func (t ClientTarget) Depart(ctx context.Context, flow uint64) (bool, error) {
	return landed(t.C.Depart(ctx, flow))
}

// UpdateRate implements Target.
func (t ClientTarget) UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error) {
	return landed(t.C.UpdateRate(ctx, flow, rate))
}

// landed maps a client lifecycle call's error to Target's (active, err)
// shape: the server's not-active and invalid-rate answers are outcomes of
// the replay, anything else is a failure of it.
func landed(err error) (bool, error) {
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, client.ErrNotActive), errors.Is(err, client.ErrInvalidRate):
		return false, nil
	}
	return false, err
}

// laneOf returns the worker, of workers, that replays flow's events: the
// shard hash of the gateway's flow table (flowtab.Mix), which a cluster's
// instances share, modulo the worker count. When workers is a power of
// two no larger than a gateway's shard count, worker w alone touches the
// row shards k ≡ w (mod workers): their locks, rows and every instance's
// sums for them stay in one core's cache.
func laneOf(flow, workers uint64) uint64 { return flowtab.Mix(flow) % workers }

// lane is one worker's share of a replay: which of the schedule's events
// are its own, how far through them it has got, the admits it is
// coalescing and the outcomes it has counted. Every replay — Replay's
// single deterministic lane, Run's concurrent lanes — is lanes calling
// run.
type lane struct {
	tgt    Target
	events []Event // the whole schedule, shared between lanes
	// The lane owns the flows with laneOf(flow, lanes) == index; a single
	// lane owns them all.
	index, lanes uint64
	next         int       // events before next are dispatched or not the lane's
	batch        int       // admits coalesced per AdmitBatch call; below 1 means 1
	ids          []uint64  // the admits being coalesced
	rates        []float64 // index-aligned with ids
	st           Stats
	err          error // run's result, read by Run after the lanes join

	// Pacing: under a positive timescale the lane sleeps toward each
	// event's wall time, start + T·timescale, before dispatching it.
	start     time.Time
	timescale time.Duration
}

// pending returns the lane's next undispatched event, or nil at the end,
// moving the cursor past the events of other lanes' flows.
func (l *lane) pending() *Event {
	for ; l.next < len(l.events); l.next++ {
		if ev := &l.events[l.next]; l.lanes <= 1 || laneOf(ev.Flow, l.lanes) == l.index {
			return ev
		}
	}
	return nil
}

// flush submits the coalesced admits, if any, as one AdmitBatch call.
func (l *lane) flush(ctx context.Context) error {
	if len(l.ids) == 0 {
		return nil
	}
	ds, err := l.tgt.AdmitBatch(ctx, l.ids, l.rates)
	if err != nil {
		return err
	}
	for _, d := range ds {
		if d.Admitted {
			l.st.Admitted++
		} else {
			l.st.Rejected++
		}
	}
	l.ids = l.ids[:0]
	l.rates = l.rates[:0]
	return nil
}

// run dispatches the lane's events not later than until, in order, and
// flushes: the one place a schedule turns into Target calls. Consecutive
// admits coalesce into AdmitBatch calls of up to batch, flushed before any
// depart or update so per-flow order holds.
func (l *lane) run(ctx context.Context, until float64) error {
	for ev := l.pending(); ev != nil && !(ev.T > until); ev = l.pending() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if l.timescale > 0 {
			due := l.start.Add(time.Duration(ev.T * float64(l.timescale)))
			if d := time.Until(due); d > 0 {
				// Pace the open loop: flush what we have, then wait.
				if err := l.flush(ctx); err != nil {
					return err
				}
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		switch ev.Kind {
		case KindAdmit:
			l.ids = append(l.ids, ev.Flow)
			l.rates = append(l.rates, ev.Rate)
			if len(l.ids) >= l.batch { // also true of any batch below 1
				if err := l.flush(ctx); err != nil {
					return err
				}
			}
		case KindDepart:
			if err := l.flush(ctx); err != nil {
				return err
			}
			active, err := l.tgt.Depart(ctx, ev.Flow)
			if err != nil {
				return err
			}
			if active {
				l.st.Departed++
			} else {
				l.st.NotActive++
			}
		case KindUpdate:
			if err := l.flush(ctx); err != nil {
				return err
			}
			active, err := l.tgt.UpdateRate(ctx, ev.Flow, ev.Rate)
			if err != nil {
				return err
			}
			if active {
				l.st.Updated++
			} else {
				l.st.UpdateMissed++
			}
		}
		l.next++
	}
	return l.flush(ctx)
}

// Replay runs the schedule against tgt deterministically: one lane, strict
// event order. tick, when non-nil, is called at each multiple of window
// virtual time, after the events before it have been decided — the hook
// through which a test drives measurement ticks identically on two
// substrates.
func Replay(ctx context.Context, tgt Target, events []Event, batch int, window float64, tick func(now float64)) (Stats, error) {
	l := lane{tgt: tgt, events: events, batch: batch}
	if tick == nil || !(window > 0) {
		err := l.run(ctx, math.Inf(1))
		return l.st, err
	}
	for now := 0.0; l.next < len(events); {
		if events[l.next].T > now {
			now += window
			tick(now)
			continue
		}
		if err := l.run(ctx, now); err != nil {
			return l.st, err
		}
	}
	return l.st, nil
}

// RunConfig parameterizes a concurrent open-loop run (the cmd/loadgen
// tool and the soak test).
type RunConfig struct {
	Workers int // concurrent replay goroutines (flows shard by the gateway's shard hash)
	Batch   int // admits coalesced per AdmitBatch call within a worker
	// Timescale maps one virtual time unit to a wall duration, pacing the
	// open-loop arrivals (departures follow the schedule's holding
	// times). 0 replays as fast as the substrate allows.
	Timescale time.Duration
}

// Run replays the whole schedule concurrently and open-loop, the load
// tool rather than the determinism check: worker w owns the flows with
// laneOf(id, Workers) == w and walks their events in time order, skipping
// the rest, so per-flow event order is exact while cross-flow
// interleaving is whatever the race produces. tgt supplies each worker's
// Target (targets with per-call scratch must not be shared). Under
// Timescale the workers pace toward wall time measured from the call. It
// returns once every worker has flushed, with the first worker error, if
// any.
func Run(ctx context.Context, tgt func(worker int) Target, events []Event, cfg RunConfig) (Stats, error) {
	lanes := newLanes(tgt, events, cfg)
	var wg sync.WaitGroup
	for w := range lanes {
		l := &lanes[w]
		if l.pending() == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.err = l.run(ctx, math.Inf(1))
		}()
	}
	wg.Wait()
	var st Stats
	var err error
	for w := range lanes {
		l := &lanes[w]
		st.Admitted += l.st.Admitted
		st.Rejected += l.st.Rejected
		st.Departed += l.st.Departed
		st.NotActive += l.st.NotActive
		st.Updated += l.st.Updated
		st.UpdateMissed += l.st.UpdateMissed
		if err == nil {
			err = l.err
		}
	}
	return st, err
}

// newLanes shards events across cfg.Workers lanes. The lanes keep a
// cursor into the shared events, so building them costs nothing per
// event.
func newLanes(tgt func(worker int) Target, events []Event, cfg RunConfig) []lane {
	lanes := make([]lane, max(cfg.Workers, 1))
	start := time.Now()
	for w := range lanes {
		lanes[w] = lane{tgt: tgt(w), events: events, index: uint64(w), lanes: uint64(len(lanes)),
			batch: cfg.Batch, start: start, timescale: cfg.Timescale}
	}
	return lanes
}
