// Package gateway turns the paper's batch-simulated admission controller
// into a serving-shaped subsystem: a sharded, goroutine-safe online gateway
// that answers Admit/Depart requests concurrently while a periodic
// measurement tick drives the estimator and republishes the
// certainty-equivalent bound.
//
// # Mapping to the paper
//
// The gateway maintains exactly the state of the paper's controller loop
// (eqs. 6/22), split for concurrency:
//
//   - a sharded flow table holds each active flow's current rate, as a
//     fixed-point integer; the exact per-shard sums ΣX_i and ΣX_i² are the
//     cross-sectional aggregates of eq. 7 (see MaxRate);
//   - the measurement tick feeds those aggregates to an
//     estimator.Estimator, producing (μ̂, σ̂) — the paper's estimated
//     per-flow mean and standard deviation;
//   - the controller maps (μ̂, σ̂) to the admissible flow count M (eq. 42),
//     which is published atomically; Admit admits while the active count
//     stays below M.
//
// # Concurrency design
//
// Flow state is sharded by a mixed hash of the flow ID; each shard is
// protected by its own mutex, and all hot-path instrumentation (admission
// counters, the latency histogram) is striped per shard inside that same
// critical section (a cluster's gateways share one flow table, a Fleet,
// and each keeps its own stripes), so Admit/Depart/UpdateRate on different
// flows contend only on one shared atomic: the active-flow count. The
// admission check itself is lock-free: a compare-and-swap loop on that
// counter against the last published bound, which guarantees the active
// count never exceeds ⌊M⌋ no matter how many goroutines race.
//
// Measurement is decoupled from admission, as in any real MBAC: between
// ticks the bound is (deliberately) stale. Tests and the simulator call
// Tick with a virtual clock for deterministic replay; production callers
// use Run, which ticks on a wall-clock interval until the context ends.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/estimator"
	"repro/internal/flowtab"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Reason classifies the outcome of an Admit call.
type Reason int

// Admission outcomes.
const (
	// ReasonAdmitted: the flow was admitted.
	ReasonAdmitted Reason = iota
	// ReasonCapacity: admitting would push the active count past the
	// controller's bound M, or carry the shard's exact rate sum out of 64
	// bits (see MaxRate).
	ReasonCapacity
	// ReasonInvalidRate: the declared rate failed ValidAdmitRate. Batch
	// admissions report it per item; Admit returns an error instead.
	ReasonInvalidRate
	// ReasonDuplicate: the flow ID is already active. Batch admissions
	// report it per item; Admit returns an error instead.
	ReasonDuplicate
	// ReasonExpired: the flow's lease ran out (no UpdateRate/Touch within
	// Config.FlowTTL) and the expiry sweep reclaimed its slot. It never
	// appears in an admission Decision; it classifies lease-sweep
	// departures in stats and metrics.
	ReasonExpired
	reasonEnd // sentinel: reasonNames names every constant above
)

var reasonNames = enum.New(ReasonAdmitted, reasonEnd,
	"admitted", "capacity", "invalid-rate", "duplicate", "expired")

// String implements fmt.Stringer.
func (r Reason) String() string { return reasonNames.String(r) }

// DegradedPolicy selects how the gateway admits while its measurement
// pipeline is unhealthy (stale ticks, or estimates that stay invalid with
// flows present). The paper's controller assumes measurements keep
// arriving; a serving gateway must pick an explicit fallback when they
// don't.
type DegradedPolicy int

const (
	// DegradedFreeze: keep admitting against the last healthy bound M.
	// The default — the bound is stale but was recently defensible.
	DegradedFreeze DegradedPolicy = iota
	// DegradedPeakRate: fall back to peak-rate allocation, M = c / peak,
	// where peak is the largest rate any flow has declared or reported.
	// Zero multiplexing gain, but safe without any measurement at all
	// (the paper's Section 2 a-priori baseline).
	DegradedPeakRate
	// DegradedRejectAll: admit nothing until measurement recovers.
	DegradedRejectAll
	degradedPolicyEnd // sentinel: DegradedPolicyNames names every constant above
)

// DegradedPolicyNames is the degraded policy name table.
var DegradedPolicyNames = enum.New(DegradedFreeze, degradedPolicyEnd,
	"freeze", "peak-rate", "reject-all")

// String implements fmt.Stringer.
func (p DegradedPolicy) String() string { return DegradedPolicyNames.String(p) }

// ParseDegradedPolicy is the inverse of DegradedPolicy.String, for CLI
// flags.
func ParseDegradedPolicy(s string) (DegradedPolicy, error) {
	return DegradedPolicyNames.Parse("gateway: unknown degraded policy", s)
}

// Degradation causes, kept as a bitmask so both faults can hold at once.
const (
	degradedStaleTicks  int32 = 1 << iota // the measurement loop stopped ticking
	degradedMeasurement                   // estimates stayed invalid with flows present
)

// degradedReasons renders each degradation bitmask for stats and logs.
var degradedReasons = [...]string{"", "stale-ticks", "measurement", "stale-ticks+measurement"}

// Decision reports the outcome of one admission request.
type Decision struct {
	Admitted   bool
	Reason     Reason
	Admissible float64 // the bound M in force at decision time
	Active     int64   // active flows immediately after the decision
}

// Config parameterizes a Gateway.
type Config struct {
	Capacity   float64             // link capacity c (required, > 0)
	Controller core.Controller     // admission controller (required)
	Estimator  estimator.Estimator // measurement process (required); owned by the gateway after New
	Shards     int                 // flow-table shards, rounded up to a power of two (default 16)

	// TickInterval is the wall-clock measurement period used by Run
	// (default 100ms). Virtual-clock users ignore it and call Tick
	// directly.
	TickInterval time.Duration

	// LatencyClock supplies monotonic nanoseconds for the admission
	// latency histogram. Nil selects the process-monotonic wall clock;
	// deterministic tests inject a virtual clock so two equally seeded
	// runs produce bit-identical snapshots.
	LatencyClock func() int64

	// LatencySample controls admission-latency fidelity: the gateway
	// observes one in every LatencySample decisions per shard, rounded up
	// to a power of two. 0 or 1 keeps full fidelity — every decision is
	// timed from just after validation to just after the decision. Load
	// drivers set a larger N: sampled-out decisions then skip the latency
	// clock entirely (zero clock reads), and sampled-in decisions time the
	// admission critical section (the sampling choice lives under the
	// shard lock, so the measured interval starts there and excludes lock
	// wait).
	LatencySample int

	// EstimateRing is the number of per-tick (μ̂, σ̂) points retained for
	// observability (default 256).
	EstimateRing int

	// OverflowWindow is the number of measurement ticks over which the
	// gateway estimates the windowed overflow probability p_f — one
	// Bernoulli indicator {ΣX_i > c} per tick (default 1024).
	OverflowWindow int

	// FlowTTL enables flow leases: a flow whose rate has not been refreshed
	// (UpdateRate with a positive rate, or Touch) within FlowTTL units of
	// virtual time is reclaimed by the next measurement tick's expiry sweep
	// and counted as expired. 0 (the default) disables leases — the
	// paper's model, where every flow departs cleanly. When enabled,
	// FlowTTL should comfortably exceed the tick period: leases are
	// anchored to the last tick's time, so a TTL under one tick expires
	// flows on arrival.
	FlowTTL float64

	// StaleAfter arms the degradation watchdogs, in measurement ticks.
	// Two faults trip them: the wall-clock watchdog (Watch) degrades the
	// gateway when no tick completes for StaleAfter tick intervals (the
	// bound is silently stale), and the measurement watchdog degrades it
	// when the estimator reports invalid estimates (not-OK, NaN or Inf)
	// for StaleAfter consecutive ticks while at least two flows are active.
	// 0 (the default) disables both watchdogs. Either way, a tick whose
	// estimates are invalid with flows present never republishes the
	// controller's fallback output — the gateway holds the last healthy
	// bound instead.
	StaleAfter int

	// Degraded selects the admission policy applied while degraded:
	// freeze the last healthy bound (default), fall back to peak-rate
	// allocation, or reject all arrivals until measurement recovers.
	Degraded DegradedPolicy

	// Tuner, when set, retunes the estimator's memory window online: the
	// gateway feeds it one aggregate sample per measurement tick (under
	// the measurement lock) and applies the returned memory before the
	// next tick. The configured Estimator must implement
	// estimator.MemorySetter. The admit hot path is untouched: the tuner
	// runs on the tick path only.
	Tuner Tuner
}

// Tuner is the adaptive-measurement seam (the paper's Section 7 online
// time-scale adaptation): an online controller that observes each
// measurement tick and steers the estimator memory T_m. ObserveTick
// receives the tick time, the instantaneous aggregate rate and flow
// count, the estimator's current estimates, and the memory in force; it
// returns the memory to use from the next tick on, with retune true when
// it differs. Implementations are called under the gateway's measurement
// lock and must not call back into the gateway.
type Tuner interface {
	ObserveTick(now, aggregate float64, flows int, mu, sigma, tm float64) (newTm float64, retune bool)
}

// processStart anchors the default monotonic latency clock.
var processStart = time.Now()

// defaultLatencyClock returns monotonic nanoseconds since process start.
func defaultLatencyClock() int64 { return int64(time.Since(processStart)) }

// MaxRate is the largest rate the gateway accepts. The shards keep ΣX_i
// and ΣX_i² exactly, as integers in the unit u = 2^-28 (about 3.7e-9): a
// rate X is carried as q = round(X/u) ≤ 2^44, Σq in 64 bits and Σq² in
// 128. Admission, update, departure and expiry each add or subtract the q
// of the rate they insert or remove, so the sums are the same bits in any
// order, at any shard count, and never drift. An admission or update that
// would carry its shard's Σq out of 64 bits is refused; Σq² ≤ 2^44·Σq then
// fits by construction.
const MaxRate = 1 << 16

const unit = 0x1p-28 // u

// ValidAdmitRate reports whether Admit accepts a declared rate: one in
// (0, MaxRate].
func ValidAdmitRate(rate float64) bool { return rate > 0 && rate <= MaxRate }

// ValidUpdateRate reports whether UpdateRate accepts a rate: one in
// [0, MaxRate].
func ValidUpdateRate(rate float64) bool { return rate >= 0 && rate <= MaxRate }

// ErrInvalidRate is UpdateRate's error for a rate that fails
// ValidUpdateRate or that its shard's Σq cannot carry.
var ErrInvalidRate = errors.New("gateway: invalid rate")

// fixed returns q = round(rate/u) for a valid rate: rate/u ≤ 2^44, so the
// product and the added half are exact, and the signed conversion (one
// instruction, where the unsigned one branches) cannot overflow.
func fixed(rate float64) uint64 { return uint64(int64(rate*(1/unit) + 0.5)) }

// u128 is an unsigned 128-bit integer hi·2^64 + lo.
type u128 struct{ hi, lo uint64 }

func (a u128) add(b u128) u128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	return u128{a.hi + b.hi + c, lo}
}

func (a u128) sub(b u128) u128 {
	lo, c := bits.Sub64(a.lo, b.lo, 0)
	return u128{a.hi - b.hi - c, lo}
}

func square(q uint64) u128 {
	hi, lo := bits.Mul64(q, q)
	return u128{hi, lo}
}

// float converts a to float64: not always the nearest one, but a function
// of the integer alone, which is all the sums' order-freedom needs.
func (a u128) float() float64 { return float64(a.hi)*0x1p64 + float64(a.lo) }

// rowShard is one lock domain of the flow table: its mutex and, embedded
// by value directly behind it, its rows. The table header shares the line
// the lock was just acquired on, so finding a flow touches that line and
// the slot's and no other (see flowtab). It is one cache line exactly —
// mutex, table header, pad — and TestShardLayout holds it there: a row
// shard that is not a multiple of the line straddles its neighbour's, and
// two cores on different shards then false-share. The pad trails because a
// row shard slice past 512 bytes starts one word into a line (the
// allocator's header for objects holding pointers), and mutex and header
// must share a line either way.
type rowShard struct {
	mu   sync.Mutex
	rows flowtab.Table[row] // flow ID -> q, owner and lease deadline
	_    [8]byte
}

// row is one active flow: its current rate as its owner's sums carry it,
// q = fixed(rate) ≤ 2^44, with the owner's index in the bits above
// ownerShift, and, with leases enabled, the virtual time at which its
// lease expires. Packing the owner into q keeps a table slot at 32 bytes
// (TestShardLayout).
type row struct {
	qo       uint64
	deadline float64
}

// ownerShift is where a row's owner index starts: fixed(MaxRate) = 2^44
// needs the 45 bits below it.
const ownerShift = 45

func (e *row) q() uint64     { return e.qo & (1<<ownerShift - 1) }
func (e *row) owner() uint64 { return e.qo >> ownerShift }

// shard is one gateway's accounting for the rows of one row shard, guarded
// by that row shard's mutex: the exact sums of eq. 7 over the rows it
// owns, and one stripe of the hot-path instrumentation — admit, reject and
// expire counts, updated as plain fields inside the critical section the
// operation already holds, then merged across shards only when Stats or
// Snapshot asks. Compared to global atomic counters this removes every
// cross-shard cache-line bounce from the hot path — the three-way
// contention on admitted/rejected/admitLat was what doubled Admit's cost
// when instrumentation landed. Departures are not counted at all: every
// flow a shard admitted has departed, expired or is still one of its live
// rows, so departed = admitted − expired − live, exactly, under the lock.
//
// A shard is one cache line exactly and holds no pointer (the latency
// histograms sit in Gateway.lat), so a shard slice is never offset by an
// allocator header and no shard straddles its neighbour's line
// (TestShardLayout).
type shard struct {
	sumQ  uint64 // Σq_i over this shard's rows, q_i = fixed(X_i)
	sumQ2 u128   // Σq_i² over this shard's rows

	// minDeadline is a conservative lower bound on the earliest lease
	// deadline of this shard's rows (+Inf when leases are off or the shard
	// owns none): the expiry sweep scans a row shard only when minDeadline
	// has come due, so an all-healthy tick stays O(shards), not O(flows).
	// Lease refreshes only extend deadlines, so the cached bound can run
	// low — the cost is a wasted scan, never a missed expiry.
	minDeadline float64

	admitted uint64 // striped counters, merged at read time
	rejected uint64 //
	expired  uint64 // lease-sweep reclaims (ReasonExpired departures)
	live     uint64 // rows owned: admitted − departed − expired
}

// fits reports whether Σq can take q more without a carry out of 64 bits,
// and addQ and subQ fold one flow's q into or out of the sums; all run
// under the row shard's lock.
func (s *shard) fits(q uint64) bool { return q <= math.MaxUint64-s.sumQ }

func (s *shard) addQ(q uint64) {
	s.sumQ += q
	s.sumQ2 = s.sumQ2.add(square(q))
}

func (s *shard) subQ(q uint64) {
	s.sumQ -= q
	s.sumQ2 = s.sumQ2.sub(square(q))
}

// counts is the striped counters merged over shards; add merges s's under
// its row shard's lock.
type counts struct{ admitted, rejected, departed, expired uint64 }

func (c *counts) add(s *shard) {
	c.admitted += s.admitted
	c.rejected += s.rejected
	c.departed += s.admitted - s.expired - s.live
	c.expired += s.expired
}

// Gateway is a concurrent online admission controller. Construct with New;
// all methods are safe for concurrent use.
type Gateway struct {
	// active is written by every admission and departure on every core, so
	// it leads the struct, with the cold cfg behind it: no field an admit or
	// update reads shares its cache line (TestGatewayHotWordLayout).
	active atomic.Int64 // CAS-reserved active-flow count (admission invariant)

	cfg    Config
	fleet  *Fleet  // the flow table this gateway's rows live in
	idx    uint64  // this gateway's owner index in fleet
	shards []shard // this gateway's accounting, one per row shard

	// Hot-path instrumentation lives striped in the shards (see shard) and
	// in lat, the admission latency histogram per shard, single-writer
	// under its row shard's lock; here also the latency clock and the
	// sampling mask. sampleMask is a power of two minus one: a shard times
	// its k-th decision when k&sampleMask == 0, so mask 0 means every
	// decision (full fidelity).
	lat        []*metrics.LocalHistogram
	clock      func() int64
	sampleMask uint64

	bound metrics.Gauge // the effective published admissible count (eq. 42, post-policy)
	raw   metrics.Gauge // the controller's last healthy bound, pre-degradation

	// Flow-lifecycle state. vnow republishes the last tick's virtual time
	// so the admission path can stamp lease deadlines without touching the
	// measurement mutex; peakBits tracks the largest rate ever declared or
	// reported (float64 bits — positive floats order like their bits), the
	// denominator of the peak-rate degraded fallback.
	ttl       float64
	trackPeak bool
	vnow      metrics.Gauge
	peakBits  atomic.Uint64

	// Degradation state: the cause bitmask and the wall-clock (LatencyClock)
	// time of the last completed tick, compared by the Watch watchdog.
	degraded     atomic.Int32
	lastTickWall atomic.Int64

	// Tick-path instrumentation: the (μ̂, σ̂) snapshot ring tagged with the
	// estimator memory T_m, and the windowed overflow indicator ring.
	ring *metrics.Ring
	tm   float64

	// setMemory is the cached MemorySetter of cfg.Estimator when a Tuner
	// is configured (validated by New), nil otherwise.
	setMemory estimator.MemorySetter

	// measMu guards the estimator, the overflow window and the fields
	// below.
	measMu   sync.Mutex
	overflow *stats.SlidingCounter
	last     Stats // the last tick's measurement: Mu through Ticks
	notOK    int   // consecutive invalid-measurement ticks with flows present
}

// Stats is a consistent snapshot of the gateway's aggregate state.
type Stats struct {
	Active   int64 // flows currently admitted
	Admitted int64 // cumulative admissions
	Rejected int64 // cumulative capacity rejections
	Departed int64 // cumulative departures
	Expired  int64 // cumulative lease-sweep reclaims (ReasonExpired)

	Degraded       bool   // serving under the degraded policy
	DegradedReason string // "", "stale-ticks", "measurement", or both

	Admissible    float64 // published bound M
	Mu            float64 // estimated per-flow mean μ̂ (last tick)
	Sigma         float64 // estimated per-flow stddev σ̂ (last tick)
	MeasurementOK bool    // estimates valid (estimator warmed up)
	AggregateRate float64 // measured ΣX_i at the last tick
	MeasuredFlows int     // flow count seen by the last tick
	LastTick      float64 // virtual time of the last tick
	Ticks         int64   // measurement ticks performed
}

// LifecycleBalanced reports the flow-conservation identity every quiescent
// gateway must satisfy: every admission is accounted for by a departure, a
// lease expiry, or a still-active flow (Admitted = Departed + Expired +
// Active). Mid-flight snapshots can legitimately be off by in-progress
// operations; after a drained run it must hold exactly, and the scenario
// tier's invariant hypotheses assert it after every storm.
func (s Stats) LifecycleBalanced() bool {
	return s.Admitted == s.Departed+s.Expired+s.Active
}

// Fleet is a flow table and the gateways whose flows it holds: each of
// them admits against its own link, estimator and bound, and keeps its own
// per-shard accounting, but a flow's row — its rate, lease deadline and
// owner — exists once, in the fleet's row shards. A standalone gateway
// (New) is a fleet of one, and every row in it has owner 0. An admission
// at any member refuses a flow some member holds as a duplicate, and the
// routed operations below find a flow's row once and act on its owner's
// accounting in the same critical section, so the owner of a flow is
// never out of step with the table. The methods are safe for concurrent
// use; Join is not, and must come before any of them.
type Fleet struct {
	rows    []rowShard
	mask    uint64
	members []*Gateway

	// departPool recycles DepartBatch's shard-grouping scratch across
	// calls and connections, keeping the batched departure path
	// allocation-free in the steady state.
	departPool sync.Pool

	// Every operation reads rows, mask and members: the pad makes a Fleet
	// two cache lines exactly (TestShardLayout), so no object the
	// allocator places beside it shares those lines and writes them.
	_ [32]byte
}

// New validates the configuration and returns a gateway whose bound has
// been initialized by one measurement tick at virtual time zero (so a
// certainty-equivalent controller starts from its bootstrap declaration):
// the one member of a fleet of its own.
func New(cfg Config) (*Gateway, error) { return new(Fleet).Join(cfg) }

// ShardCount returns the number of shards a gateway configured with
// Shards = n has: n rounded up to a power of two, 16 when n ≤ 0.
func ShardCount(n int) int {
	if n <= 0 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}

// Join validates cfg and returns a new member of the fleet, as New does a
// standalone gateway. The first member sets the fleet's shard count
// (ShardCount(cfg.Shards)); every later one must have the same.
func (f *Fleet) Join(cfg Config) (*Gateway, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("gateway: capacity %g must be positive", cfg.Capacity)
	}
	if cfg.Controller == nil || cfg.Estimator == nil {
		return nil, fmt.Errorf("gateway: Controller and Estimator are required")
	}
	nshards := ShardCount(cfg.Shards)
	if f.rows != nil && nshards != len(f.rows) {
		return nil, fmt.Errorf("gateway: %d shards in a fleet of %d", nshards, len(f.rows))
	}
	if len(f.members) == 1<<(64-ownerShift) {
		return nil, fmt.Errorf("gateway: a fleet holds at most %d gateways", len(f.members))
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 100 * time.Millisecond
	}
	if cfg.LatencyClock == nil {
		cfg.LatencyClock = defaultLatencyClock
	}
	if cfg.EstimateRing <= 0 {
		cfg.EstimateRing = 256
	}
	if cfg.OverflowWindow <= 0 {
		cfg.OverflowWindow = 1024
	}
	if math.IsNaN(cfg.FlowTTL) || math.IsInf(cfg.FlowTTL, 0) || cfg.FlowTTL < 0 {
		return nil, fmt.Errorf("gateway: flow TTL %g must be a non-negative finite duration", cfg.FlowTTL)
	}
	if !DegradedPolicyNames.Valid(cfg.Degraded) {
		return nil, fmt.Errorf("gateway: unknown degraded policy %d", int(cfg.Degraded))
	}
	if cfg.StaleAfter < 0 {
		return nil, fmt.Errorf("gateway: StaleAfter %d must be non-negative", cfg.StaleAfter)
	}
	var setMemory estimator.MemorySetter
	if cfg.Tuner != nil {
		ms, ok := cfg.Estimator.(estimator.MemorySetter)
		if !ok {
			return nil, fmt.Errorf("gateway: Tuner requires an estimator implementing MemorySetter; %s does not", cfg.Estimator.Name())
		}
		setMemory = ms
	}
	if f.rows == nil {
		f.rows = make([]rowShard, nshards)
		f.mask = uint64(nshards - 1)
	}
	g := &Gateway{
		cfg:       cfg,
		fleet:     f,
		idx:       uint64(len(f.members)),
		shards:    make([]shard, nshards),
		lat:       make([]*metrics.LocalHistogram, nshards),
		clock:     cfg.LatencyClock,
		ring:      metrics.NewRing(cfg.EstimateRing),
		tm:        estimator.Memory(cfg.Estimator),
		overflow:  stats.NewSlidingCounter(cfg.OverflowWindow),
		ttl:       cfg.FlowTTL,
		trackPeak: cfg.Degraded == DegradedPeakRate,
		setMemory: setMemory,
	}
	f.members = append(f.members, g)
	if cfg.LatencySample > 1 {
		g.sampleMask = 1<<bits.Len(uint(cfg.LatencySample-1)) - 1
	}
	// All striped histograms alias one bounds slice so Snapshot merges stay
	// layout-compatible by construction.
	bounds := metrics.DefaultLatencyBounds()
	for k := range g.shards {
		g.lat[k] = metrics.NewLocalHistogram(bounds)
		g.shards[k].minDeadline = math.Inf(1)
	}
	g.cfg.Estimator.Reset(0)
	g.Tick(0)
	return g, nil
}

// shardIndex mixes the flow ID so adjacent IDs spread across shards. The
// mix is unseeded: which shard samples which decision's latency, and so
// every equally seeded snapshot, depends on it.
func (f *Fleet) shardIndex(flowID uint64) uint64 {
	return flowtab.Mix(flowID) & f.mask
}

// owns reports whether row e is g's.
func (g *Gateway) owns(e *row) bool { return e.owner() == g.idx }

// Admissible returns the currently published bound M.
func (g *Gateway) Admissible() float64 {
	return g.bound.Load()
}

// startTimingLocked decides whether this decision's latency is observed
// and, if so, reads the clock; the caller holds the row shard's lock. At
// full fidelity the caller already read start before the lock (timing the
// whole call), so this is a no-op; in sampled mode the 1-in-N choice
// happens here, under the lock that owns the shard's decision count
// (admitted + rejected, of which this decision is the next), and
// sampled-out decisions never touch the clock at all — the measurement
// cost the paper's philosophy (§4) says must not perturb the measured
// system.
func (g *Gateway) startTimingLocked(s *shard, start int64) (int64, bool) {
	if g.sampleMask == 0 {
		return start, true
	}
	if (s.admitted+s.rejected+1)&g.sampleMask != 0 {
		return 0, false
	}
	return g.clock(), true
}

// insertLocked records row e, just inserted or adopted, as a flow g has
// admitted at rate; the caller holds the row shard's lock, has checked
// that q = fixed(rate) fits s, and has CAS-reserved the active slot. With
// leases enabled the flow's deadline is stamped from the last published
// tick time, so a flow that never refreshes expires one TTL after (at
// most) its admission tick.
func (g *Gateway) insertLocked(s *shard, e *row, rate float64, q uint64) {
	e.qo = q | g.idx<<ownerShift
	if g.ttl > 0 {
		e.deadline = g.vnow.Load() + g.ttl
		if e.deadline < s.minDeadline {
			s.minDeadline = e.deadline
		}
	}
	s.addQ(q)
	s.admitted++
	s.live++
	if g.trackPeak {
		g.notePeak(rate)
	}
}

// releaseLocked takes row e, which is leaving g — departed, or adopted by
// another member — out of g's accounting for shard k; the caller holds
// the row shard's lock and owes the active count its decrement. The row's
// exact q leaves the sums, so a shard that empties holds zero sums by
// arithmetic; its cached earliest deadline resets with it.
func (g *Gateway) releaseLocked(k uint64, e *row) {
	s := &g.shards[k]
	s.subQ(e.q())
	s.live--
	if s.live == 0 {
		s.minDeadline = math.Inf(1)
	}
}

// notePeak folds rate into the running peak (the degraded peak-rate
// denominator). Positive float64s order like their bit patterns, so the
// monotone max is a plain CAS on the bits; the fast path is one load.
func (g *Gateway) notePeak(rate float64) {
	for {
		old := g.peakBits.Load()
		if rate <= math.Float64frombits(old) {
			return
		}
		if g.peakBits.CompareAndSwap(old, math.Float64bits(rate)) {
			return
		}
	}
}

// Admit requests admission for flowID at the given declared (or
// pre-measured, per Qadir et al.) rate. A capacity refusal is a normal
// Decision, not an error; errors indicate invalid input (a rate failing
// ValidAdmitRate, a flow ID already active anywhere in the fleet) and
// carry a Decision whose Reason says why — error-path Decisions are never
// ReasonAdmitted. Invalid requests are refused before the latency clock
// starts: they are not admission decisions and do not perturb the latency
// distribution.
func (g *Gateway) Admit(flowID uint64, declaredRate float64) (Decision, error) {
	if !ValidAdmitRate(declaredRate) {
		return Decision{Reason: ReasonInvalidRate, Admissible: g.Admissible(), Active: g.active.Load()},
			fmt.Errorf("gateway: declared rate %g must be in (0, %d]", declaredRate, MaxRate)
	}
	var start int64
	if g.sampleMask == 0 {
		start = g.clock()
	}
	m := g.Admissible()
	k := g.fleet.shardIndex(flowID)
	r := &g.fleet.rows[k]
	r.mu.Lock()
	if r.rows.Get(flowID) != nil {
		r.mu.Unlock()
		return Decision{Reason: ReasonDuplicate, Admissible: m, Active: g.active.Load()},
			fmt.Errorf("gateway: flow %d is already active", flowID)
	}
	start, timed := g.startTimingLocked(&g.shards[k], start)
	d := g.decideLocked(r, k, flowID, declaredRate, m, nil)
	if timed {
		g.lat[k].Observe(float64(g.clock()-start) * 1e-9)
	}
	r.mu.Unlock()
	return d, nil
}

// decideLocked is the one admission step behind Admit, AdmitBatch and
// Adopt: reserve a slot and take the flow, or count the capacity reject.
// The caller holds row shard k's lock, has checked rate with
// ValidAdmitRate and has ruled out a duplicate; e is nil for a new flow,
// whose row is inserted, or the row g adopts from its owner. The
// reservation is lock-free: the CAS loop ensures the active count can
// never exceed ⌊M⌋ even when many goroutines race a single free slot.
// (Spinning while holding the row shard's lock is safe: other threads
// advance the counter without needing it.) Counters stay inside the
// critical section the path already owns — striped plain fields, merged
// only when a reader asks.
func (g *Gateway) decideLocked(r *rowShard, k, flowID uint64, rate, m float64, e *row) Decision {
	s := &g.shards[k]
	q := fixed(rate)
	for {
		cur := g.active.Load()
		if float64(cur)+1 > m || !s.fits(q) {
			s.rejected++
			return Decision{Reason: ReasonCapacity, Admissible: m, Active: cur}
		}
		if g.active.CompareAndSwap(cur, cur+1) {
			if e == nil {
				e, _ = r.rows.Put(flowID)
			} else {
				from := g.fleet.members[e.owner()]
				from.releaseLocked(k, e)
				from.active.Add(-1)
			}
			g.insertLocked(s, e, rate, q)
			return Decision{Admitted: true, Reason: ReasonAdmitted, Admissible: m, Active: cur + 1}
		}
	}
}

// AdmitBatch decides a batch of admission requests in one call, appending
// one Decision per request to dst (pass a reused dst with spare capacity
// for an allocation-free steady state) and returning the extended slice.
// Semantically each item is decided exactly as by Admit, in order, except
// that invalid inputs become per-item Decisions (ReasonInvalidRate,
// ReasonDuplicate) rather than errors — a batch replay must not abort on
// one bad record. The only error is a length mismatch between ids and
// rates.
//
// The batch amortizes instrumentation: an all-valid batch pays one
// clock-read pair and one bound load total, and the latency histogram
// receives the per-decision mean, once per decided item, so
// AdmitLatency.Count still equals Admitted+Rejected. Undecided items
// (invalid rate, duplicate) are excluded from the averaged interval — the
// clock is stopped across runs of invalid items and restarted at the next
// valid one — and the mean is attributed to the shard that decided the
// first item, never to a shard that only saw invalid input. (A duplicate's
// table lookup is the one sliver that rides on an open interval: it is
// indistinguishable from a decision until the lookup returns.) Batches
// bypass LatencySample — the clock cost is already amortized. The latency
// clock is read only outside the row shard locks, so a clock hook that
// calls back into the fleet cannot deadlock on them.
func (g *Gateway) AdmitBatch(ids []uint64, rates []float64, dst []Decision) ([]Decision, error) {
	return g.admitBatch(ids, rates, dst, nil)
}

// Adopt migrates flowID from from, another member of g's fleet, to g at
// rate, the rate a ForEachFlow walk of from reported: it is decided as
// AdmitBatch decides an admission, and an admitted flow's row changes
// owner in the same critical section, counted as one admission at g and
// one departure at from. A flow that has left from since the walk is
// refused as a duplicate, and a refused one stays where it was.
func (g *Gateway) Adopt(flowID uint64, rate float64, from *Gateway) Decision {
	var buf [1]Decision
	ds, _ := g.admitBatch([]uint64{flowID}, []float64{rate}, buf[:0], from)
	return ds[0]
}

// admitBatch is AdmitBatch, and with from set Adopt's batch: an item is
// then a duplicate unless from holds it.
func (g *Gateway) admitBatch(ids []uint64, rates []float64, dst []Decision, from *Gateway) ([]Decision, error) {
	if len(ids) != len(rates) {
		return dst, fmt.Errorf("gateway: batch length mismatch: %d ids, %d rates", len(ids), len(rates))
	}
	if len(ids) == 0 {
		return dst, nil
	}
	m, f := g.Admissible(), g.fleet
	var (
		latNanos int64 // decided-interval time, accumulated across runs
		start    int64 // open interval start
		timing   bool  // an interval is open
		decided  int
		latShard = -1 // the first shard that decided an item
	)
	for i, id := range ids {
		rate := rates[i]
		if !ValidAdmitRate(rate) {
			if timing {
				latNanos += g.clock() - start
				timing = false
			}
			dst = append(dst, Decision{Reason: ReasonInvalidRate, Admissible: m, Active: g.active.Load()})
			continue
		}
		if !timing {
			start = g.clock()
			timing = true
		}
		k := f.shardIndex(id)
		r := &f.rows[k]
		r.mu.Lock()
		e := r.rows.Get(id)
		if from == nil && e != nil || from != nil && (e == nil || !from.owns(e)) {
			r.mu.Unlock()
			latNanos += g.clock() - start
			timing = false
			dst = append(dst, Decision{Reason: ReasonDuplicate, Admissible: m, Active: g.active.Load()})
			continue
		}
		d := g.decideLocked(r, k, id, rate, m, e)
		r.mu.Unlock()
		if latShard < 0 {
			latShard = int(k)
		}
		decided++
		dst = append(dst, d)
	}
	if timing {
		latNanos += g.clock() - start
	}
	if decided > 0 {
		r := &g.fleet.rows[latShard]
		r.mu.Lock()
		g.lat[latShard].ObserveN(float64(latNanos)*1e-9/float64(decided), decided)
		r.mu.Unlock()
	}
	return dst, nil
}

// UpdateRate records a renegotiated rate for an active flow — the online
// rate-measurement path: callers feed measured per-flow rates here and the
// next tick folds them into (μ̂, σ̂).
//
// Zero is a valid rate: a paused flow keeps its admission slot and
// contributes a zero sample to the cross-section (eq. 7 averages over the
// flows in the system, silent or not — Admit's rate > 0 requirement is
// about the *declaration* an unmeasured newcomer is admitted on, not about
// what measurement later reports). With leases enabled, though, a zero
// report does NOT refresh the flow's lease: a flow that only ever reports
// zero is indistinguishable from a crashed client holding a slot, so it
// expires one TTL after its last positive report (or Touch — the explicit
// keepalive for deliberately idle flows). A refused rate is ErrInvalidRate.
// Like Touch and Depart, it acts on any flow of g's fleet, at its owner.
func (g *Gateway) UpdateRate(flowID uint64, rate float64) error {
	if !ValidUpdateRate(rate) {
		return fmt.Errorf("%w %g: not in [0, %d]", ErrInvalidRate, rate, MaxRate)
	}
	active, err := g.fleet.UpdateRate(flowID, rate)
	if err == nil && !active {
		return notActiveError(flowID)
	}
	return err
}

// UpdateRate is Gateway.UpdateRate for any flow of the fleet, reporting
// the not-active outcome as false instead of an error: it returns
// ErrInvalidRate for a rate that fails ValidUpdateRate or that the owner's
// shard sums cannot carry, and otherwise whether the fleet holds the flow.
func (f *Fleet) UpdateRate(flowID uint64, rate float64) (bool, error) {
	if !ValidUpdateRate(rate) {
		return false, ErrInvalidRate
	}
	k := f.shardIndex(flowID)
	r := &f.rows[k]
	r.mu.Lock()
	e := r.rows.Get(flowID)
	var err error
	if e != nil {
		err = f.members[e.owner()].updateLocked(k, e, rate)
	}
	r.mu.Unlock()
	return e != nil, err
}

// updateLocked moves g's row e in shard k to rate; the caller holds the
// row shard's lock.
func (g *Gateway) updateLocked(k uint64, e *row, rate float64) error {
	s := &g.shards[k]
	q, old := fixed(rate), e.q()
	if q > old && !s.fits(q-old) {
		return ErrInvalidRate
	}
	s.subQ(old)
	s.addQ(q)
	e.qo = q | g.idx<<ownerShift
	if g.ttl > 0 && rate > 0 {
		e.deadline = g.vnow.Load() + g.ttl
	}
	if g.trackPeak && rate > 0 {
		g.notePeak(rate)
	}
	return nil
}

// notActiveError is UpdateRate's, Touch's and Depart's error for a flow the
// gateway does not hold. A refused flow's every later update and departure
// ends here, so the text is built only if someone asks for it.
type notActiveError uint64

func (id notActiveError) Error() string {
	return fmt.Sprintf("gateway: flow %d is not active", uint64(id))
}

// Touch refreshes an active flow's lease without changing its rate — the
// keepalive for flows that are legitimately idle (rate 0) or whose rate
// reports arrive out of band. A no-op when leases are disabled.
func (g *Gateway) Touch(flowID uint64) error {
	if !g.fleet.Touch(flowID) {
		return notActiveError(flowID)
	}
	return nil
}

// Touch is Gateway.Touch for any flow of the fleet, at its owner; it
// reports whether the fleet holds the flow.
func (f *Fleet) Touch(flowID uint64) bool {
	r := &f.rows[f.shardIndex(flowID)]
	r.mu.Lock()
	e := r.rows.Get(flowID)
	if e != nil {
		if g := f.members[e.owner()]; g.ttl > 0 {
			e.deadline = g.vnow.Load() + g.ttl
		}
	}
	r.mu.Unlock()
	return e != nil
}

// Depart removes an active flow. Departing an unknown flow is an error.
func (g *Gateway) Depart(flowID uint64) error {
	if !g.fleet.Depart(flowID) {
		return notActiveError(flowID)
	}
	return nil
}

// Depart is Gateway.Depart for any flow of the fleet, at its owner; it
// reports whether the fleet held the flow.
func (f *Fleet) Depart(flowID uint64) bool {
	k := f.shardIndex(flowID)
	r := &f.rows[k]
	r.mu.Lock()
	g := f.departLocked(k, flowID)
	if g != nil {
		g.active.Add(-1)
	}
	r.mu.Unlock()
	return g != nil
}

// departLocked is the one way a flow leaves the table by request —
// departure and batched departure both end here (lease expiry leaves
// through sweepLocked). It returns the flow's owner, or nil if the fleet
// does not hold it; the caller holds row shard k's lock and owes the
// owner's active count its decrement.
func (f *Fleet) departLocked(k, flowID uint64) *Gateway {
	e, ok := f.rows[k].rows.Delete(flowID)
	if !ok {
		return nil
	}
	g := f.members[e.owner()]
	g.releaseLocked(k, &e)
	return g
}

// departScratch is DepartBatch's pooled scratch: intrusive per-shard
// chains (head/tail indexed by shard, next indexed by item) so a batch
// groups by shard in one pass with no per-call allocation, and the
// departures per member.
type departScratch struct {
	head, tail []int
	next       []int
	departed   []int64
}

// DepartBatch removes a batch of active flows in one call, appending one
// result per id to dst (true = departed, false = not active) and
// returning the extended slice. Semantically each id is departed exactly
// as by Depart, in order — a duplicated id departs at its first
// occurrence and reports not active at the rest — except the outcomes are
// values instead of errors: the serving layer acks every frame and must
// not abort a pipelined run on one unknown flow.
//
// The batch is the departure half of the AdmitBatch amortization story:
// ids are grouped by shard (order-preserving intrusive chains over pooled
// scratch), so a batch takes each shard's lock once instead of once per
// flow, and each owner's active count is decremented once with its batch
// total instead of once per departure.
func (g *Gateway) DepartBatch(ids []uint64, dst []bool) []bool {
	return g.fleet.DepartBatch(ids, dst)
}

// DepartBatch is Gateway.DepartBatch for any flows of the fleet.
func (f *Fleet) DepartBatch(ids []uint64, dst []bool) []bool {
	n := len(ids)
	if n == 0 {
		return dst
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, false)
	}
	sc, _ := f.departPool.Get().(*departScratch)
	if sc == nil {
		sc = &departScratch{departed: make([]int64, len(f.members))}
	}
	nshards := len(f.rows)
	if cap(sc.head) < nshards {
		sc.head = make([]int, nshards)
		sc.tail = make([]int, nshards)
	}
	head, tail := sc.head[:nshards], sc.tail[:nshards]
	for i := range head {
		head[i] = -1
	}
	if cap(sc.next) < n {
		sc.next = make([]int, n)
	}
	next := sc.next[:n]
	for i, id := range ids {
		si := int(f.shardIndex(id))
		next[i] = -1
		if head[si] < 0 {
			head[si] = i
		} else {
			next[tail[si]] = i
		}
		tail[si] = i
	}
	for si, i := range head {
		if i < 0 {
			continue
		}
		r := &f.rows[si]
		r.mu.Lock()
		for ; i >= 0; i = next[i] {
			if g := f.departLocked(uint64(si), ids[i]); g != nil {
				sc.departed[g.idx]++
				dst[base+i] = true
			}
		}
		r.mu.Unlock()
	}
	for o, d := range sc.departed {
		if d > 0 {
			f.members[o].active.Add(-d)
			sc.departed[o] = 0
		}
	}
	f.departPool.Put(sc)
	return dst
}

// Tick performs one measurement cycle at virtual time now: gather the
// cross-sectional aggregates from the shards, advance and update the
// estimator, re-evaluate the controller, and publish the new bound. It
// returns the resulting snapshot. now is clamped to be non-decreasing;
// concurrent Ticks serialize on the measurement mutex.
//
// A flow mid-admission (slot reserved, shard insert pending) may be
// missed by the sweep; that is ordinary measurement noise, identical to a
// flow arriving just after a tick.
//
// The tick takes each shard lock once: it adds the shard's exact integer
// sums (see MaxRate) and its counters, and the snapshot it returns is
// built from that one pass. The sums are converted to float64 once, after
// it, so equal flow sets give bit-identical aggregates however they were
// reached.
//
// With leases enabled the pass starts each shard with the expiry sweep: a
// shard whose cached earliest deadline has come due is scanned, and its
// expired flows are reclaimed (ReasonExpired) before its sums are read. A
// silent flow is therefore gone by the first tick at or past its deadline
// — within one TTL of its last refresh — and never pollutes (μ̂, σ̂) after
// expiry.
//
// A tick whose estimates come back invalid (not-OK, NaN or Inf) while at
// least two flows are active is a measurement fault, not a measurement:
// the gateway holds the last healthy bound instead of republishing
// whatever the controller derives from a poisoned input, and — with
// Config.StaleAfter armed — degrades to the configured policy after
// StaleAfter consecutive faulty ticks. One healthy tick exits degraded
// mode and republishes the controller's fresh bound.
//
// In a fleet each member sweeps only its own rows, and its pass reads only
// its own accounting.
func (g *Gateway) Tick(now float64) Stats {
	g.measMu.Lock()
	if !(now > g.last.LastTick) {
		now = g.last.LastTick
	}
	var sumQ, sumQ2 u128
	var c counts
	var n int
	rows := g.fleet.rows[:len(g.shards)]
	for k := range g.shards {
		s, r := &g.shards[k], &rows[k]
		r.mu.Lock()
		if g.ttl > 0 && s.minDeadline <= now {
			g.sweepLocked(k, now)
		}
		sumQ = sumQ.add(u128{lo: s.sumQ})
		sumQ2 = sumQ2.add(s.sumQ2)
		n += int(s.live)
		c.add(s)
		r.mu.Unlock()
	}
	sumRate := sumQ.float() * unit
	sumSq := sumQ2.float() * (unit * unit)

	g.cfg.Estimator.Advance(now)
	g.cfg.Estimator.Update(sumRate, sumSq, n)
	mu, sigma, ok := g.cfg.Estimator.Estimate()
	valid := ok && !math.IsNaN(mu) && !math.IsInf(mu, 0) &&
		!math.IsNaN(sigma) && !math.IsInf(sigma, 0)
	faulted := n >= 2 && !valid
	var m float64
	if faulted {
		g.notOK++
		m = g.raw.Load() // hold the last healthy bound
	} else {
		g.notOK = 0
		m = g.cfg.Controller.Admissible(core.Measurement{
			Capacity:      g.cfg.Capacity,
			Flows:         n,
			AggregateRate: sumRate,
			Mu:            mu,
			Sigma:         sigma,
			OK:            ok,
		})
		if math.IsNaN(m) || m < 0 {
			m = 0
		}
	}
	if g.cfg.StaleAfter > 0 {
		if g.notOK >= g.cfg.StaleAfter {
			g.setDegraded(degradedMeasurement)
		} else {
			g.clearDegraded(degradedMeasurement)
		}
		g.clearDegraded(degradedStaleTicks) // a completed tick is fresh
		g.lastTickWall.Store(g.clock())
	}
	g.raw.Set(m)
	g.bound.Set(g.effectiveBound(m))
	g.vnow.Set(now)
	g.overflow.Add(sumRate > g.cfg.Capacity)
	g.ring.Push(metrics.EstimatePoint{Time: now, Mu: mu, Sigma: sigma, OK: ok, Tm: g.tm})
	g.last = Stats{Mu: mu, Sigma: sigma, MeasurementOK: ok, AggregateRate: sumRate,
		MeasuredFlows: n, LastTick: now, Ticks: g.last.Ticks + 1}
	if g.cfg.Tuner != nil {
		// The retune applies from the next tick's Advance on: this tick's
		// measurements were produced under the old memory, and the ring
		// point above is tagged accordingly.
		if newTm, retune := g.cfg.Tuner.ObserveTick(now, sumRate, n, mu, sigma, g.tm); retune {
			g.setMemory.SetMemory(newTm)
			g.tm = g.setMemory.Memory()
		}
	}
	st := g.statsLocked(c)
	g.measMu.Unlock()
	return st
}

// sweepLocked reclaims g's expired leases from row shard k at virtual time
// now, taking each one's exact q out of the sums, and refreshes the
// shard's cached earliest deadline; the caller holds measMu and the row
// shard's lock. The sweep is one in-place pass over the row shard and
// allocates nothing; it passes over other members' rows.
func (g *Gateway) sweepLocked(k int, now float64) {
	s := &g.shards[k]
	min := math.Inf(1)
	reclaimed := g.fleet.rows[k].rows.DeleteFunc(func(_ uint64, e *row) bool {
		if !g.owns(e) {
			return false
		}
		if e.deadline <= now {
			s.subQ(e.q())
			return true
		}
		if e.deadline < min {
			min = e.deadline
		}
		return false
	})
	s.minDeadline = min
	if reclaimed == 0 {
		return
	}
	s.live -= uint64(reclaimed)
	s.expired += uint64(reclaimed)
	g.active.Add(-int64(reclaimed))
}

// setDegraded and clearDegraded maintain the degradation bitmask with CAS
// (several writers: ticks, the Watch watchdog).
func (g *Gateway) setDegraded(bit int32) {
	for {
		old := g.degraded.Load()
		if old&bit != 0 || g.degraded.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (g *Gateway) clearDegraded(bit int32) {
	for {
		old := g.degraded.Load()
		if old&bit == 0 || g.degraded.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// effectiveBound maps the controller's bound through the degraded policy:
// healthy gateways publish raw; degraded ones publish what the policy
// allows. Freezing publishes raw too — raw itself is held during
// measurement faults, and a stalled tick leaves it untouched by nature.
func (g *Gateway) effectiveBound(raw float64) float64 {
	if g.degraded.Load() == 0 {
		return raw
	}
	switch g.cfg.Degraded {
	case DegradedPeakRate:
		peak := core.PeakRate{Peak: math.Float64frombits(g.peakBits.Load())}
		return peak.Admissible(core.Measurement{Capacity: g.cfg.Capacity})
	case DegradedRejectAll:
		return 0
	default:
		return raw
	}
}

// Degraded reports whether the gateway is serving under its degraded
// policy, and why ("stale-ticks", "measurement", or both; empty when
// healthy).
func (g *Gateway) Degraded() (bool, string) {
	flags := g.degraded.Load()
	return flags != 0, degradedReasons[flags]
}

// Stats returns a snapshot of counters and the last tick's measurements.
// The striped hot-path counters are merged under the shard locks (taken
// after measMu, the gateway's lock order).
func (g *Gateway) Stats() Stats {
	g.measMu.Lock()
	defer g.measMu.Unlock()
	var c counts
	for k := range g.shards {
		r := &g.fleet.rows[k]
		r.mu.Lock()
		c.add(&g.shards[k])
		r.mu.Unlock()
	}
	return g.statsLocked(c)
}

// statsLocked assembles a snapshot from the merged counters c and the last
// tick's measurement; the caller holds measMu.
func (g *Gateway) statsLocked(c counts) Stats {
	st := g.last
	st.Active, st.Admissible = g.active.Load(), g.Admissible()
	st.Admitted, st.Rejected = int64(c.admitted), int64(c.rejected)
	st.Departed, st.Expired = int64(c.departed), int64(c.expired)
	st.Degraded, st.DegradedReason = g.Degraded()
	return st
}

// Snapshot is the full observability view of a gateway: the admission
// counters, the published bound, the last measurement, the windowed
// overflow estimate with its Wilson interval, the admission latency
// histogram, and the recent (μ̂, σ̂) trajectory. It is JSON-encodable (the
// expvar/HTTP payload) and convertible to Prometheus text via
// WritePrometheus. DESIGN.md maps each field to its paper quantity.
type Snapshot struct {
	Time           float64                   `json:"time"`            // virtual time of the last tick
	Capacity       float64                   `json:"capacity"`        // link capacity c
	Active         int64                     `json:"active"`          // flows currently admitted
	Admitted       int64                     `json:"admitted"`        // cumulative admissions
	Rejected       int64                     `json:"rejected"`        // cumulative capacity rejections
	Departed       int64                     `json:"departed"`        // cumulative departures
	Expired        int64                     `json:"expired"`         // cumulative lease-sweep reclaims
	Ticks          int64                     `json:"ticks"`           // measurement ticks performed
	Bound          float64                   `json:"bound"`           // published admissible count M (eq. 42, post-policy)
	BoundRaw       float64                   `json:"bound_raw"`       // the controller's last healthy bound, pre-degradation
	Degraded       bool                      `json:"degraded"`        // serving under the degraded policy
	DegradedReason string                    `json:"degraded_reason"` // "", "stale-ticks", "measurement", or both
	Mu             float64                   `json:"mu"`              // μ̂ at the last tick (eq. 6)
	Sigma          float64                   `json:"sigma"`           // σ̂ at the last tick (eq. 6)
	MeasurementOK  bool                      `json:"measurement_ok"`  // estimator warmed up
	AggregateRate  float64                   `json:"aggregate_rate"`  // ΣX_i at the last tick (eq. 7)
	MeasuredFlows  int                       `json:"measured_flows"`  // flows seen by the last tick
	Tm             float64                   `json:"tm"`              // estimator filter memory (Section 4.3)
	Overflow       stats.WindowedEstimate    `json:"overflow"`        // windowed p_f with Wilson CI
	AdmitLatency   metrics.HistogramSnapshot `json:"admit_latency"`   // seconds
	Estimates      []metrics.EstimatePoint   `json:"estimates"`       // recent (μ̂, σ̂) ring, oldest first
}

// Snapshot assembles the observability snapshot. The tick-path state is
// read under the measurement mutex; the striped hot-path counters and
// latency histograms are then merged shard by shard, so they may run a few
// operations ahead of the tick state — the standard weakly-consistent
// metrics contract.
func (g *Gateway) Snapshot() Snapshot {
	g.measMu.Lock()
	snap := Snapshot{
		Time:          g.last.LastTick,
		Capacity:      g.cfg.Capacity,
		Ticks:         g.last.Ticks,
		Mu:            g.last.Mu,
		Sigma:         g.last.Sigma,
		MeasurementOK: g.last.MeasurementOK,
		AggregateRate: g.last.AggregateRate,
		MeasuredFlows: g.last.MeasuredFlows,
		Tm:            g.tm,
		Overflow:      g.overflow.Estimate(0),
	}
	g.measMu.Unlock()
	var c counts
	lat := g.lat[0].EmptySnapshot()
	for k := range g.shards {
		r := &g.fleet.rows[k]
		r.mu.Lock()
		c.add(&g.shards[k])
		g.lat[k].AddTo(&lat)
		r.mu.Unlock()
	}
	snap.Active = g.active.Load()
	snap.Admitted = int64(c.admitted)
	snap.Rejected = int64(c.rejected)
	snap.Departed = int64(c.departed)
	snap.Expired = int64(c.expired)
	snap.Bound = g.Admissible()
	snap.BoundRaw = g.raw.Load()
	snap.Degraded, snap.DegradedReason = g.Degraded()
	snap.AdmitLatency = lat
	snap.Estimates = g.ring.Snapshot()
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_gateway_* namespace.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_gateway_capacity", "link capacity c", s.Capacity)
	metrics.WriteGauge(w, "mbac_gateway_active_flows", "flows currently admitted", float64(s.Active))
	metrics.WriteCounter(w, "mbac_gateway_admitted_total", "cumulative admitted flows", s.Admitted)
	metrics.WriteCounter(w, "mbac_gateway_rejected_total", "cumulative capacity rejections", s.Rejected)
	metrics.WriteCounter(w, "mbac_gateway_departed_total", "cumulative departed flows", s.Departed)
	metrics.WriteCounter(w, "mbac_gateway_expired_total", "cumulative lease-expired flows", s.Expired)
	metrics.WriteCounter(w, "mbac_gateway_ticks_total", "measurement ticks performed", s.Ticks)
	metrics.WriteGauge(w, "mbac_gateway_bound", "published admissible flow count M (eq. 42, post-policy)", s.Bound)
	metrics.WriteGauge(w, "mbac_gateway_bound_raw", "controller's last healthy bound, pre-degradation", s.BoundRaw)
	deg := 0.0
	if s.Degraded {
		deg = 1
	}
	metrics.WriteGauge(w, "mbac_gateway_degraded", "1 while serving under the degraded policy", deg)
	metrics.WriteGauge(w, "mbac_gateway_mu", "estimated per-flow mean rate (eq. 6)", s.Mu)
	metrics.WriteGauge(w, "mbac_gateway_sigma", "estimated per-flow rate stddev (eq. 6)", s.Sigma)
	ok := 0.0
	if s.MeasurementOK {
		ok = 1
	}
	metrics.WriteGauge(w, "mbac_gateway_measurement_ok", "1 when the estimator has warmed up", ok)
	metrics.WriteGauge(w, "mbac_gateway_aggregate_rate", "measured aggregate rate (eq. 7)", s.AggregateRate)
	metrics.WriteGauge(w, "mbac_gateway_estimator_memory", "estimator filter memory T_m (Section 4.3)", s.Tm)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_p", "windowed overflow probability p_f", s.Overflow.P)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_lo", "Wilson lower bound of windowed p_f", s.Overflow.Lo)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_hi", "Wilson upper bound of windowed p_f", s.Overflow.Hi)
	metrics.WriteCounter(w, "mbac_gateway_overflow_window_hits", "overflow ticks inside the window", s.Overflow.Hits)
	metrics.WriteCounter(w, "mbac_gateway_overflow_window_samples", "ticks inside the window", s.Overflow.N)
	metrics.WriteHistogram(w, "mbac_gateway_admit_latency_seconds", "admission decision latency", s.AdmitLatency)
}

// Run ticks the gateway on the configured wall-clock interval until ctx is
// done, mapping wall time to the estimator's virtual time in seconds since
// Run started, with the tick-staleness watchdog (Watch) beside it. It
// blocks; run it in its own goroutine.
func (g *Gateway) Run(ctx context.Context) {
	ticker := time.NewTicker(g.cfg.TickInterval)
	defer ticker.Stop()
	start := time.Now()
	go g.Watch(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.Tick(time.Since(start).Seconds())
		}
	}
}

// Watch is the tick-staleness watchdog: until ctx is done it compares the
// latency clock against the last completed tick every tick interval and
// flips the gateway into its degraded policy when the bound has gone
// StaleAfter tick intervals without refresh — the failure mode where the
// measurement loop itself is wedged (an estimator stall holds the
// measurement mutex mid-Tick) and nothing else would notice. It is
// deliberately lock-free so it keeps working while Tick is stuck. It
// returns at once when StaleAfter is 0. Every wall-clock tick loop starts
// it once per gateway: Run, and a cluster's Run for each instance.
func (g *Gateway) Watch(ctx context.Context) {
	if g.cfg.StaleAfter == 0 {
		return
	}
	g.lastTickWall.Store(g.clock())
	ticker := time.NewTicker(g.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.checkStale()
		}
	}
}

// checkStale degrades the gateway if no measurement tick has completed for
// more than StaleAfter tick intervals of latency-clock time, republishing
// the bound through the degraded policy, and reports whether the gateway
// is (now) stale. It takes no locks — it must work while Tick is wedged —
// and the flag is cleared by the next completed tick.
func (g *Gateway) checkStale() bool {
	if g.cfg.StaleAfter == 0 {
		return false
	}
	stale := int64(g.cfg.StaleAfter) * int64(g.cfg.TickInterval)
	if g.clock()-g.lastTickWall.Load() <= stale {
		return false
	}
	g.setDegraded(degradedStaleTicks)
	g.bound.Set(g.effectiveBound(g.raw.Load()))
	return true
}
