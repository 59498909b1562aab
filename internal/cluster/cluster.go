// Package cluster composes N gateway instances — each its own link,
// estimator and MBAC bound — into one fleet behind a routing layer, the
// regime of Leskelä's distributed-MBAC stability analysis: admission
// decisions stay purely local to an instance, and the router only chooses
// *which* instance a new flow lands on.
//
// # Placement
//
// Each instance is scored by its headroom c − M·μ̂ — capacity minus the
// live admitted-flow count times the instance's last estimated per-flow
// mean. The placement policy is pluggable (least-loaded by headroom,
// smooth-weighted by headroom, or round-robin), and two dampers keep a
// marginally-better instance from churning placements: an instance is only
// *preferred* once its estimator has been warmed for warmupTicks (3)
// consecutive ticks, and the incumbent preferred instance is only displaced
// when a challenger's headroom leads by more than hysteresis (0.05) × c.
//
// # Pinning
//
// Admission is stateful: an admitted flow's UpdateRate/Touch/Depart must
// reach the instance that owns it. The instances share one flow table (a
// gateway.Fleet) in which a flow's row carries its owner, so the pin is
// the row: an admission anywhere refuses a flow some instance holds, and
// each routed operation finds the row once and acts on its owner in one
// critical section. The row is written where the flow is admitted or
// migrated and removed where it ends — departure, or the owner's lease
// sweep — so no pin can outlive, or be missing for, an admitted flow.
//
// # Drain and degradation
//
// Drain(i) marks an instance draining — no new placements — and migrates
// its flows to the rest of the fleet: the target adopts the row, which
// changes owner in one critical section, so an admitted flow is never
// lost or doubled mid-migration; flows the fleet has no room for stay on
// the draining instance and depart or lease-expire naturally. A *degraded*
// instance (the PR 4 validity detector) is different: it keeps serving but
// is scored below every healthy instance, receiving new placements only
// when no healthy instance exists.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enum"
	"repro/internal/gateway"
)

// PlacementPolicy selects how the router chooses an instance for a new
// flow.
type PlacementPolicy int

const (
	// PlaceLeastLoaded: the instance with the best headroom c − M·μ̂,
	// damped by warmup and hysteresis. The default.
	PlaceLeastLoaded PlacementPolicy = iota
	// PlaceWeighted: smooth weighted round-robin with weights proportional
	// to headroom — spreads placements instead of concentrating them on
	// the single best instance.
	PlaceWeighted
	// PlaceRoundRobin: rotate over the eligible instances, ignoring
	// headroom.
	PlaceRoundRobin
	placementPolicyEnd // sentinel: PlacementPolicyNames names every constant above
)

// PlacementPolicyNames is the placement policy name table.
var PlacementPolicyNames = enum.New(PlaceLeastLoaded, placementPolicyEnd,
	"least-loaded", "weighted", "round-robin")

// String implements fmt.Stringer.
func (p PlacementPolicy) String() string { return PlacementPolicyNames.String(p) }

// ParsePlacementPolicy is the inverse of PlacementPolicy.String, for CLI
// flags and scenario configs.
func ParsePlacementPolicy(s string) (PlacementPolicy, error) {
	return PlacementPolicyNames.Parse("cluster: unknown placement policy", s)
}

// InstanceState is an instance's routing state: active instances receive
// new placements, draining ones only serve their remaining pinned flows.
type InstanceState int

const (
	// StateActive: the instance receives new placements.
	StateActive InstanceState = iota
	// StateDraining: no new placements; pinned flows are migrated away or
	// allowed to depart/lease-expire.
	StateDraining
	instanceStateEnd // sentinel: instanceStateNames names every constant above
)

var instanceStateNames = enum.New(StateActive, instanceStateEnd, "active", "draining")

// String implements fmt.Stringer.
func (s InstanceState) String() string { return instanceStateNames.String(s) }

// Config parameterizes a Cluster.
type Config struct {
	// Instances holds one gateway configuration per instance (required,
	// at least one). Each needs its own Estimator — estimators are
	// stateful and owned by their gateway after New.
	Instances []gateway.Config

	// Policy selects the placement policy (default least-loaded).
	Policy PlacementPolicy

	// TickInterval is the wall-clock measurement period used by Run
	// (default 100ms). Virtual-clock users call Tick directly.
	TickInterval time.Duration
}

const (
	// warmupTicks is the number of consecutive valid-measurement ticks
	// before an instance joins the preferred placement tier. Before warmup
	// an instance still receives placements when no warmed instance is
	// eligible.
	warmupTicks = 3

	// hysteresis damps preferred-instance churn under the least-loaded
	// policy: a challenger displaces the incumbent only when its headroom
	// leads by more than hysteresis × (incumbent capacity).
	hysteresis = 0.05
)

// instance is one gateway plus the router's per-instance state: routing
// state, the tick-cached scoring mean, and migration counters. Placement
// reads the scoring fields of every instance on every placement, so no
// field here is written per admission (TestInstanceHotWordLayout): the
// instance's placement count is derived, Admitted − migratedIn, and exact
// because a migration's target admission and its counters cannot fail
// apart (migrateFrom).
type instance struct {
	g        *gateway.Gateway
	capacity float64

	state atomic.Int32 // InstanceState

	// muBits caches the effective per-flow mean used for scoring (float64
	// bits), written by Tick: the estimator's μ̂ when valid, else the
	// last measured aggregate divided by the measured flow count, else 0.
	muBits atomic.Uint64
	// warm counts consecutive valid-measurement ticks.
	warm atomic.Int64

	migratedIn  atomic.Int64
	migratedOut atomic.Int64
}

// muEff returns the cached scoring mean (0 when unknown).
func (in *instance) muEff() float64 { return math.Float64frombits(in.muBits.Load()) }

// headroom is the placement score c − M·μ̂: capacity minus the live
// admitted count times the cached per-flow mean. Before any measurement
// each unknown flow is charged one capacity unit, so a cold fleet still
// spreads by active count instead of piling onto one instance.
func (in *instance) headroom() float64 {
	mu := in.muEff()
	if !(mu > 0) {
		mu = 1
	}
	return in.capacity - float64(in.g.Active())*mu
}

// Cluster is a fleet of gateway instances behind a pinning router.
// Construct with New; all methods are safe for concurrent use.
//
// Fields are grouped by who writes them (TestClusterHotWordLayout): every
// routed op reads instances and fleet, which only New writes; every
// placement writes the placement state, which sits last, at least a cache
// line past them, behind fields that ticks and drains write.
type Cluster struct {
	cfg       Config
	instances []*instance
	fleet     *gateway.Fleet // the instances' shared flow table

	// batchPool recycles AdmitBatch's target scratch, keeping the batched
	// path allocation-free in steady state.
	batchPool sync.Pool

	// tickMu serializes measurement ticks across the fleet.
	tickMu sync.Mutex

	migrations        atomic.Int64
	migrationFailures atomic.Int64
	drains            atomic.Int64

	// placeMu guards the placement-policy state below. Scoring reads the
	// per-instance atomics, so holding it is O(instances) arithmetic, and
	// it is a leaf: nothing is locked under it. A shard lock may be held
	// when it is taken, never the reverse.
	placeMu   sync.Mutex
	preferred int       // least-loaded incumbent (-1 before the first placement)
	rr        int       // round-robin cursor
	credit    []float64 // smooth-weighted round-robin credits
	poolBuf   []int     // eligibility scratch
	degBuf    []int
	warmBuf   []int
}

// New validates the configuration and returns a cluster whose instances
// have each been bootstrapped by one measurement tick at virtual time zero
// (gateway.New's contract).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Instances) == 0 {
		return nil, fmt.Errorf("cluster: at least one instance is required")
	}
	if !PlacementPolicyNames.Valid(cfg.Policy) {
		return nil, fmt.Errorf("cluster: unknown placement policy %d", int(cfg.Policy))
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 100 * time.Millisecond
	}
	c := &Cluster{
		cfg:       cfg,
		preferred: -1,
		rr:        -1,
		credit:    make([]float64, len(cfg.Instances)),
		poolBuf:   make([]int, 0, len(cfg.Instances)),
		degBuf:    make([]int, 0, len(cfg.Instances)),
		warmBuf:   make([]int, 0, len(cfg.Instances)),
		fleet:     new(gateway.Fleet),
	}
	shards := gateway.ShardCount(cfg.Instances[0].Shards)
	for i, gc := range cfg.Instances {
		if n := gateway.ShardCount(gc.Shards); n != shards {
			return nil, fmt.Errorf("cluster: instance %d has %d shards, instance 0 has %d: every instance shares one flow table", i, n, shards)
		}
	}
	for i, gc := range cfg.Instances {
		g, err := c.fleet.Join(gc)
		if err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
		in := &instance{g: g, capacity: gc.Capacity}
		c.cacheMeasurement(in, g.Stats())
		c.instances = append(c.instances, in)
	}
	return c, nil
}

// Instances returns the fleet size.
func (c *Cluster) Instances() int { return len(c.instances) }

// Gateway returns instance i's gateway, for observability and tests.
func (c *Cluster) Gateway(i int) *gateway.Gateway { return c.instances[i].g }

// State returns instance i's routing state.
func (c *Cluster) State(i int) InstanceState { return InstanceState(c.instances[i].state.Load()) }

// cacheMeasurement refreshes an instance's scoring inputs from a tick
// snapshot: the effective per-flow mean and the warmup streak.
func (c *Cluster) cacheMeasurement(in *instance, st gateway.Stats) {
	mu := 0.0
	switch {
	case st.MeasurementOK && st.Mu > 0 && !math.IsInf(st.Mu, 0) && !math.IsNaN(st.Mu):
		mu = st.Mu
	case st.MeasuredFlows > 0 && st.AggregateRate > 0 && !math.IsInf(st.AggregateRate, 0):
		mu = st.AggregateRate / float64(st.MeasuredFlows)
	}
	in.muBits.Store(math.Float64bits(mu))
	if st.MeasurementOK {
		in.warm.Add(1)
	} else {
		in.warm.Store(0)
	}
}

// Tick performs one measurement cycle at virtual time now on every
// instance, in index order, refreshing the router's scoring caches, and
// returns the per-instance snapshots in the same order. Each instance's
// lease sweep removes the rows it reclaims, pin and all.
func (c *Cluster) Tick(now float64) []gateway.Stats {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	sts := make([]gateway.Stats, len(c.instances))
	for i, in := range c.instances {
		st := in.g.Tick(now)
		c.cacheMeasurement(in, st)
		sts[i] = st
	}
	return sts
}

// Run ticks the cluster on the configured wall-clock interval until ctx is
// done, mapping wall time to virtual seconds since Run started, with each
// instance's tick-staleness watchdog (gateway.Watch) beside it. It blocks;
// run it in its own goroutine.
func (c *Cluster) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.TickInterval)
	defer ticker.Stop()
	start := time.Now()
	for _, in := range c.instances {
		go in.g.Watch(ctx)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.Tick(time.Since(start).Seconds())
		}
	}
}

// Stats returns the fleet-wide aggregate: lifecycle counters summed across
// instances (so the Admitted = Departed + Expired + Active identity holds
// for the whole fleet — a migration is one admission at the target plus
// one departure at the source), bounds and aggregate rates summed, and the
// measurement moments pooled over the measured flows: μ̄ = Σnᵢμᵢ/N and
// σ² = Σnᵢ(σᵢ² + μᵢ²)/N − μ̄², so the spread between the instances' means
// counts as well as the spread within each. A cluster of one returns its
// single instance's stats verbatim.
func (c *Cluster) Stats() gateway.Stats {
	if len(c.instances) == 1 {
		return c.instances[0].g.Stats()
	}
	var agg gateway.Stats
	var muW, sqW float64
	agg.MeasurementOK = true
	for _, in := range c.instances {
		st := in.g.Stats()
		agg.Active += st.Active
		agg.Admitted += st.Admitted
		agg.Rejected += st.Rejected
		agg.Departed += st.Departed
		agg.Expired += st.Expired
		agg.Admissible += st.Admissible
		agg.AggregateRate += st.AggregateRate
		agg.MeasuredFlows += st.MeasuredFlows
		n := float64(st.MeasuredFlows)
		muW += n * st.Mu
		sqW += n * (st.Sigma*st.Sigma + st.Mu*st.Mu)
		if st.Degraded {
			agg.Degraded = true
			if agg.DegradedReason == "" {
				agg.DegradedReason = st.DegradedReason
			}
		}
		if !st.MeasurementOK {
			agg.MeasurementOK = false
		}
		if st.LastTick > agg.LastTick {
			agg.LastTick = st.LastTick
		}
		if st.Ticks > agg.Ticks {
			agg.Ticks = st.Ticks
		}
	}
	if agg.MeasuredFlows > 0 {
		n := float64(agg.MeasuredFlows)
		agg.Mu = muW / n
		agg.Sigma = math.Sqrt(max(0, sqW/n-agg.Mu*agg.Mu))
	}
	return agg
}
