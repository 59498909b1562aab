package cluster

import (
	"fmt"

	"repro/internal/gateway"
)

// candidate is one instance a placement may choose, as scored when the
// placement began.
type candidate struct {
	i        int
	headroom float64
	warm     bool // the estimator has been valid for warmupTicks ticks
	degraded bool
}

// eligible appends to pool, in index order, the instances a placement may
// choose, excluding exclude. Eligibility is tiered before any scoring:
// draining instances never receive placements, and degraded instances (the
// gateway's degradation watchdogs) are scored to the bottom — they form the
// fallback pool used only when no healthy instance exists, rather than
// being ejected outright. Every input is a per-instance atomic, each read once,
// so a placement scores one consistent snapshot. Callers pass a stack array
// of eight: a larger fleet's snapshot spills to the heap, one allocation
// per placement.
func (c *Cluster) eligible(exclude int, pool []candidate) []candidate {
	healthy := 0
	for i, in := range c.instances {
		if i == exclude || InstanceState(in.state.Load()) != StateActive {
			continue
		}
		deg, _ := in.g.Degraded()
		if !deg {
			healthy++
		}
		pool = append(pool, candidate{i: i, headroom: in.headroom(), warm: in.warm.Load() >= warmupTicks, degraded: deg})
	}
	if healthy == 0 || healthy == len(pool) {
		return pool
	}
	n := 0
	for _, k := range pool {
		if !k.degraded {
			pool[n] = k
			n++
		}
	}
	return pool[:n]
}

// leastLoaded chooses the instance a placement goes to (-1: none is
// eligible). It reads only per-instance atomics and the incumbent, which
// it stores only when the incumbent changes, so it takes no lock:
// placements racing on two cores may each install their own best, and
// either is a valid incumbent. A migration passes usePreferred false: it
// bypasses the incumbent's hysteresis, so a migration burst cannot install
// the drain target as the sticky preference.
func (c *Cluster) leastLoaded(exclude int, usePreferred bool) int {
	var buf [8]candidate
	pool := c.eligible(exclude, buf[:0])
	// Among the pool, prefer the warmed tier (instances whose estimator
	// has been valid for warmupTicks consecutive ticks) so a cold
	// estimator's optimistic headroom doesn't siphon the fleet.
	warmed := 0
	for _, k := range pool {
		if k.warm {
			warmed++
		}
	}
	inTier := func(k candidate) bool { return k.warm || warmed == 0 }
	best := -1
	for j, k := range pool {
		if inTier(k) && (best < 0 || k.headroom > pool[best].headroom) {
			best = j
		}
	}
	if best < 0 {
		return -1
	}
	bestScore := pool[best].headroom
	// Cold-start escape: an instance with no flows can never warm (the
	// estimator needs at least two), so warmth gating alone would starve
	// it forever. A cold instance takes the placement when its
	// conservatively charged headroom (one capacity unit per flow) leads
	// the warmed tier's best by more than the hysteresis margin — enough
	// flows to start measuring, without letting an unmeasured estimator's
	// optimism siphon the fleet.
	if warmed > 0 {
		margin := hysteresis * c.instances[pool[best].i].capacity
		for j, k := range pool {
			if !k.warm && k.headroom > bestScore+margin {
				best, bestScore = j, k.headroom
			}
		}
	}
	pick := pool[best].i
	if !usePreferred {
		return pick
	}
	p := int(c.preferred.Load())
	if p == pick {
		return pick
	}
	for _, k := range pool {
		// The challenger must lead the incumbent by more than
		// hysteresis × (incumbent capacity) to displace it.
		if k.i == p && inTier(k) && bestScore-k.headroom <= hysteresis*c.instances[p].capacity {
			return p
		}
	}
	c.preferred.Store(int64(pick))
	return pick
}

// Admit requests admission for one flow: place it and decide it there,
// refusing a flow active anywhere in the fleet as a duplicate — AdmitBatch
// with one item. The decision contract matches gateway.Admit — a capacity refusal
// (including "every instance is draining") is a Decision, not an error;
// errors indicate invalid input.
func (c *Cluster) Admit(flowID uint64, rate float64) (gateway.Decision, error) {
	var buf [1]gateway.Decision
	ds, _ := c.AdmitBatch([]uint64{flowID}, []float64{rate}, buf[:0])
	switch d := ds[0]; d.Reason {
	case gateway.ReasonInvalidRate:
		return d, fmt.Errorf("cluster: declared rate %g must be in (0, %d]", rate, gateway.MaxRate)
	case gateway.ReasonDuplicate:
		return d, fmt.Errorf("cluster: flow %d is already active", flowID)
	default:
		return d, nil
	}
}

// AdmitBatch decides a batch of admission requests, appending one Decision
// per request to dst and returning the extended slice — the cluster face
// of gateway.AdmitBatch. Placement depends only on the scores, which
// deciding nothing leaves unchanged, so every valid item goes where the
// first one is placed: the batch is placed once, without a lock, against
// the headroom at its start. Invalid items before the first valid one,
// which decide nowhere, ride the incumbent from before the placement (any
// instance phrases the canonical refusal). Each part is decided by its
// instance's AdmitBatch, whose lookup in the shared flow table refuses a
// flow active on any instance as a duplicate, so a cluster of one forwards
// the whole batch in a single call and is decision- and
// instrumentation-identical to a bare gateway. Items that cannot be
// admitted anywhere (every instance draining) are refused with
// ReasonCapacity without touching an instance — an active flow included.
func (c *Cluster) AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error) {
	if len(ids) != len(rates) {
		return dst, fmt.Errorf("cluster: batch length mismatch: %d ids, %d rates", len(ids), len(rates))
	}
	if len(ids) == 0 {
		return dst, nil
	}
	prev := max(int(c.preferred.Load()), 0)
	first := 0
	for first < len(rates) && !gateway.ValidAdmitRate(rates[first]) {
		first++
	}
	if first == len(rates) {
		return c.admitAt(prev, ids, rates, dst), nil
	}
	t := c.leastLoaded(-1, true)
	if t == prev {
		return c.admitAt(t, ids, rates, dst), nil
	}
	if first > 0 {
		dst = c.admitAt(prev, ids[:first], rates[:first], dst)
	}
	if t >= 0 {
		return c.admitAt(t, ids[first:], rates[first:], dst), nil
	}
	// Every instance is draining: the valid items are refused, and the
	// invalid ones still ride the incumbent.
	for i := first; i < len(ids); i++ {
		if gateway.ValidAdmitRate(rates[i]) {
			dst = c.admitAt(-1, ids[i:i+1], rates[i:i+1], dst)
		} else {
			dst = c.admitAt(prev, ids[i:i+1], rates[i:i+1], dst)
		}
	}
	return dst, nil
}

// admitAt decides a run of items at instance t, or refuses each with
// ReasonCapacity when t is -1 (every instance is draining).
func (c *Cluster) admitAt(t int, ids []uint64, rates []float64, dst []gateway.Decision) []gateway.Decision {
	if t < 0 {
		for range ids {
			dst = append(dst, gateway.Decision{Reason: gateway.ReasonCapacity})
		}
		return dst
	}
	// The instance's only error is a length mismatch, which equal
	// sub-slices of the checked inputs cannot produce.
	dst, _ = c.instances[t].g.AdmitBatch(ids, rates, dst)
	return dst
}

// notActiveError is a routed operation's error for a flow the fleet does
// not hold; like the gateway's, its text is built only on demand.
type notActiveError uint64

func (id notActiveError) Error() string {
	return fmt.Sprintf("cluster: flow %d is not active", uint64(id))
}

// UpdateRate routes a rate report to the flow's owning instance. Rates are
// checked with gateway.ValidUpdateRate before routing so an invalid rate is
// never mistaken for a not-active outcome; like the gateway's, a refused
// rate's error wraps gateway.ErrInvalidRate.
func (c *Cluster) UpdateRate(flowID uint64, rate float64) error {
	if !gateway.ValidUpdateRate(rate) {
		return fmt.Errorf("cluster: rate %g: %w", rate, gateway.ErrInvalidRate)
	}
	active, err := c.fleet.UpdateRate(flowID, rate)
	if err == nil && !active {
		return notActiveError(flowID)
	}
	return err
}

// Touch routes a lease keepalive to the flow's owning instance.
func (c *Cluster) Touch(flowID uint64) error {
	if !c.fleet.Touch(flowID) {
		return notActiveError(flowID)
	}
	return nil
}

// Depart removes an active flow from its owning instance.
func (c *Cluster) Depart(flowID uint64) error {
	if !c.fleet.Depart(flowID) {
		return notActiveError(flowID)
	}
	return nil
}

// DepartBatch removes a batch of flows, appending one result per id to dst
// (true = departed) and returning the extended slice — the cluster face of
// gateway.DepartBatch, each id departed in order exactly as by Depart.
func (c *Cluster) DepartBatch(ids []uint64, dst []bool) []bool {
	return c.fleet.DepartBatch(ids, dst)
}
