package cluster

import (
	"fmt"
	"math"

	"repro/internal/gateway"
)

// placeFor chooses a migration target, excluding the draining source and
// bypassing the preferred-instance hysteresis (a migration burst must not
// install the drain target as the sticky preference).
func (c *Cluster) placeFor(exclude int) int {
	c.placeMu.Lock()
	idx := c.placeLocked(exclude, false)
	c.placeMu.Unlock()
	return idx
}

// placeLocked implements the policies; the caller holds placeMu.
//
// Eligibility is tiered before any policy runs: draining instances never
// receive placements, and degraded instances (the PR 4 validity detector)
// are scored to the bottom — they form the fallback pool used only when no
// healthy instance exists, rather than being ejected outright.
func (c *Cluster) placeLocked(exclude int, usePreferred bool) int {
	healthy, degraded := c.poolBuf[:0], c.degBuf[:0]
	for i, in := range c.instances {
		if i == exclude || InstanceState(in.state.Load()) != StateActive {
			continue
		}
		if deg, _ := in.g.Degraded(); deg {
			degraded = append(degraded, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	pool := healthy
	if len(pool) == 0 {
		pool = degraded
	}
	if len(pool) == 0 {
		return -1
	}

	switch c.cfg.Policy {
	case PlaceRoundRobin:
		pick := pool[0]
		for _, i := range pool {
			if i > c.rr {
				pick = i
				break
			}
		}
		c.rr = pick
		return pick

	case PlaceWeighted:
		// Smooth weighted round-robin: credits grow by headroom (floored
		// at one unit so a saturated instance still cycles) and the
		// largest credit wins, paying back the round total.
		total := 0.0
		best, bestCredit := -1, math.Inf(-1)
		for _, i := range pool {
			w := c.instances[i].headroom()
			if w < 0 {
				w = 0
			}
			w++
			c.credit[i] += w
			total += w
			if c.credit[i] > bestCredit {
				best, bestCredit = i, c.credit[i]
			}
		}
		c.credit[best] -= total
		return best
	}

	// Least-loaded: among the pool, prefer the warmed tier (instances
	// whose estimator has been valid for warmupTicks consecutive ticks) so a
	// cold estimator's optimistic headroom doesn't siphon the fleet.
	tier := pool
	warmed := c.warmBuf[:0]
	for _, i := range pool {
		if c.instances[i].warm.Load() >= warmupTicks {
			warmed = append(warmed, i)
		}
	}
	if len(warmed) > 0 {
		tier = warmed
	}
	best, bestScore := tier[0], c.instances[tier[0]].headroom()
	for _, i := range tier[1:] {
		if s := c.instances[i].headroom(); s > bestScore {
			best, bestScore = i, s
		}
	}
	// Cold-start escape: an instance with no flows can never warm (the
	// estimator needs at least two), so warmth gating alone would starve
	// it forever. A cold instance takes the placement when its
	// conservatively charged headroom (one capacity unit per flow) leads
	// the warmed tier's best by more than the hysteresis margin — enough
	// flows to start measuring, without letting an unmeasured estimator's
	// optimism siphon the fleet.
	if len(warmed) > 0 && len(warmed) < len(pool) {
		margin := hysteresis * c.instances[best].capacity
		for _, i := range pool {
			if c.instances[i].warm.Load() >= warmupTicks {
				continue
			}
			if s := c.instances[i].headroom(); s > bestScore+margin {
				best, bestScore = i, s
			}
		}
	}
	if usePreferred {
		if p := c.preferred; p >= 0 && p != best && contains(tier, p) {
			// The challenger must lead the incumbent by more than
			// hysteresis × (incumbent capacity) to displace it.
			if bestScore-c.instances[p].headroom() <= hysteresis*c.instances[p].capacity {
				return p
			}
		}
		c.preferred = best
	}
	return best
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
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

// targetScratch is AdmitBatch's pooled per-item target slice.
type targetScratch struct{ targets []int }

// forRuns calls fn once per maximal run targets[lo:hi] of one value, in
// order.
func forRuns(targets []int, fn func(t, lo, hi int)) {
	for lo, i := 0, 1; i <= len(targets); i++ {
		if i < len(targets) && targets[i] == targets[lo] {
			continue
		}
		fn(targets[lo], lo, i)
		lo = i
	}
}

// AdmitBatch decides a batch of admission requests, appending one Decision
// per request to dst and returning the extended slice — the cluster face
// of gateway.AdmitBatch. The whole batch is placed first, against the
// headroom at its start: every valid item to a fresh placement, and an
// invalid rate, which decides nowhere, rides the instance the batch is
// already talking to (any instance phrases the canonical refusal), or the
// preferred instance when there is none. Then contiguous same-instance
// runs are flushed through the instance's AdmitBatch, whose lookup in the
// shared flow table refuses a flow active on any instance as a duplicate,
// so a cluster of one forwards the whole batch in a single call and is
// decision- and instrumentation-identical to a bare gateway. Items that
// cannot be admitted anywhere (every instance draining) are refused with
// ReasonCapacity without touching an instance — an active flow included.
func (c *Cluster) AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error) {
	if len(ids) != len(rates) {
		return dst, fmt.Errorf("cluster: batch length mismatch: %d ids, %d rates", len(ids), len(rates))
	}
	if len(ids) == 0 {
		return dst, nil
	}
	sc, _ := c.batchPool.Get().(*targetScratch)
	if sc == nil {
		sc = new(targetScratch)
	}
	sc.targets = c.place(ids, rates, sc.targets[:0])
	forRuns(sc.targets, func(t, lo, hi int) {
		if t < 0 {
			for j := lo; j < hi; j++ {
				dst = append(dst, gateway.Decision{Reason: gateway.ReasonCapacity})
			}
			return
		}
		// The instance's only error is a length mismatch, which equal
		// sub-slices of the checked inputs cannot produce.
		dst, _ = c.instances[t].g.AdmitBatch(ids[lo:hi], rates[lo:hi], dst)
	})
	c.batchPool.Put(sc)
	return dst, nil
}

// place appends to targets the instance that decides each item of an
// admission batch (-1: every instance is draining), all under one hold of
// placeMu. No row is read here: the deciding instance refuses an active
// flow under its shard lock.
func (c *Cluster) place(ids []uint64, rates []float64, targets []int) []int {
	c.placeMu.Lock()
	last := -1
	for i := range ids {
		var t int
		switch {
		case gateway.ValidAdmitRate(rates[i]):
			t = c.placeLocked(-1, true)
		case last >= 0:
			t = last
		default:
			t = max(c.preferred, 0)
		}
		targets = append(targets, t)
		if t >= 0 {
			last = t
		}
	}
	c.placeMu.Unlock()
	return targets
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
