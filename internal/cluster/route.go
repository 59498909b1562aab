package cluster

import (
	"fmt"
	"math"

	"repro/internal/gateway"
)

// place chooses an instance for a new flow under the configured policy.
// Returns -1 when no instance accepts placements (all draining).
func (c *Cluster) place() int {
	c.placeMu.Lock()
	idx := c.placeLocked(-1, true)
	c.placeMu.Unlock()
	return idx
}

// placeFor chooses a migration target, excluding the draining source and
// bypassing the preferred-instance hysteresis (a migration burst must not
// install the drain target as the sticky preference).
func (c *Cluster) placeFor(exclude int) int {
	c.placeMu.Lock()
	idx := c.placeLocked(exclude, false)
	c.placeMu.Unlock()
	return idx
}

// peek returns the incumbent preferred instance without advancing any
// policy state — the target for requests that cannot result in an
// admission (invalid rates) but still need an instance to phrase the
// refusal.
func (c *Cluster) peek() int {
	c.placeMu.Lock()
	p := c.preferred
	c.placeMu.Unlock()
	if p < 0 {
		p = 0
	}
	return p
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
	// whose estimator has been valid for Warmup consecutive ticks) so a
	// cold estimator's optimistic headroom doesn't siphon the fleet.
	tier := pool
	warmed := c.warmBuf[:0]
	for _, i := range pool {
		if c.instances[i].warm.Load() >= int64(c.cfg.Warmup) {
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
		margin := c.cfg.Hysteresis * c.instances[best].capacity
		for _, i := range pool {
			if c.instances[i].warm.Load() >= int64(c.cfg.Warmup) {
				continue
			}
			if s := c.instances[i].headroom(); s > bestScore+margin {
				best, bestScore = i, s
			}
		}
	}
	if usePreferred {
		if p := c.preferred; p >= 0 && p != best && contains(tier, p) {
			// Hysteresis: the challenger must lead the incumbent by more
			// than Hysteresis × (incumbent capacity) to displace it.
			if bestScore-c.instances[p].headroom() <= c.cfg.Hysteresis*c.instances[p].capacity {
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

// Admit requests admission for one flow: route to the pinned owner if the
// flow is already placed, otherwise place and pin it. The decision contract
// matches gateway.Admit — a capacity refusal (including "every instance is
// draining") is a Decision, not an error; errors indicate invalid input.
func (c *Cluster) Admit(flowID uint64, rate float64) (gateway.Decision, error) {
	idx, tentative := c.resolve(flowID, rate, -1)
	if idx < 0 {
		return gateway.Decision{Reason: gateway.ReasonCapacity}, nil
	}
	d, err := c.instances[idx].g.Admit(flowID, rate)
	c.settle(flowID, idx, tentative, d.Admitted)
	return d, err
}

// resolve names the instance that decides flowID's admission: the flow's
// pinned owner (which also detects duplicates), else a fresh placement
// recorded as a tentative pin — tentative reports that this call wrote it,
// so racing admissions of one flow agree on one owner and only the writer
// may take the pin back. An invalid rate decides nowhere and is never
// pinned: it goes to last, the instance the caller's batch is already
// talking to (any instance phrases the canonical refusal), or to the
// preferred instance when there is none. -1 means every instance is
// draining.
func (c *Cluster) resolve(flowID uint64, rate float64, last int) (idx int, tentative bool) {
	if idx, ok := c.pins.get(flowID); ok {
		return idx, false
	}
	if !(rate > 0) || math.IsInf(rate, 0) {
		if last < 0 {
			last = c.peek()
		}
		return last, false
	}
	if idx = c.place(); idx < 0 {
		return -1, false
	}
	return c.pins.putIfAbsent(flowID, idx)
}

// settle closes the admission resolve opened on instance idx. An admission
// counts as a placement, and one that came through a pin somebody else
// wrote re-asserts it: that pin may have been the last trace of an earlier
// life of the flow, dropped by the tick that expired it while this
// admission was in flight. A refusal takes back the tentative pin this call
// wrote — unless the flow is active there after all (a racing admission
// through the same pin won).
func (c *Cluster) settle(flowID uint64, idx int, tentative, admitted bool) {
	in := c.instances[idx]
	switch {
	case admitted:
		in.placements.Add(1)
		if !tentative {
			c.pins.putIfAbsent(flowID, idx)
		}
	case tentative && !in.g.Contains(flowID):
		c.pins.delIf(flowID, idx)
	}
}

// batchScratch is the pooled target-resolution scratch for the batched
// paths.
type batchScratch struct {
	targets   []int
	tentative []bool
}

func (c *Cluster) getScratch(n int) *batchScratch {
	sc, _ := c.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = new(batchScratch)
	}
	if cap(sc.targets) < n {
		sc.targets = make([]int, 0, n)
		sc.tentative = make([]bool, 0, n)
	}
	sc.targets, sc.tentative = sc.targets[:0], sc.tentative[:0]
	return sc
}

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
// of gateway.AdmitBatch. Each item is resolved and settled exactly as by
// Admit; in between, contiguous same-instance runs are flushed through the
// owning instance's AdmitBatch, so a cluster of one forwards the whole
// batch in a single call and is decision- and instrumentation-identical to
// a bare gateway. Invalid rates ride the current run so they don't split
// it. Items that cannot be admitted anywhere (every instance draining) are
// refused with ReasonCapacity without touching an instance.
func (c *Cluster) AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error) {
	if len(ids) != len(rates) {
		return dst, fmt.Errorf("cluster: batch length mismatch: %d ids, %d rates", len(ids), len(rates))
	}
	if len(ids) == 0 {
		return dst, nil
	}
	sc := c.getScratch(len(ids))
	last := -1
	for i, id := range ids {
		idx, tentative := c.resolve(id, rates[i], last)
		sc.targets = append(sc.targets, idx)
		sc.tentative = append(sc.tentative, tentative)
		if idx >= 0 {
			last = idx
		}
	}

	base := len(dst)
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
	for i, id := range ids {
		if t := sc.targets[i]; t >= 0 {
			c.settle(id, t, sc.tentative[i], dst[base+i].Admitted)
		}
	}
	c.batchPool.Put(sc)
	return dst, nil
}

// notActiveError is a routed operation's error for a flow with no pin; like
// the gateway's, its text is built only on demand.
type notActiveError uint64

func (id notActiveError) Error() string {
	return fmt.Sprintf("cluster: flow %d is not active", uint64(id))
}

// onOwner runs op on the instance flowID is pinned to and applies the one
// unpin rule: the pin goes, if it still points at that instance (so a
// stale unpin never clobbers a re-placement), once the flow has ended
// there — op was its departure, or the instance no longer knows it.
//
// A drain may repin the flow between the pin read and op; op then fails at
// the source while the flow lives on at the migration target. So a failed
// op re-reads the pin and, if it moved, follows it: without that a Depart
// through the window is answered not-active and, with leases off, nothing
// ever reclaims the target copy. A pin moves once per Drain, which bounds
// the loop.
func (c *Cluster) onOwner(flowID uint64, departs bool, op func(*gateway.Gateway) error) error {
	idx, ok := c.pins.get(flowID)
	if !ok {
		return notActiveError(flowID)
	}
	for {
		err := op(c.instances[idx].g)
		if err != nil {
			if moved, ok := c.pins.get(flowID); ok && moved != idx {
				idx = moved
				continue
			}
		}
		if departs || err != nil {
			c.pins.delIf(flowID, idx)
		}
		return err
	}
}

// UpdateRate routes a rate report to the flow's owning instance. Rates are
// validated before routing so an invalid rate is never mistaken for a
// not-active outcome.
func (c *Cluster) UpdateRate(flowID uint64, rate float64) error {
	if !(rate >= 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("cluster: rate %g must be non-negative and finite", rate)
	}
	return c.onOwner(flowID, false, func(g *gateway.Gateway) error { return g.UpdateRate(flowID, rate) })
}

// Touch routes a lease keepalive to the flow's owning instance.
func (c *Cluster) Touch(flowID uint64) error {
	return c.onOwner(flowID, false, func(g *gateway.Gateway) error { return g.Touch(flowID) })
}

// Depart removes an active flow from its owning instance and unpins it.
func (c *Cluster) Depart(flowID uint64) error {
	return c.onOwner(flowID, true, func(g *gateway.Gateway) error { return g.Depart(flowID) })
}

// DepartBatch removes a batch of flows, appending one result per id to dst
// (true = departed) and returning the extended slice — the cluster face of
// gateway.DepartBatch. Contiguous same-owner runs are flushed through the
// owning instance's DepartBatch; unpinned ids report not-active without
// touching any instance. Every pin the batch routed through is then
// dropped under the rule of onOwner — including its retry: an id its owner
// did not know, whose pin a drain has moved meanwhile, departs again
// through the new pin.
func (c *Cluster) DepartBatch(ids []uint64, dst []bool) []bool {
	if len(ids) == 0 {
		return dst
	}
	sc := c.getScratch(len(ids))
	for _, id := range ids {
		idx, ok := c.pins.get(id)
		if !ok {
			idx = -1
		}
		sc.targets = append(sc.targets, idx)
	}
	base := len(dst)
	forRuns(sc.targets, func(t, lo, hi int) {
		if t < 0 {
			for j := lo; j < hi; j++ {
				dst = append(dst, false)
			}
			return
		}
		dst = c.instances[t].g.DepartBatch(ids[lo:hi], dst)
	})
	for i, id := range ids {
		t := sc.targets[i]
		if t < 0 {
			continue
		}
		if !dst[base+i] {
			if moved, ok := c.pins.get(id); ok && moved != t {
				dst[base+i] = c.Depart(id) == nil
				continue
			}
		}
		c.pins.delIf(id, t)
	}
	c.batchPool.Put(sc)
	return dst
}
