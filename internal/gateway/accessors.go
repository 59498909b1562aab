package gateway

// Accessors used by the cluster router, which scores instances by headroom
// (c − M·μ̂) and migrates pinned flows on drain. They expose only what the
// router needs — the cheap atomics without a full Stats aggregation, and a
// point lookup / iteration over the live flow table.

// Active returns the current admitted-flow count (the CAS-reserved
// admission invariant counter), without touching any shard lock.
func (g *Gateway) Active() int64 { return g.active.Load() }

// Capacity returns the configured link capacity c.
func (g *Gateway) Capacity() float64 { return g.cfg.Capacity }

// Contains reports whether flowID is currently active on this gateway.
func (g *Gateway) Contains(flowID uint64) bool {
	s := g.shardFor(flowID)
	s.lock.Lock()
	ok := s.flows.Get(flowID) != nil
	s.lock.Unlock()
	return ok
}

// ForEachFlow calls fn for every active flow with its current rate as the
// gateway carries it, a whole number of units u (see MaxRate). Each shard
// is snapshotted under its lock and fn runs outside the lock, so fn may
// call back into the gateway; the iteration is a point-in-time view per
// shard, not a global atomic snapshot. Iteration order is unspecified
// (callers wanting determinism must collect and sort).
func (g *Gateway) ForEachFlow(fn func(flowID uint64, rate float64)) {
	type pair struct {
		id   uint64
		rate float64
	}
	var buf []pair
	for i := range g.shards {
		s := &g.shards[i]
		s.lock.Lock()
		buf = buf[:0]
		s.flows.Range(func(id uint64, e *flowEntry) { buf = append(buf, pair{id, float64(e.q) * unit}) })
		s.lock.Unlock()
		for _, p := range buf {
			fn(p.id, p.rate)
		}
	}
}
