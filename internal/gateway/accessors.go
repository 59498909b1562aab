package gateway

// Accessors used by the cluster router, which scores instances by headroom
// (c − M·μ̂) and migrates an instance's flows on drain. They expose only
// what the router needs — the cheap atomics without a full Stats
// aggregation, and a point lookup / iteration over the gateway's own rows.

// Active returns the current admitted-flow count (the CAS-reserved
// admission invariant counter), without touching any shard lock.
func (g *Gateway) Active() int64 { return g.active.Load() }

// Capacity returns the configured link capacity c.
func (g *Gateway) Capacity() float64 { return g.cfg.Capacity }

// Contains reports whether flowID is currently active on this gateway.
func (g *Gateway) Contains(flowID uint64) bool {
	r := &g.fleet.rows[g.fleet.shardIndex(flowID)]
	r.mu.Lock()
	e := r.rows.Get(flowID)
	ok := e != nil && g.owns(e)
	r.mu.Unlock()
	return ok
}

// ForEachFlow calls fn for every flow active on this gateway with its
// current rate as the gateway carries it, a whole number of units u (see
// MaxRate). Each row shard is snapshotted under its lock and fn runs
// outside the lock, so fn may call back into the gateway; the iteration is
// a point-in-time view per shard, not a global atomic snapshot. Iteration
// order is unspecified (callers wanting determinism must collect and
// sort).
func (g *Gateway) ForEachFlow(fn func(flowID uint64, rate float64)) {
	type pair struct {
		id   uint64
		rate float64
	}
	var buf []pair
	for k := range g.fleet.rows {
		r := &g.fleet.rows[k]
		r.mu.Lock()
		buf = buf[:0]
		r.rows.Range(func(id uint64, e *row) {
			if g.owns(e) {
				buf = append(buf, pair{id, float64(e.q()) * unit})
			}
		})
		r.mu.Unlock()
		for _, p := range buf {
			fn(p.id, p.rate)
		}
	}
}
