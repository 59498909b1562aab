package cluster

import (
	"fmt"
	"sort"

	"repro/internal/gateway"
)

// Drain transitions instance i from active to draining and migrates its
// flows onto the rest of the fleet. A drain is one-way: a draining
// instance never returns to placement.
//
// Draining stops new placements immediately (the router skips draining
// instances before it scores any); migration then walks the instance's
// rows in flow-ID order (deterministic under a virtual clock) and, for
// each flow, has the best non-draining instance adopt it: decide it as an
// admission and take over its row, in one critical section under the
// flow's shard lock, so no operation on the flow can fall between the
// steps and a refused admission leaves it where it was. Flows the rest of
// the fleet has no headroom for stay on the draining instance and keep
// being served there until they depart or lease-expire, so a drain never
// strands or drops an admitted flow; the caller may retry Drain to migrate
// stragglers as headroom opens up.
//
// Drain returns the number of flows migrated and the number left behind.
// Draining an already-draining instance is an error; Drain(i) with i out
// of range is an error.
func (c *Cluster) Drain(i int) (migrated, left int, err error) {
	if i < 0 || i >= len(c.instances) {
		return 0, 0, fmt.Errorf("cluster: instance %d out of range [0, %d)", i, len(c.instances))
	}
	src := c.instances[i]
	if !src.state.CompareAndSwap(int32(StateActive), int32(StateDraining)) {
		return 0, 0, fmt.Errorf("cluster: instance %d is already draining", i)
	}
	c.drains.Add(1)
	m, l := c.migrateFrom(i)
	return m, l, nil
}

// migrateFrom moves instance i's flows to the rest of the fleet, one
// critical section per flow (gateway.Adopt).
func (c *Cluster) migrateFrom(i int) (migrated, left int) {
	src := c.instances[i]
	type flow struct {
		id   uint64
		rate float64
	}
	var flows []flow
	src.g.ForEachFlow(func(id uint64, rate float64) {
		flows = append(flows, flow{id, rate})
	})
	sort.Slice(flows, func(a, b int) bool { return flows[a].id < flows[b].id })
	for _, f := range flows {
		t := c.leastLoaded(i, false)
		if t < 0 {
			c.migrationFailures.Add(1)
			left++
			continue
		}
		tgt := c.instances[t]
		switch d := tgt.g.Adopt(f.id, f.rate, src.g); {
		case d.Admitted:
			src.migratedOut.Add(1)
			tgt.migratedIn.Add(1)
			c.migrations.Add(1)
			migrated++
		case d.Reason != gateway.ReasonDuplicate:
			// No headroom: the flow stays where it is, on the draining
			// source.
			c.migrationFailures.Add(1)
			left++
		}
		// A duplicate is a flow that left the source since the walk.
	}
	return migrated, left
}
