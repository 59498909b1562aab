package cluster

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/gateway"
)

// refLeastLoaded is least-loaded placement as it was when every item of a
// batch was placed in turn under the placement lock: pool, tier and
// warmed tier built as slices, every headroom read where it is used. pref
// stands in for the cluster's incumbent; nil bypasses it, as a migration
// does.
func refLeastLoaded(c *Cluster, exclude int, pref *int) int {
	var healthy, degraded []int
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
	tier := pool
	var warmed []int
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
	if pref != nil {
		inTier := false
		for _, i := range tier {
			inTier = inTier || i == *pref
		}
		if p := *pref; p >= 0 && p != best && inTier &&
			bestScore-c.instances[p].headroom() <= hysteresis*c.instances[p].capacity {
			return p
		}
		*pref = best
	}
	return best
}

// refAdmitBatch is the least-loaded AdmitBatch as it was: every item
// placed in turn — a valid one afresh, an invalid one on the instance the
// batch last went to, or the incumbent when there is none — then
// same-instance runs decided by the instance.
func refAdmitBatch(c *Cluster, pref *int, ids []uint64, rates []float64) []gateway.Decision {
	var targets []int
	last := -1
	for _, rate := range rates {
		var t int
		switch {
		case gateway.ValidAdmitRate(rate):
			t = refLeastLoaded(c, -1, pref)
		case last >= 0:
			t = last
		default:
			t = max(*pref, 0)
		}
		targets = append(targets, t)
		if t >= 0 {
			last = t
		}
	}
	var dst []gateway.Decision
	for lo, i := 0, 1; i <= len(ids); i++ {
		if i < len(ids) && targets[i] == targets[lo] {
			continue
		}
		dst = c.admitAt(targets[lo], ids[lo:i], rates[lo:i], dst)
		lo = i
	}
	return dst
}

// TestLeastLoadedPlacesBatchOnce drives two equal least-loaded clusters
// with the same random mixed batches — invalid rates before, between and
// after valid ones, duplicates, departures, ticks that warm and degrade
// instances, and spells with every instance draining — one through
// AdmitBatch, which places a batch once, the other through refAdmitBatch.
// Every Decision must match, Admissible and Active included (an invalid
// item's pair names the instance it rode), every admitted item of a batch
// must land on one instance, the incumbent must move only to that
// instance, and a migration's placement must match the reference too.
func TestLeastLoadedPlacesBatchOnce(t *testing.T) {
	build := func() *Cluster {
		cfg := Config{}
		for i, capacity := range []float64{30, 60, 45} {
			gc := testGatewayConfig(t, capacity, 0)
			if i == 2 {
				gc.StaleAfter = 1
				gc.Estimator = notOKEstimator{} // degrades once it holds two flows
			}
			cfg.Instances = append(cfg.Instances, gc)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	got, ref := build(), build()
	refPref := -1
	r := rand.New(rand.NewPCG(1, 51))
	var (
		live           []uint64
		next           = uint64(1)
		split, refused int // batches whose leading invalid items rode elsewhere; batches refused by a draining fleet
		moves, holds   int // batches that moved the incumbent; batches that kept it against a better instance
		degraded       int // batches placed with instance 2 degraded
	)
	for round := 0; round < 3000; round++ {
		for ex := -1; ex < got.Instances(); ex++ {
			if p, want := got.leastLoaded(ex, false), refLeastLoaded(got, ex, nil); p != want {
				t.Fatalf("round %d: migration placement excluding %d = %d, reference %d", round, ex, p, want)
			}
		}
		n := 1 + r.IntN(6)
		ids, rates := make([]uint64, n), make([]float64, n)
		first := -1
		for j := range ids {
			if len(live) > 0 && r.IntN(8) == 0 {
				ids[j] = live[r.IntN(len(live))]
			} else {
				ids[j], next = next, next+1
			}
			rates[j] = 0.5 + r.Float64()
			if r.IntN(3) == 0 {
				rates[j] = []float64{-1, 0, gateway.MaxRate + 1}[r.IntN(3)]
			} else if first < 0 {
				first = j
			}
		}
		if deg, _ := got.Gateway(2).Degraded(); deg {
			degraded++
		}
		before := int(got.preferred.Load())
		best, placed := refLeastLoaded(got, -1, nil), before
		placed = refLeastLoaded(got, -1, &placed) // where the valid items go
		gotDs, err := got.AdmitBatch(ids, rates, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantDs := refAdmitBatch(ref, &refPref, ids, rates); !reflect.DeepEqual(gotDs, wantDs) {
			t.Fatalf("round %d: batch %v at rates %v decided\n%+v\nreference\n%+v", round, ids, rates, gotDs, wantDs)
		}
		after := int(got.preferred.Load())
		if after != refPref {
			t.Fatalf("round %d: incumbent %d, reference %d", round, after, refPref)
		}
		for j, d := range gotDs {
			if !d.Admitted {
				continue
			}
			o, ok := pinOf(got, ids[j])
			if !ok || o != placed {
				t.Fatalf("round %d: admitted item %d (flow %d) is on instance %d (held %t), placed on %d", round, j, ids[j], o, ok, placed)
			}
			live = append(live, ids[j])
		}
		if after != before && after != placed {
			t.Fatalf("round %d: the incumbent moved %d → %d, but the batch was placed on %d", round, before, after, placed)
		}
		switch {
		case first < 0:
		case placed < 0:
			refused++
		case after != before:
			moves++
		case placed != best:
			holds++
		}
		if first > 0 && placed >= 0 && placed != max(before, 0) {
			split++
		}

		for k := r.IntN(5); k > 0 && len(live) > 0; k-- {
			j := r.IntN(len(live))
			id := live[j]
			live[j], live = live[len(live)-1], live[:len(live)-1]
			errGot, errRef := got.Depart(id), ref.Depart(id)
			if (errGot == nil) != (errRef == nil) {
				t.Fatalf("round %d: Depart(%d) = %v, reference %v", round, id, errGot, errRef)
			}
		}
		if round%7 == 6 {
			now := float64(round)
			if !reflect.DeepEqual(got.Tick(now), ref.Tick(now)) {
				t.Fatalf("round %d: tick snapshots differ", round)
			}
		}
		switch round % 400 {
		case 350:
			for _, c := range []*Cluster{got, ref} {
				for i := 0; i < c.Instances(); i++ {
					if _, _, err := c.Drain(i); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 370:
			for _, c := range []*Cluster{got, ref} {
				for i := 0; i < c.Instances(); i++ {
					reactivate(c, i)
				}
			}
		}
	}
	t.Logf("batches: %d moved the incumbent, %d kept it against a better instance, %d split their leading invalid items off, %d refused by a draining fleet, %d placed beside a degraded instance", moves, holds, split, refused, degraded)
	if moves == 0 || holds == 0 || split == 0 || refused == 0 || degraded == 0 {
		t.Fatal("the script missed a placement path")
	}
	checkPinsExact(t, got)
	checkPinsExact(t, ref)
}
