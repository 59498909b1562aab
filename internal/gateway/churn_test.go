package gateway

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestChurnLifecycleInvariants storms the gateway with every lifecycle
// path at once — Admit, AdmitBatch, UpdateRate, Touch, Depart, and the
// lease sweep — over a deliberately reused ID space, so Depart races
// Admit on the same flow ID while ticks expire silent flows underneath.
// Run under -race this is the lifecycle's memory-model test; the final
// asserts are the bookkeeping identities:
//
//	active == Σ len(shard.flows)
//	Admitted - Departed - Expired == Active
func TestChurnLifecycleInvariants(t *testing.T) {
	g := leaseGateway(t, 4) // TTL of 4 virtual time units
	const (
		workers = 8
		rounds  = 2000
		idSpace = 256
	)
	var now atomic.Int64 // shared virtual tick counter
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mixed per-worker traffic over a shared ID space: duplicates,
			// not-active errors and capacity refusals are all expected
			// outcomes; only corrupted bookkeeping is a failure, and that
			// is asserted after the storm.
			ids := make([]uint64, 0, 8)
			rates := make([]float64, 0, 8)
			dst := make([]Decision, 0, 8)
			rnd := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return rnd
			}
			for i := 0; i < rounds; i++ {
				id := next() % idSpace
				switch next() % 6 {
				case 0:
					g.Admit(id, 1+float64(id%7))
				case 1:
					ids = ids[:0]
					rates = rates[:0]
					for k := uint64(0); k < 4; k++ {
						ids = append(ids, (id+k)%idSpace)
						rates = append(rates, 1)
					}
					var err error
					dst, err = g.AdmitBatch(ids, rates, dst[:0])
					if err != nil {
						t.Error(err)
						return
					}
				case 2:
					g.UpdateRate(id, float64(next()%3)) // includes zero-rate updates
				case 3:
					g.Touch(id)
				case 4:
					g.Depart(id)
				case 5:
					// Ticks ride in the op mix so virtual time advances in
					// proportion to the churn: the average refresh gap per
					// flow is then several TTLs, and leases genuinely
					// expire mid-storm while other workers race the sweep.
					g.Tick(float64(now.Add(1)))
				}
			}
		}()
	}

	// The reused-ID race, concentrated: two goroutines fight over one ID
	// with pure Admit/Depart while everything else churns.
	racers := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-racers
		for i := 0; i < rounds; i++ {
			g.Admit(7, 1)
		}
	}()
	go func() {
		defer wg.Done()
		<-racers
		for i := 0; i < rounds; i++ {
			g.Depart(7)
		}
	}()
	close(racers)

	wg.Wait()
	// One final sweep so any flow whose lease lapsed during shutdown is
	// reconciled before the audit.
	st := g.Tick(float64(now.Add(1)))

	var tableActive int64
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		tableActive += int64(s.flows.Len())
		s.mu.Unlock()
	}
	if st.Active != tableActive {
		t.Fatalf("active count %d != flow-table population %d", st.Active, tableActive)
	}
	if st.Admitted-st.Departed-st.Expired != st.Active {
		t.Fatalf("lifecycle identity broken: admitted %d - departed %d - expired %d != active %d",
			st.Admitted, st.Departed, st.Expired, st.Active)
	}
	if st.Admitted == 0 || st.Expired == 0 {
		t.Fatalf("storm did not exercise the paths: %+v", st)
	}
}
