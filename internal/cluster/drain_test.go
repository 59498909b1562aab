package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDepartRacesDrain is the regression test for the slot leak through
// the drain window: a caller departs each of its flows exactly once while
// Drain migrates them, leases off, so nothing but that Depart can ever end
// a flow. Every depart must find its flow — on whichever instance the
// drain has left it — and the fleet must end empty with no pin left or
// lost. When a Depart's pin read and a migration's repin were separate
// critical sections, a Depart that read its pin just before the repin was
// answered not-active and the migrated copy stayed admitted forever (a
// fifth of the rounds here lost flows that way). Each round admits its
// flows on the two instances alternately, so the drain of instance 0
// migrates half of them. Rounds alternate single Departs and DepartBatch.
func TestDepartRacesDrain(t *testing.T) {
	const (
		workers = 4
		flows   = 512
		rounds  = 100
	)
	c := newTestCluster(t, 2, 1e6, Config{})
	ids := make([]uint64, flows)
	var notActive atomic.Int64
	for r := 0; r < rounds; r++ {
		for i := range ids {
			ids[i] = uint64(r*flows + i)
			if d, err := c.Gateway(i%2).Admit(ids[i], 1); err != nil || !d.Admitted {
				t.Fatalf("round %d: admit %d on instance %d: %+v, %v", r, ids[i], i%2, d, err)
			}
		}
		batched := r%2 == 1
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Every workers-th id, descending: the drain walks ids
				// ascending, so each worker crosses it mid-migration.
				var own []uint64
				for i := len(ids) - 1 - w; i >= 0; i -= workers {
					own = append(own, ids[i])
				}
				<-start
				if !batched {
					for _, id := range own {
						if c.Depart(id) != nil {
							notActive.Add(1)
						}
					}
					return
				}
				var oks []bool
				for lo := 0; lo < len(own); lo += 16 {
					oks = c.DepartBatch(own[lo:min(lo+16, len(own))], oks[:0])
					for _, ok := range oks {
						if !ok {
							notActive.Add(1)
						}
					}
				}
			}(w)
		}
		close(start)
		if _, _, err := c.Drain(0); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if !reactivate(c, 0) {
			t.Fatal("instance 0 was not draining")
		}
	}
	if n := notActive.Load(); n != 0 {
		t.Errorf("%d departs found their admitted flow not active", n)
	}
	if st := c.Stats(); st.Active != 0 || !st.LifecycleBalanced() {
		t.Errorf("fleet after every flow departed: %+v", st)
	}
	checkPinsExact(t, c)
}
