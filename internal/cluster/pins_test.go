package cluster

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gateway"
)

// checkPinsExact asserts the reference-model invariant "pins == ∪ flow
// tables". The shared flow table holds it by construction — a flow's pin is
// its row's owner — so what is left to check is each instance's
// accounting of its rows: at a quiescent point the rows an instance owns,
// counted by walking the table, must equal its Active count and its
// counters' Admitted − Departed − Expired (the live-row count they keep),
// and the /cluster snapshot's Pinned must equal them per instance and
// summed over the fleet.
func checkPinsExact(tb testing.TB, c *Cluster) {
	tb.Helper()
	snap := c.Snapshot()
	var active int64
	for i := 0; i < c.Instances(); i++ {
		g := c.Gateway(i)
		var rows int64
		g.ForEachFlow(func(uint64, float64) { rows++ })
		st := g.Stats()
		if live := st.Admitted - st.Departed - st.Expired; rows != st.Active || live != st.Active {
			tb.Errorf("instance %d owns %d rows, has %d active and %d admitted − departed − expired", i, rows, st.Active, live)
		}
		if p := snap.Instances[i].Pinned; p != st.Active {
			tb.Errorf("instance %d: snapshot pins %d flows, %d active", i, p, st.Active)
		}
		active += st.Active
	}
	if snap.Pinned != active {
		tb.Errorf("snapshot pins %d flows, the fleet has %d active", snap.Pinned, active)
	}
}

// pinOf returns the instance that holds id.
func pinOf(c *Cluster, id uint64) (int, bool) {
	for i := 0; i < c.Instances(); i++ {
		if c.Gateway(i).Contains(id) {
			return i, true
		}
	}
	return 0, false
}

// pinCount returns the number of flows the fleet holds.
func pinCount(c *Cluster) int64 {
	var n int64
	for i := 0; i < c.Instances(); i++ {
		c.Gateway(i).ForEachFlow(func(uint64, float64) { n++ })
	}
	return n
}

// TestPinsSurviveTickStorm is the regression test for the pin leak: batched
// admissions and departures of disjoint flow ranges run beside a spinning
// Tick. Nothing but the flow's own caller may end a flow here (leases are
// armed but outlive the test), so every depart must find its flow, the
// fleet must drain to zero, and no pin may be left or lost. With a
// reconciliation sweep in Tick this failed: the sweep reaped tentative
// pins between their write and the instance's admit.
func TestPinsSurviveTickStorm(t *testing.T) {
	const (
		workers = 4
		rounds  = 400
		batch   = 16
	)
	cfg := Config{}
	for i := 0; i < 4; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(t, 1e6, 1e12))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for now := 1.0; ; now++ {
			select {
			case <-stop:
				return
			default:
				c.Tick(now)
			}
		}
	}()

	var refused, notActive atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, batch)
			rates := make([]float64, batch)
			var ds []gateway.Decision
			var oks []bool
			for r := 0; r < rounds; r++ {
				for i := range ids {
					ids[i] = uint64(w)<<32 | uint64(r*batch+i)
					rates[i] = 1
				}
				var err error
				if ds, err = c.AdmitBatch(ids, rates, ds[:0]); err != nil {
					t.Error(err)
					return
				}
				for _, d := range ds {
					if !d.Admitted {
						refused.Add(1)
					}
				}
				oks = c.DepartBatch(ids, oks[:0])
				for _, ok := range oks {
					if !ok {
						notActive.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()

	if n := refused.Load(); n != 0 {
		t.Errorf("%d admissions refused on an empty fleet", n)
	}
	if n := notActive.Load(); n != 0 {
		t.Errorf("%d departs found their admitted flow not active (unroutable)", n)
	}
	st := c.Stats()
	if st.Active != 0 || !st.LifecycleBalanced() || st.Admitted != workers*rounds*batch {
		t.Errorf("fleet after the storm: %+v", st)
	}
	if n := pinCount(c); n != 0 {
		t.Errorf("%d pins left after every flow departed", n)
	}
	checkPinsExact(t, c)
}

// TestLeaseExpiryUnpins drives lease expiry through the router: a leaked
// flow loses its pin at the very tick that expires it, a later admission
// of its ID is placed afresh, and an admission racing the expiring tick
// ends pinned.
func TestLeaseExpiryUnpins(t *testing.T) {
	const (
		n   = 64 // flows; even IDs are kept alive, odd ones leak
		ttl = 5.0
	)
	cfg := Config{}
	for i := 0; i < 4; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(t, 100, ttl))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, n)
	for id := uint64(0); id < n; id++ {
		if d, err := c.Admit(id, 1); err != nil || !d.Admitted {
			t.Fatalf("Admit(%d) = %+v, %v", id, d, err)
		}
		owner[id], _ = pinOf(c, id)
	}
	for now := 1.0; now < ttl; now++ {
		for id := uint64(0); id < n; id += 2 {
			if err := c.Touch(id); err != nil {
				t.Fatal(err)
			}
		}
		c.Tick(now)
		if got := pinCount(c); got != n {
			t.Fatalf("t=%g: %d pins, want %d (no lease is due yet)", now, got, n)
		}
	}

	// The expiring tick: the odd flows' leases (stamped at t=0) are due.
	c.Tick(ttl)
	if st := c.Stats(); st.Expired != n/2 || st.Active != n/2 {
		t.Fatalf("after the expiring tick: %+v", st)
	}
	for id := uint64(1); id < n; id += 2 {
		if idx, ok := pinOf(c, id); ok {
			t.Fatalf("expired flow %d still pinned to instance %d after the tick that expired it", id, idx)
		}
	}
	checkPinsExact(t, c)

	// Placed afresh: with its old owner draining, a stale pin would still
	// route the re-admission there; a fresh placement cannot.
	const back = 1
	if _, _, err := c.Drain(owner[back]); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Admit(back, 1); err != nil || !d.Admitted {
		t.Fatalf("re-Admit(%d) = %+v, %v", back, d, err)
	}
	if idx, _ := pinOf(c, back); idx == owner[back] || !c.Gateway(idx).Contains(back) {
		t.Fatalf("re-admitted flow %d pinned to %d (old, draining owner %d)", back, idx, owner[back])
	}
	if !reactivate(c, owner[back]) {
		t.Fatalf("instance %d was not draining", owner[back])
	}

	// The race: while a ticker walks the even flows (last touched at
	// t=ttl-1) across their deadline, an admitter keeps re-requesting
	// them — refused as duplicates until the sweep reclaims them, admitted
	// afterwards, possibly through the very pin the sweep is removing.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for now := ttl + 1; now <= 2*ttl; now += 0.25 {
			c.Tick(now)
		}
	}()
	for pending := n / 2; pending > 0; {
		for id := uint64(0); id < n; id += 2 {
			if owner[id] < 0 {
				continue
			}
			if d, _ := c.Admit(id, 1); d.Admitted {
				owner[id] = -1
				pending--
			}
		}
	}
	wg.Wait()
	for id := uint64(0); id < n; id += 2 {
		if idx, ok := pinOf(c, id); !ok || !c.Gateway(idx).Contains(id) {
			t.Errorf("flow %d admitted across its own expiry is not pinned to its holder (pin %d, ok %t)", id, idx, ok)
		}
	}
	checkPinsExact(t, c)
	if st := c.Stats(); !st.LifecycleBalanced() {
		t.Errorf("fleet lifecycle unbalanced: %+v", st)
	}
}

// TestUpdateDuringAdmissionKeepsPin: a routed operation on a flow whose
// admission is in flight must not strand the flow. Each instance's latency
// clock issues UpdateRate(7) at its first read, inside Admit(7) after the
// flow is placed. With a tentative pin written before the decision, the
// update found the pin but not the flow, dropped the pin as stale, and the
// admission then succeeded unpinned: Depart(7) answered not-active and the
// slot was held forever.
func TestUpdateDuringAdmissionKeepsPin(t *testing.T) {
	var (
		c     *Cluster
		armed atomic.Bool
	)
	cfg := Config{}
	for i := 0; i < 2; i++ {
		gc := testGatewayConfig(t, 100, 0)
		gc.LatencyClock = func() int64 {
			if armed.CompareAndSwap(true, false) {
				if err := c.UpdateRate(7, 1); err == nil {
					t.Error("UpdateRate reached flow 7 before its admission was decided")
				}
			}
			return 0
		}
		cfg.Instances = append(cfg.Instances, gc)
	}
	var err error
	if c, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if d, err := c.Admit(7, 1); err != nil || !d.Admitted {
		t.Fatalf("Admit(7) = %+v, %v", d, err)
	}
	if armed.Load() {
		t.Fatal("the admission never read the latency clock")
	}
	checkPinsExact(t, c)
	if err := c.Depart(7); err != nil {
		t.Fatalf("Depart(7) after its admission: %v", err)
	}
	checkPinsExact(t, c)
}

// TestSameIDStorm races every routed operation on a handful of shared flow
// IDs — single and batched admissions (with an ID repeated inside a
// batch), rate updates, keepalives and departures — beside a spinning Tick
// whose leases expire flows mid-storm and a loop draining each instance in
// turn (reactivating it test-side, so it can be drained again). Any answer
// to a racing operation is acceptable; what must hold at quiescence is
// that every instance's rows match its counters, the fleet's lifecycle
// balances, and every pinned flow departs.
func TestSameIDStorm(t *testing.T) {
	const (
		workers = 4
		ids     = 8
		rounds  = 3000
		ttl     = 40.0
	)
	cfg := Config{Policy: PlaceRoundRobin}
	for i := 0; i < 3; i++ {
		cfg.Instances = append(cfg.Instances, testGatewayConfig(t, 1e6, ttl))
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for now := 1.0; ; now++ {
			select {
			case <-stop:
				return
			default:
				c.Tick(now)
			}
		}
	}()
	go func() {
		defer bg.Done()
		for i := 0; ; i = (i + 1) % c.Instances() {
			select {
			case <-stop:
				return
			default:
				if _, _, err := c.Drain(i); err == nil {
					reactivate(c, i)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 1))
			var ds []gateway.Decision
			var oks []bool
			for i := 0; i < rounds; i++ {
				id := r.Uint64N(ids)
				switch r.IntN(6) {
				case 0:
					_, _ = c.Admit(id, 1)
				case 1:
					ds, _ = c.AdmitBatch([]uint64{id, (id + 1) % ids, id}, []float64{1, 1, 1}, ds[:0])
				case 2:
					_ = c.UpdateRate(id, r.Float64())
				case 3:
					_ = c.Touch(id)
				case 4:
					_ = c.Depart(id)
				case 5:
					oks = c.DepartBatch([]uint64{id, (id + 1) % ids}, oks[:0])
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	checkPinsExact(t, c)
	if st := c.Stats(); !st.LifecycleBalanced() {
		t.Errorf("fleet lifecycle unbalanced: %+v", st)
	}
	for id := uint64(0); id < ids; id++ {
		if _, pinned := pinOf(c, id); pinned && c.Depart(id) != nil {
			t.Errorf("pinned flow %d does not depart", id)
		}
	}
	if st := c.Stats(); st.Active != 0 || pinCount(c) != 0 {
		t.Errorf("after departing every pinned flow: %d active, %d pins", st.Active, pinCount(c))
	}
}
