package gateway

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// TestAdmitBatchMatchesSequential pins AdmitBatch's core contract: a batch
// decides exactly as the same requests issued one by one through Admit —
// same decisions, same counters, same shard aggregates.
func TestAdmitBatchMatchesSequential(t *testing.T) {
	seqG, _ := perfectGateway(t, 10, 1, 0, 1e-2, 4) // m* = 10 exactly
	batG, _ := perfectGateway(t, 10, 1, 0, 1e-2, 4)

	ids := make([]uint64, 0, 14)
	rates := make([]float64, 0, 14)
	for i := 0; i < 14; i++ { // overruns the bound: tail items are refused
		ids = append(ids, uint64(i))
		rates = append(rates, 0.5+float64(i%5)*0.1)
	}

	want := make([]Decision, 0, len(ids))
	for i := range ids {
		d, err := seqG.Admit(ids[i], rates[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	got, err := batG.AdmitBatch(ids, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decision %d: batch %+v, sequential %+v", i, got[i], want[i])
		}
	}
	seqSt, batSt := seqG.Tick(1), batG.Tick(1)
	if seqSt != batSt {
		t.Fatalf("stats diverged:\nsequential %+v\nbatch      %+v", seqSt, batSt)
	}
	// Both paths feed the latency histogram once per decision.
	if c := batG.Snapshot().AdmitLatency.Count; c != int64(len(ids)) {
		t.Fatalf("batch latency count = %d, want %d", c, len(ids))
	}
}

// TestAdmitBatchPerItemReasons covers the batch-only outcomes: invalid
// inputs become per-item Decisions instead of aborting the batch.
func TestAdmitBatchPerItemReasons(t *testing.T) {
	g, _ := perfectGateway(t, 10, 1, 0, 1e-2, 4)
	if _, err := g.Admit(7, 1); err != nil { // pre-existing flow for the dup case
		t.Fatal(err)
	}

	if _, err := g.AdmitBatch([]uint64{1, 2}, []float64{1}, nil); err == nil {
		t.Fatal("length mismatch: want error")
	}
	if ds, err := g.AdmitBatch(nil, nil, nil); err != nil || len(ds) != 0 {
		t.Fatalf("empty batch: %v, %v", ds, err)
	}

	ids := []uint64{1, 7, 2, 2, 3, 4}
	rates := []float64{1, 1, math.NaN(), 1, -1, 1}
	ds, err := g.AdmitBatch(ids, rates, make([]Decision, 0, len(ids)))
	if err != nil {
		t.Fatal(err)
	}
	wantReasons := []Reason{
		ReasonAdmitted,
		ReasonDuplicate,   // 7 is already active
		ReasonInvalidRate, // NaN rate
		ReasonAdmitted,    // 2 retried with a valid rate
		ReasonInvalidRate, // negative rate
		ReasonAdmitted,
	}
	for i, d := range ds {
		if d.Reason != wantReasons[i] {
			t.Errorf("item %d: reason %v, want %v", i, d.Reason, wantReasons[i])
		}
		if d.Admitted != (wantReasons[i] == ReasonAdmitted) {
			t.Errorf("item %d: admitted = %v under reason %v", i, d.Admitted, d.Reason)
		}
	}
	st := g.Stats()
	if st.Admitted != 4 || st.Rejected != 0 || st.Active != 4 {
		t.Fatalf("stats after mixed batch: %+v", st)
	}
	// Undecided items (invalid, duplicate) must not enter the latency
	// histogram: count still equals admitted+rejected.
	if c := g.Snapshot().AdmitLatency.Count; c != st.Admitted+st.Rejected {
		t.Fatalf("latency count = %d, want %d", c, st.Admitted+st.Rejected)
	}
}

// TestAdmitBatchConcurrent hammers AdmitBatch from several goroutines
// against a tight bound while a ticker remeasures, asserting the CAS
// invariant (active never exceeds ⌊m*⌋) and exact counter balance. Run
// under -race.
func TestAdmitBatchConcurrent(t *testing.T) {
	g, mstar := perfectGateway(t, 32, 1, 0.3, 1e-2, 8)
	limit := int64(math.Floor(mstar))

	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		now := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				now += 0.01
				g.Tick(now)
			}
		}
	}()

	const goroutines, batches, batchLen = 8, 60, 16
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, batchLen)
			rates := make([]float64, batchLen)
			dst := make([]Decision, 0, batchLen)
			for b := 0; b < batches; b++ {
				for i := range ids {
					ids[i] = uint64(w)<<32 | uint64(b*batchLen+i)
					rates[i] = 1
				}
				dst = dst[:0]
				ds, err := g.AdmitBatch(ids, rates, dst)
				if err != nil {
					t.Error(err)
					return
				}
				for i, d := range ds {
					if d.Active > limit {
						t.Errorf("decision saw active %d > %d", d.Active, limit)
					}
					if d.Admitted {
						admitted.Add(1)
						if err := g.Depart(ids[i]); err != nil {
							t.Error(err)
							return
						}
					} else {
						rejected.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	tickWG.Wait()

	st := g.Stats()
	if st.Admitted != admitted.Load() || st.Rejected != rejected.Load() {
		t.Fatalf("counters: gateway %+v vs driver admitted=%d rejected=%d",
			st, admitted.Load(), rejected.Load())
	}
	if got := st.Admitted + st.Rejected; got != goroutines*batches*batchLen {
		t.Fatalf("decisions = %d, want %d", got, goroutines*batches*batchLen)
	}
	if st.Active != 0 {
		t.Fatalf("active = %d after full churn, want 0", st.Active)
	}
	if c := g.Snapshot().AdmitLatency.Count; c != st.Admitted+st.Rejected {
		t.Fatalf("latency count = %d, want %d", c, st.Admitted+st.Rejected)
	}
}

// TestAdmitBatchAllocationFree pins the steady-state contract: with a
// reused destination slice the batch path never allocates.
func TestAdmitBatchAllocationFree(t *testing.T) {
	g, _ := perfectGateway(t, 1e9, 1, 0, 1e-2, 16)
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	rates := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	dst := make([]Decision, 0, len(ids))
	cycle := func() {
		var err error
		dst, err = g.AdmitBatch(ids, rates, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := g.Depart(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm the shard map slots
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("AdmitBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// TestLatencySampling checks the 1-in-N observation contract on a single
// shard: only every Nth decision is timed, sampled-out decisions never
// touch the clock, and N is rounded up to a power of two. A batch of one
// is sampled exactly as an Admit. A batch spanning shards is sampled as a
// unit by the decision count of the shard that decides its first item: a
// sampled-in batch reads the clock twice and observes each of its
// decisions on that shard, a sampled-out one reads no clock and observes
// nothing.
func TestLatencySampling(t *testing.T) {
	sampledGateway := func(sample, shards int, calls *atomic.Int64) *Gateway {
		t.Helper()
		ctrl, err := core.NewPerfectKnowledge(1e9, 1, 0, 1e-2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Capacity:      1e9,
			Controller:    ctrl,
			Estimator:     &estimator.Oracle{Mu: 1, Sigma: 0},
			Shards:        shards,
			LatencySample: sample,
			LatencyClock:  func() int64 { return calls.Add(1) * 250 },
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		sample    int
		batch     bool // each decision a batch of one
		decisions int
		wantObs   int64
		wantCalls int64 // clock reads: 2 per sampled-in decision, 0 otherwise
	}{
		{0, false, 16, 16, 32}, // full fidelity: every decision, 2 reads each
		{1, false, 16, 16, 32},
		{4, false, 16, 4, 8},
		{5, false, 16, 2, 4}, // rounds up to 8
		{0, true, 16, 16, 32},
		{4, true, 16, 4, 8},
		{5, true, 16, 2, 4},
	}
	for _, tc := range cases {
		var calls atomic.Int64
		g := sampledGateway(tc.sample, 1, &calls)
		var dst []Decision
		for i := 0; i < tc.decisions; i++ {
			if !tc.batch {
				if _, err := g.Admit(uint64(i), 1); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var err error
			if dst, err = g.AdmitBatch([]uint64{uint64(i)}, []float64{1}, dst[:0]); err != nil || !dst[0].Admitted {
				t.Fatalf("sample %d: batch of one = %+v, %v", tc.sample, dst, err)
			}
		}
		if c := g.Snapshot().AdmitLatency.Count; c != tc.wantObs {
			t.Errorf("sample %d, batch %t: observed %d decisions, want %d", tc.sample, tc.batch, c, tc.wantObs)
		}
		if c := calls.Load(); c != tc.wantCalls {
			t.Errorf("sample %d, batch %t: %d clock reads, want %d", tc.sample, tc.batch, c, tc.wantCalls)
		}
	}

	// Two shards sampled 1 in 2: a shard's decision is sampled when its
	// count of earlier decisions is odd.
	var calls atomic.Int64
	g := sampledGateway(2, 2, &calls)
	var on [2][]uint64 // unused flow IDs by shard
	for id := uint64(1000); len(on[0]) < 8 || len(on[1]) < 8; id++ {
		k := g.fleet.shardIndex(id)
		on[k] = append(on[k], id)
	}
	take := func(k int) uint64 {
		id := on[k][0]
		on[k] = on[k][1:]
		return id
	}
	steps := []struct {
		shards    []int // the shard of each item, in order
		wantObs   [2]int64
		wantCalls int64
	}{
		{[]int{0, 1, 0}, [2]int64{0, 0}, 0}, // shard 0 had 0 decisions: sampled out
		{[]int{1, 0}, [2]int64{0, 2}, 2},    // shard 1 had 1: sampled in, observed on 1
		{[]int{0, 1}, [2]int64{2, 2}, 4},    // shard 0 had 3: sampled in, observed on 0
		{[]int{0, 1}, [2]int64{2, 2}, 4},    // shard 0 had 4: sampled out
	}
	for i, st := range steps {
		var (
			ids   []uint64
			rates []float64
		)
		for _, k := range st.shards {
			ids, rates = append(ids, take(k)), append(rates, 1)
		}
		ds, err := g.AdmitBatch(ids, rates, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, d := range ds {
			if !d.Admitted {
				t.Fatalf("batch %d item %d: %+v", i, j, d)
			}
		}
		for k := range st.wantObs {
			if n := shardLatCount(g, uint64(k)); n != st.wantObs[k] {
				t.Errorf("batch %d: shard %d holds %d observations, want %d", i, k, n, st.wantObs[k])
			}
		}
		if c := calls.Load(); c != st.wantCalls {
			t.Errorf("batch %d: %d clock reads in all, want %d", i, c, st.wantCalls)
		}
	}
}

// TestDepartBatchMatchesSequential pins DepartBatch's core contract: a
// batch departs exactly as the same ids issued one by one through Depart —
// same outcomes (including a duplicated id departing only at its first
// occurrence), same counters, same shard aggregates.
func TestDepartBatchMatchesSequential(t *testing.T) {
	seqG, _ := perfectGateway(t, 100, 1, 0, 1e-2, 4)
	batG, _ := perfectGateway(t, 100, 1, 0, 1e-2, 4)
	for i := 0; i < 20; i++ {
		for _, g := range []*Gateway{seqG, batG} {
			if _, err := g.Admit(uint64(i), 0.5+float64(i%5)*0.1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Mix of active ids, unknown ids, and a duplicate of an active one.
	ids := []uint64{3, 99, 0, 3, 17, 1000, 5, 5}
	want := make([]bool, 0, len(ids))
	for _, id := range ids {
		want = append(want, seqG.Depart(id) == nil)
	}
	got := batG.DepartBatch(ids, nil)
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("depart %d (id %d): batch %v, sequential %v", i, ids[i], got[i], want[i])
		}
	}
	seqSt, batSt := seqG.Tick(1), batG.Tick(1)
	if seqSt != batSt {
		t.Fatalf("stats diverged:\nsequential %+v\nbatch      %+v", seqSt, batSt)
	}
}

// TestDepartBatchEdges covers the empty batch, the append-to-dst contract,
// and the allocation-free steady state the serving layer relies on.
func TestDepartBatchEdges(t *testing.T) {
	g, _ := perfectGateway(t, 100, 1, 0, 1e-2, 4)
	if res := g.DepartBatch(nil, nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	prefix := []bool{true}
	res := g.DepartBatch([]uint64{42}, prefix)
	if len(res) != 2 || res[0] != true || res[1] != false {
		t.Fatalf("append contract violated: %v", res)
	}

	ids := make([]uint64, 32)
	dst := make([]bool, 0, len(ids))
	for i := range ids {
		ids[i] = uint64(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := g.Admit(id, 1); err != nil {
				t.Fatal(err)
			}
		}
		dst = g.DepartBatch(ids, dst[:0])
		for _, ok := range dst {
			if !ok {
				t.Fatal("re-admitted flow failed to depart")
			}
		}
	})
	// Admit's map inserts may allocate as the table churns; the point here
	// is that DepartBatch's grouping scratch is pooled, so the whole
	// admit+depart cycle settles near zero.
	if allocs > 1 {
		t.Fatalf("admit+depart cycle allocates %.1f times per run, want ~0", allocs)
	}
	if a := g.Stats().Active; a != 0 {
		t.Fatalf("active = %d after full departure, want 0", a)
	}
}
