package gateway

import (
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// latencyGateway builds a full-fidelity gateway on a deterministic latency
// clock.
func latencyGateway(t *testing.T, clk *fakeClock) *Gateway {
	t.Helper()
	ctrl, err := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:     100,
		Controller:   ctrl,
		Estimator:    &estimator.Oracle{Mu: 1, Sigma: 0.3},
		Shards:       8,
		LatencyClock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// latCount merges the latency histogram of flowID's shard and returns its
// count.
func latCount(g *Gateway, flowID uint64) int64 {
	k := g.fleet.shardIndex(flowID)
	snap := g.lat[k].EmptySnapshot()
	g.fleet.rows[k].mu.Lock()
	g.lat[k].AddTo(&snap)
	g.fleet.rows[k].mu.Unlock()
	return snap.Count
}

// TestAdmitBatchLatencyAttribution pins the satellite fix: the batch mean
// is attributed to a shard that actually decided an item (never to the
// shard of an invalid or duplicate leading item), undecided items are
// excluded from the averaged interval, and the histogram count still
// equals Admitted+Rejected.
func TestAdmitBatchLatencyAttribution(t *testing.T) {
	clk := &fakeClock{step: 250}
	g := latencyGateway(t, clk)

	const dup = uint64(7)
	if _, err := g.Admit(dup, 1); err != nil { // seeds the duplicate; 1 observation on its shard
		t.Fatal(err)
	}
	// Find a decided-item ID on a different shard from the duplicate, so
	// the two observations are distinguishable.
	good := uint64(8)
	for g.fleet.shardIndex(good) == g.fleet.shardIndex(dup) {
		good++
	}

	before := clk.t
	dst, err := g.AdmitBatch(
		[]uint64{999, dup, good},
		[]float64{-1, 1, 1},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || dst[0].Reason != ReasonInvalidRate || dst[1].Reason != ReasonDuplicate || !dst[2].Admitted {
		t.Fatalf("decisions: %+v", dst)
	}

	// Clock reads: the invalid leading item opens no interval; the
	// duplicate opens one (its table lookup is indistinguishable from a
	// decision until it returns) and closes it; the decided item opens the
	// second interval, closed after the loop. Four reads total.
	if reads := (clk.t - before) / clk.step; reads != 4 {
		t.Fatalf("clock reads = %d, want 4", reads)
	}

	// The single decided item's observation landed on its own shard, not
	// on the duplicate's (the old attribution target was shardFor(ids[0])).
	if n := latCount(g, good); n != 1 {
		t.Fatalf("deciding shard observations = %d, want 1", n)
	}
	if n := latCount(g, dup); n != 1 { // only the seeding Admit
		t.Fatalf("duplicate shard observations = %d, want 1", n)
	}

	// The histogram/decision identity survives invalid items.
	st := g.Stats()
	snap := g.Snapshot()
	if int64(snap.AdmitLatency.Count) != st.Admitted+st.Rejected {
		t.Fatalf("latency count %d != admitted %d + rejected %d",
			snap.AdmitLatency.Count, st.Admitted, st.Rejected)
	}
}

// TestAdmitBatchAllInvalidObservesNothing: a batch that decides nothing
// must not touch the histogram or the clock.
func TestAdmitBatchAllInvalidObservesNothing(t *testing.T) {
	clk := &fakeClock{step: 250}
	g := latencyGateway(t, clk)
	before := clk.t
	dst, err := g.AdmitBatch([]uint64{1, 2}, []float64{-1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 2 || dst[0].Reason != ReasonInvalidRate || dst[1].Reason != ReasonInvalidRate {
		t.Fatalf("decisions: %+v", dst)
	}
	if clk.t != before {
		t.Fatalf("clock advanced %d ns for an all-invalid batch", clk.t-before)
	}
	if n := g.Snapshot().AdmitLatency.Count; n != 0 {
		t.Fatalf("observations = %d, want 0", n)
	}
}

// TestAdmitBatchAllValidClockCost: the happy path still pays exactly one
// clock-read pair regardless of batch size.
func TestAdmitBatchAllValidClockCost(t *testing.T) {
	clk := &fakeClock{step: 250}
	g := latencyGateway(t, clk)
	ids := make([]uint64, 16)
	rates := make([]float64, 16)
	for i := range ids {
		ids[i] = uint64(i + 1)
		rates[i] = 1
	}
	before := clk.t
	if _, err := g.AdmitBatch(ids, rates, nil); err != nil {
		t.Fatal(err)
	}
	if reads := (clk.t - before) / clk.step; reads != 2 {
		t.Fatalf("clock reads = %d, want 2", reads)
	}
	if n := g.Snapshot().AdmitLatency.Count; n != 16 {
		t.Fatalf("observations = %d, want 16", n)
	}
}
