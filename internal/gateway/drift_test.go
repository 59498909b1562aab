package gateway

import (
	"math"
	"sort"
	"testing"
)

// exactShardSums recomputes a shard's aggregates from its flow table the
// same way Tick's rotation does (sorted summation), giving the reference
// the incremental sums are compared against.
func exactShardSums(s *shard) (sumRate, sumSq float64) {
	rates := make([]float64, 0, s.flows.Len())
	s.flows.Range(func(_ uint64, e *flowEntry) { rates = append(rates, e.rate) })
	sort.Float64s(rates)
	for _, r := range rates {
		sumRate += r
		sumSq += r * r
	}
	return sumRate, sumSq
}

// TestShardSumDriftBounded is the regression test for unbounded
// floating-point drift in the incremental shard sums: a long-lived dense
// shard (it never empties, so Depart's renormalize-on-empty never fires)
// absorbs 1e6 update/depart-readmit cycles with rates chosen to round on
// every incremental +=/-=. The rotating exact recompute in Tick must keep
// the incremental sums equal to an exact recomputation after every tick,
// and the drift accumulated between ticks must stay negligible.
func TestShardSumDriftBounded(t *testing.T) {
	g, _ := perfectGateway(t, 1e9, 1, 0, 1e-2, 1) // one shard: ticks always recompute it
	const flows = 64
	rate := func(i, cycle int) float64 {
		// Non-representable rates so every incremental update rounds.
		return 0.1 + float64((i*7+cycle)%101)*1e-3
	}
	for i := 0; i < flows; i++ {
		if _, err := g.Admit(uint64(i), rate(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	s := &g.shards[0]
	const cycles = 1_000_000
	const tickEvery = 4096
	now := 1.0
	var worstBetween float64
	for c := 1; c <= cycles; c++ {
		id := uint64(c % flows)
		if c%17 == 0 { // churn without ever emptying the shard
			if err := g.Depart(id); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Admit(id, rate(int(id), c)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := g.UpdateRate(id, rate(int(id), c)); err != nil {
				t.Fatal(err)
			}
		}
		if c%tickEvery == 0 {
			// Drift accumulated since the last recompute must stay tiny.
			wantRate, wantSq := exactShardSums(s)
			if d := math.Abs(s.sumRate - wantRate); d > 1e-9*wantRate {
				t.Fatalf("cycle %d: pre-tick sumRate drift %g", c, d)
			}
			if d := math.Abs(s.sumSq - wantSq); d > 1e-9*wantSq {
				t.Fatalf("cycle %d: pre-tick sumSq drift %g", c, d)
			}
			if d := math.Abs(s.sumRate - wantRate); d > worstBetween {
				worstBetween = d
			}
			g.Tick(now)
			now++
			// The rotation recompute resets the shard to the exact sums.
			wantRate, wantSq = exactShardSums(s)
			if s.sumRate != wantRate || s.sumSq != wantSq {
				t.Fatalf("cycle %d: post-tick sums (%v, %v) not exact (%v, %v)",
					c, s.sumRate, s.sumSq, wantRate, wantSq)
			}
		}
	}
	t.Logf("worst between-tick sumRate drift over %d cycles: %g", cycles, worstBetween)

	st := g.Tick(now)
	wantRate, _ := exactShardSums(s)
	if st.AggregateRate != wantRate {
		t.Fatalf("final aggregate %v, want exact %v", st.AggregateRate, wantRate)
	}
	if st.Active != flows {
		t.Fatalf("active = %d, want %d", st.Active, flows)
	}
}
