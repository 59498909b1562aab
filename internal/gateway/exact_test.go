package gateway

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// oracleSums recomputes a shard's fixed-point sums from its flow table:
// the reference the incrementally kept sums must equal bit for bit.
func oracleSums(s *shard) (sumQ uint64, sumQ2 u128) {
	s.flows.Range(func(_ uint64, e *flowEntry) {
		sumQ += e.q
		sumQ2 = sumQ2.add(square(e.q))
	})
	return sumQ, sumQ2
}

// TestShardSumsExact is the regression test for drift in the incremental
// shard sums: a long-lived dense shard (it never empties) absorbs 1e6
// update/depart-readmit cycles with rates that are not representable in
// binary, so every floating-point +=/-= would round. With no tick ever
// run, the shard's sums must equal an exact recomputation from its table
// after every cycle, and the table must hold each flow's last rate.
func TestShardSumsExact(t *testing.T) {
	g, _ := perfectGateway(t, 1e9, 1, 0, 1e-2, 1)
	const flows = 64
	rate := func(i, cycle int) float64 {
		return 0.1 + float64((i*7+cycle)%101)*1e-3
	}
	cur := make([]float64, flows)
	for i := range cur {
		cur[i] = rate(i, 0)
		if _, err := g.Admit(uint64(i), cur[i]); err != nil {
			t.Fatal(err)
		}
	}

	s := &g.shards[0]
	const cycles = 1_000_000
	for c := 1; c <= cycles; c++ {
		id := c % flows
		cur[id] = rate(id, c)
		if c%17 == 0 { // churn without ever emptying the shard
			if err := g.Depart(uint64(id)); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Admit(uint64(id), cur[id]); err != nil {
				t.Fatal(err)
			}
		} else if err := g.UpdateRate(uint64(id), cur[id]); err != nil {
			t.Fatal(err)
		}
		if wantQ, wantQ2 := oracleSums(s); s.sumQ != wantQ || s.sumQ2 != wantQ2 {
			t.Fatalf("cycle %d: sums (%d, %v), table says (%d, %v)", c, s.sumQ, s.sumQ2, wantQ, wantQ2)
		}
	}

	for id, r := range cur {
		if e := s.flows.Get(uint64(id)); e == nil || e.q != fixed(r) {
			t.Fatalf("flow %d: table entry %+v, want q = %d", id, e, fixed(r))
		}
	}
	st := g.Tick(1)
	wantQ, _ := oracleSums(s)
	if want := float64(wantQ) * unit; st.AggregateRate != want {
		t.Fatalf("aggregate %v, want exact %v", st.AggregateRate, want)
	}
	if st.Active != flows {
		t.Fatalf("active = %d, want %d", st.Active, flows)
	}
}

// TestTickOrderFree applies one multiset of admissions, rate updates,
// departures and lease expiries to gateways of 1, 8 and 64 shards, once
// flow by flow in ID order and once batched in a scrambled order. Every
// tick's measurement — aggregate, μ̂, σ̂ and the bound derived from them —
// must be the same bits in all six runs: the cross-section depends on the
// set of flows and their rates, never on how the gateway got there.
func TestTickOrderFree(t *testing.T) {
	const n = 600
	admitRate := func(i int) float64 { return 0.3 + float64(i*7919%1000)/997 }
	newRate := func(i int) float64 { return 0.2 + float64(i*104729%1000)/991 }
	// Phase two's fate of flow i: a rate update (which renews the lease),
	// a departure, or (2) nothing, so its lease runs out before the last
	// tick.
	const update, depart = 0, 1
	fate := func(i int) int { return i * 31 % 3 }

	run := func(shards int, scrambled bool) []Stats {
		ctrl, err := core.NewCertaintyEquivalent(1e-2, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(Config{
			Capacity:   1e6,
			Controller: ctrl,
			Estimator:  estimator.NewMemoryless(),
			Shards:     shards,
			FlowTTL:    10,
		})
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, n)
		for k := range order {
			order[k] = k
			if scrambled {
				order[k] = (k*389 + 17) % n // 389 is prime to n
			}
		}
		var ids []uint64
		var rates []float64
		for _, i := range order {
			ids, rates = append(ids, uint64(i)), append(rates, admitRate(i))
		}
		if scrambled {
			ds, _ := g.AdmitBatch(ids, rates, nil)
			for _, d := range ds {
				if !d.Admitted {
					t.Fatalf("batch admission refused: %+v", d)
				}
			}
		} else {
			for k, id := range ids {
				if d, err := g.Admit(id, rates[k]); err != nil || !d.Admitted {
					t.Fatalf("admit %d: %+v, %v", id, d, err)
				}
			}
		}
		var out []Stats
		out = append(out, g.Tick(5))

		var departs []uint64
		for _, i := range order {
			switch fate(i) {
			case update:
				if err := g.UpdateRate(uint64(i), newRate(i)); err != nil {
					t.Fatal(err)
				}
			case depart:
				departs = append(departs, uint64(i))
			}
		}
		if scrambled {
			g.DepartBatch(departs, nil)
		} else {
			for _, id := range departs {
				if err := g.Depart(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		out = append(out, g.Tick(6))
		return append(out, g.Tick(12)) // the lapsed flows expire here
	}

	ref := run(1, false)
	if ref[2].Expired == 0 || ref[2].Departed == 0 || ref[2].Active == 0 {
		t.Fatalf("the multiset must admit, depart, expire and keep flows: %+v", ref[2])
	}
	for _, shards := range []int{1, 8, 64} {
		for _, scrambled := range []bool{false, true} {
			got := run(shards, scrambled)
			for k := range ref {
				a, b := ref[k], got[k]
				if math.Float64bits(a.AggregateRate) != math.Float64bits(b.AggregateRate) ||
					math.Float64bits(a.Mu) != math.Float64bits(b.Mu) ||
					math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) ||
					math.Float64bits(a.Admissible) != math.Float64bits(b.Admissible) {
					t.Errorf("%d shards, scrambled %v, tick %d: (agg %v, μ̂ %v, σ̂ %v, M %v), one shard in order: (%v, %v, %v, %v)",
						shards, scrambled, k, b.AggregateRate, b.Mu, b.Sigma, b.Admissible,
						a.AggregateRate, a.Mu, a.Sigma, a.Admissible)
				}
			}
		}
	}
}

// TestShardSumCarryRefused puts a shard's Σq at the carry edge — the sum
// of about a million flows at MaxRate, planted rather than admitted — and
// checks that an admission or update whose q would carry Σq out of 64
// bits is refused, leaving the sums as they were, while one that fits is
// taken.
func TestShardSumCarryRefused(t *testing.T) {
	g, _ := perfectGateway(t, 1e9, 1, 0, 1e-2, 1)
	if _, err := g.Admit(1, 1); err != nil {
		t.Fatal(err)
	}
	s := &g.shards[0]
	// Room for exactly one more unit-rate flow (q = 2^28), not for the
	// q = 2^44 of a flow at MaxRate.
	s.sumQ = math.MaxUint64 - fixed(1)
	sumQ, sumQ2 := s.sumQ, s.sumQ2
	unchanged := func(what string) {
		t.Helper()
		if s.sumQ != sumQ || s.sumQ2 != sumQ2 {
			t.Fatalf("%s changed the sums", what)
		}
	}

	if d, err := g.Admit(2, MaxRate); err != nil || d.Admitted || d.Reason != ReasonCapacity {
		t.Fatalf("admission past the carry: %+v, %v; want a capacity refusal", d, err)
	}
	unchanged("a refused admission")
	if ds, _ := g.AdmitBatch([]uint64{3}, []float64{2}, nil); ds[0].Reason != ReasonCapacity {
		t.Fatalf("batched admission past the carry: %+v", ds[0])
	}
	unchanged("a refused batch admission")
	if err := g.UpdateRate(1, 2.5); !errors.Is(err, ErrInvalidRate) {
		t.Fatalf("update past the carry: %v, want ErrInvalidRate", err)
	}
	unchanged("a refused update")
	if st := g.Stats(); st.Active != 1 || st.Rejected != 2 {
		t.Fatalf("stats after refusals: %+v", st)
	}

	if err := g.UpdateRate(1, 2); err != nil {
		t.Fatalf("update to the edge: %v", err)
	}
	if s.sumQ != math.MaxUint64 {
		t.Fatalf("Σq = %d after filling the edge, want 2^64-1", s.sumQ)
	}
	if err := g.UpdateRate(1, 0.5); err != nil {
		t.Fatalf("update down from the edge: %v", err)
	}
	if d, err := g.Admit(4, 1.5); err != nil || !d.Admitted {
		t.Fatalf("admission that fits: %+v, %v", d, err)
	}
	if s.sumQ != math.MaxUint64 {
		t.Fatalf("Σq = %d, want 2^64-1", s.sumQ)
	}
}
