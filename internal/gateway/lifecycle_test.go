package gateway

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
)

// leaseGateway builds a perfect-knowledge gateway with leases enabled.
func leaseGateway(t *testing.T, ttl float64) *Gateway {
	t.Helper()
	ctrl, err := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{
		Capacity:   100,
		Controller: ctrl,
		Estimator:  &estimator.Oracle{Mu: 1, Sigma: 0.3},
		Shards:     4,
		FlowTTL:    ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLeaseExpiry(t *testing.T) {
	g := leaseGateway(t, 10)
	for id := uint64(1); id <= 5; id++ {
		if _, err := g.Admit(id, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-TTL tick: nothing is due.
	st := g.Tick(5)
	if st.Active != 5 || st.Expired != 0 {
		t.Fatalf("t=5: active %d expired %d, want 5, 0", st.Active, st.Expired)
	}

	// Refresh three ways at vnow=5: positive update and Touch extend the
	// lease; a zero-rate update deliberately does not (a flow that only
	// reports silence is indistinguishable from a crashed client).
	if err := g.UpdateRate(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Touch(2); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateRate(3, 0); err != nil {
		t.Fatal(err)
	}

	// t=10: flows 3, 4, 5 hit their admission-time deadline (0+10); flows
	// 1 and 2 were refreshed to 5+10.
	st = g.Tick(10)
	if st.Active != 2 || st.Expired != 3 {
		t.Fatalf("t=10: active %d expired %d, want 2, 3", st.Active, st.Expired)
	}
	if st.Departed != 0 {
		t.Fatalf("expiries must not count as departures: %d", st.Departed)
	}
	if st.Admitted-st.Departed-st.Expired != st.Active {
		t.Fatalf("lifecycle identity broken: %+v", st)
	}
	// The cross-section no longer contains the reclaimed flows: flows 1
	// (rate 2) and 2 (rate 1) remain.
	if st.AggregateRate != 3 || st.MeasuredFlows != 2 {
		t.Fatalf("aggregate %g over %d flows, want 3 over 2", st.AggregateRate, st.MeasuredFlows)
	}

	// An expired flow's ID is immediately reusable.
	if _, err := g.Admit(3, 1); err != nil {
		t.Fatalf("re-admit after expiry: %v", err)
	}

	// t=15: flows 1 and 2 expire; flow 3 was re-admitted at vnow=10 and
	// lives to 20.
	st = g.Tick(15)
	if st.Active != 1 || st.Expired != 5 {
		t.Fatalf("t=15: active %d expired %d, want 1, 5", st.Active, st.Expired)
	}
	st = g.Tick(20)
	if st.Active != 0 || st.Expired != 6 {
		t.Fatalf("t=20: active %d expired %d, want 0, 6", st.Active, st.Expired)
	}
	if st.Admitted-st.Departed-st.Expired != st.Active {
		t.Fatalf("lifecycle identity broken: %+v", st)
	}
}

func TestLeasesDisabledNeverExpire(t *testing.T) {
	g := leaseGateway(t, 0)
	if _, err := g.Admit(1, 1); err != nil {
		t.Fatal(err)
	}
	st := g.Tick(1e12)
	if st.Active != 1 || st.Expired != 0 {
		t.Fatalf("TTL=0 expired a flow: %+v", st)
	}
	// Touch is a harmless no-op without leases, but still validates the ID.
	if err := g.Touch(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Touch(42); err == nil {
		t.Fatal("Touch of unknown flow succeeded")
	}
}

func TestLeaseConfigValidation(t *testing.T) {
	ctrl, _ := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
	est := &estimator.Oracle{Mu: 1, Sigma: 0.3}
	for _, bad := range []Config{
		{Capacity: 100, Controller: ctrl, Estimator: est, FlowTTL: -1},
		{Capacity: 100, Controller: ctrl, Estimator: est, FlowTTL: math.NaN()},
		{Capacity: 100, Controller: ctrl, Estimator: est, FlowTTL: math.Inf(1)},
		{Capacity: 100, Controller: ctrl, Estimator: est, StaleAfter: -1},
		{Capacity: 100, Controller: ctrl, Estimator: est, Degraded: DegradedPolicy(7)},
		{Capacity: 100, Controller: ctrl, Estimator: est, Degraded: DegradedPolicy(-1)},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New accepted %+v", bad)
		}
	}
}

// TestZeroRateFlowCountsInCrossSection pins the documented UpdateRate
// semantics: a flow updated to rate 0 keeps its admission slot and
// contributes a zero sample to eq. 7's cross-section.
func TestZeroRateFlowCountsInCrossSection(t *testing.T) {
	g := leaseGateway(t, 0)
	if _, err := g.Admit(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Admit(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.UpdateRate(1, 0); err != nil {
		t.Fatalf("zero-rate update rejected: %v", err)
	}
	st := g.Tick(1)
	if st.Active != 2 {
		t.Fatalf("zero-rate flow lost its slot: active %d", st.Active)
	}
	if st.MeasuredFlows != 2 || st.AggregateRate != 3 {
		t.Fatalf("cross-section (%d flows, %g), want (2, 3)", st.MeasuredFlows, st.AggregateRate)
	}
	// Admission-time declarations stay strictly positive, though.
	if _, err := g.Admit(3, 0); err == nil {
		t.Fatal("Admit accepted a zero declared rate")
	}
	// And negative or non-finite updates are still invalid.
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := g.UpdateRate(2, bad); err == nil {
			t.Fatalf("UpdateRate accepted %g", bad)
		}
	}
}

// TestAdmitErrorDecisions pins the satellite fix: error-path Decisions
// carry the real refusal reason instead of the zero value (which reads as
// "admitted").
func TestAdmitErrorDecisions(t *testing.T) {
	g := leaseGateway(t, 0)
	d, err := g.Admit(1, math.NaN())
	if err == nil || d.Reason != ReasonInvalidRate || d.Admitted {
		t.Fatalf("invalid rate: d=%+v err=%v", d, err)
	}
	if _, err := g.Admit(1, 1); err != nil {
		t.Fatal(err)
	}
	d, err = g.Admit(1, 1)
	if err == nil || d.Reason != ReasonDuplicate || d.Admitted {
		t.Fatalf("duplicate: d=%+v err=%v", d, err)
	}
	if d.Active != 1 || d.Admissible != g.Admissible() {
		t.Fatalf("duplicate decision context: %+v", d)
	}
}

// TestReasonRoundTrip pins the exact Reason names in constant order: they
// label Prometheus series and snapshot fields, and the wire carries the
// numeric value, so a rename or a reorder must show up in review.
func TestReasonRoundTrip(t *testing.T) {
	golden := []string{"admitted", "capacity", "invalid-rate", "duplicate", "expired"}
	for i, want := range golden {
		if got := Reason(i).String(); got != want {
			t.Errorf("Reason(%d) = %q, want %q", i, got, want)
		}
	}
	// The value past the list is outside the table: the list is complete.
	if got := Reason(len(golden)).String(); got != "Reason(5)" {
		t.Fatalf("out-of-table String = %q", got)
	}
}

// TestDegradedPolicyRoundTrip does the same for policies, and checks that
// ParseDegradedPolicy reads the same table.
func TestDegradedPolicyRoundTrip(t *testing.T) {
	golden := []string{"freeze", "peak-rate", "reject-all"}
	for i, want := range golden {
		p := DegradedPolicy(i)
		if back, err := ParseDegradedPolicy(want); p.String() != want || err != nil || back != p {
			t.Errorf("DegradedPolicy(%d) = %q, want %q; parses back to %v, %v", i, p, want, back, err)
		}
	}
	if _, err := ParseDegradedPolicy("nope"); err == nil {
		t.Fatal("ParseDegradedPolicy accepted nonsense")
	}
	if got := DegradedPolicy(len(golden)).String(); got != "DegradedPolicy(3)" {
		t.Fatalf("out-of-table String = %q", got)
	}
}
