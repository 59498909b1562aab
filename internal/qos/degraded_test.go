package qos

import (
	"encoding/json"
	"testing"
)

// TestAuditDegradedVerdict: degraded ticks override statistical grading
// while they remain in the window, and age out with it.
func TestAuditDegradedVerdict(t *testing.T) {
	a, err := NewAudit(AuditConfig{TargetPf: 1e-2, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a.Observe(false)
	}
	if r := a.Report(); r.Verdict != VerdictOK || r.DegradedTicks != 0 {
		t.Fatalf("healthy window: %+v", r)
	}

	// A single degraded tick — even without overflow — flips the verdict:
	// overflow statistics from a degraded gateway don't grade the
	// controller.
	a.ObserveWith(false, true)
	r := a.Report()
	if r.Verdict != VerdictDegraded {
		t.Fatalf("verdict %v, want degraded", r.Verdict)
	}
	if r.DegradedTicks != 1 {
		t.Fatalf("DegradedTicks = %d, want 1", r.DegradedTicks)
	}

	// Degraded takes precedence even over a sqrt2-law violation.
	for i := 0; i < 63; i++ {
		a.ObserveWith(true, false)
	}
	if r := a.Report(); r.Verdict != VerdictDegraded {
		t.Fatalf("verdict %v, want degraded to outrank overflow", r.Verdict)
	}

	// Once the degraded tick ages out of the window, statistical grading
	// resumes (and the saturated-overflow window now violates the law).
	a.ObserveWith(true, false)
	r = a.Report()
	if r.DegradedTicks != 0 {
		t.Fatalf("DegradedTicks = %d after aging out", r.DegradedTicks)
	}
	if r.Verdict != VerdictViolatesSqrt2Law {
		t.Fatalf("verdict %v, want violates-sqrt2-law", r.Verdict)
	}
}

// TestVerdictStringDegraded: the new verdict has a stable string form.
func TestVerdictStringDegraded(t *testing.T) {
	if VerdictDegraded.String() != "degraded" {
		t.Fatalf("String = %q", VerdictDegraded.String())
	}
	if b, err := json.Marshal(VerdictDegraded); err != nil || string(b) != `"degraded"` {
		t.Fatalf("json.Marshal = %s, %v", b, err)
	}
}
