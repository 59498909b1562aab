package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gauss"
	"repro/internal/theory"
)

func TestCertaintyEquivalentValidation(t *testing.T) {
	if _, err := NewCertaintyEquivalent(0, 1, 0.3); err == nil {
		t.Error("pce=0 should fail")
	}
	if _, err := NewCertaintyEquivalent(1, 1, 0.3); err == nil {
		t.Error("pce=1 should fail")
	}
	if _, err := NewCertaintyEquivalent(1e-3, 0, 0.3); err == nil {
		t.Error("declared mean 0 should fail")
	}
	if _, err := NewCertaintyEquivalent(1e-3, 1, -1); err == nil {
		t.Error("negative declared sigma should fail")
	}
}

func TestCertaintyEquivalentMatchesCriterion(t *testing.T) {
	ce, err := NewCertaintyEquivalent(1e-3, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m := Measurement{Capacity: 100, Flows: 50, Mu: 1.05, Sigma: 0.28, OK: true}
	got := ce.Admissible(m)
	// Verify the admitted count satisfies the Gaussian criterion exactly.
	pf := gauss.Q((m.Capacity - got*m.Mu) / (m.Sigma * math.Sqrt(got)))
	if math.Abs(pf-1e-3)/1e-3 > 1e-8 {
		t.Errorf("criterion violated: achieved %v", pf)
	}
	if ce.Target() != 1e-3 {
		t.Errorf("Target = %v", ce.Target())
	}
	if math.Abs(ce.Alpha()-gauss.Qinv(1e-3)) > 1e-12 {
		t.Errorf("Alpha = %v", ce.Alpha())
	}
}

func TestCertaintyEquivalentBootstrap(t *testing.T) {
	ce, _ := NewCertaintyEquivalent(1e-3, 2, 0)
	m := Measurement{Capacity: 100, Flows: 0, OK: false}
	// With declaration mu=2 sigma=0 the admissible count is c/mu = 50.
	if got := ce.Admissible(m); math.Abs(got-50) > 1e-9 {
		t.Errorf("bootstrap admissible = %v, want 50", got)
	}
	// Zero measured mean also falls back to the declaration.
	m = Measurement{Capacity: 100, Flows: 3, Mu: 0, Sigma: 0, OK: true}
	if got := ce.Admissible(m); math.Abs(got-50) > 1e-9 {
		t.Errorf("zero-mean fallback = %v, want 50", got)
	}
}

func TestCertaintyEquivalentMonotoneInEstimates(t *testing.T) {
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	f := func(a, b uint64) bool {
		mu := 0.5 + float64(a%100)/50      // 0.5 .. 2.5
		sigma := 0.05 + float64(b%100)/200 // 0.05 .. 0.55
		base := Measurement{Capacity: 200, Mu: mu, Sigma: sigma, OK: true}
		m0 := ce.Admissible(base)
		up := base
		up.Mu = mu * 1.05
		if ce.Admissible(up) >= m0 {
			return false // larger measured mean must admit fewer
		}
		wide := base
		wide.Sigma = sigma * 1.2
		return ce.Admissible(wide) < m0 // larger measured sigma admits fewer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCertaintyEquivalentMoreConservativeTargetAdmitsFewer(t *testing.T) {
	loose, _ := NewCertaintyEquivalent(1e-2, 1, 0.3)
	tight, _ := NewCertaintyEquivalent(1e-6, 1, 0.3)
	m := Measurement{Capacity: 100, Mu: 1, Sigma: 0.3, OK: true}
	if loose.Admissible(m) <= tight.Admissible(m) {
		t.Error("tighter target must admit fewer flows")
	}
}

func TestPerfectKnowledge(t *testing.T) {
	pk, err := NewPerfectKnowledge(100, 1, 0.3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	want := theory.AdmissibleFlows(100, 1, 0.3, 1e-3)
	if pk.MStar() != want {
		t.Errorf("MStar = %v, want %v", pk.MStar(), want)
	}
	// Ignores measurements entirely.
	a := pk.Admissible(Measurement{Capacity: 100, Mu: 5, Sigma: 5, OK: true})
	b := pk.Admissible(Measurement{})
	if a != b || a != want {
		t.Errorf("perfect knowledge should be constant: %v %v", a, b)
	}
	if _, err := NewPerfectKnowledge(100, 1, 0.3, 0); err == nil {
		t.Error("pq=0 should fail")
	}
	if _, err := NewPerfectKnowledge(-1, 1, 0.3, 1e-3); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestPeakRate(t *testing.T) {
	c := PeakRate{Peak: 2}
	if got := c.Admissible(Measurement{Capacity: 100}); got != 50 {
		t.Errorf("peak rate admissible = %v, want 50", got)
	}
	if got := (PeakRate{}).Admissible(Measurement{Capacity: 100}); got != 0 {
		t.Errorf("zero peak should admit none, got %v", got)
	}
}

func TestMeasuredSum(t *testing.T) {
	ms, err := NewMeasuredSum(0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := Measurement{Capacity: 100, Flows: 50, AggregateRate: 60}
	// Headroom = 90 - 60 = 30 -> admissible = 50 + 30 = 80.
	if got := ms.Admissible(m); math.Abs(got-80) > 1e-12 {
		t.Errorf("admissible = %v, want 80", got)
	}
	// Over target: no new admissions, but never below current count.
	m.AggregateRate = 95
	if got := ms.Admissible(m); got != 50 {
		t.Errorf("over-target admissible = %v, want 50", got)
	}
	if _, err := NewMeasuredSum(0, 1); err == nil {
		t.Error("eta=0 should fail")
	}
	if _, err := NewMeasuredSum(1.5, 1); err == nil {
		t.Error("eta>1 should fail")
	}
	if _, err := NewMeasuredSum(0.9, 0); err == nil {
		t.Error("declared rate 0 should fail")
	}
}

func TestWithFlowCap(t *testing.T) {
	pk, _ := NewPerfectKnowledge(1000, 1, 0.3, 1e-3)
	capped := WithFlowCap(pk, 100)
	if got := capped.Admissible(Measurement{}); got != 100 {
		t.Errorf("capped admissible = %v, want 100", got)
	}
	if capped.Name() != "perfect-knowledge+cap" {
		t.Errorf("name = %q", capped.Name())
	}
	// Cap above the inner limit is inert.
	loose := WithFlowCap(pk, 1e9)
	if got := loose.Admissible(Measurement{}); got != pk.MStar() {
		t.Errorf("loose cap changed decision: %v", got)
	}
}

func TestControllerNames(t *testing.T) {
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	pk, _ := NewPerfectKnowledge(100, 1, 0.3, 1e-3)
	ms, _ := NewMeasuredSum(0.9, 1)
	for _, pair := range []struct {
		c    Controller
		want string
	}{
		{ce, "certainty-equivalent"},
		{pk, "perfect-knowledge"},
		{PeakRate{Peak: 1}, "peak-rate"},
		{ms, "measured-sum"},
	} {
		if pair.c.Name() != pair.want {
			t.Errorf("name %q, want %q", pair.c.Name(), pair.want)
		}
	}
}

func BenchmarkCertaintyEquivalentAdmissible(b *testing.B) {
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	m := Measurement{Capacity: 100, Flows: 90, Mu: 1.01, Sigma: 0.29, OK: true}
	for i := 0; i < b.N; i++ {
		ce.Admissible(m)
	}
}

// TestPolicyTable: every policy name round-trips through the table, New
// builds the controller that reports that name, and peak-rate refuses a
// peak that is not finite and positive.
func TestPolicyTable(t *testing.T) {
	d := Declared{Capacity: 100, Mean: 1, Sigma: 0.3, Peak: 2, Target: 1e-2, Eta: 0.9}
	for _, p := range PolicyNames.All() {
		if got, err := PolicyNames.Parse("test: unknown policy", p.String()); err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p, got, err)
		}
		c, err := p.New(d)
		if err != nil {
			t.Fatalf("%v.New: %v", p, err)
		}
		if c.Name() != p.String() {
			t.Errorf("%v.New built %q", p, c.Name())
		}
	}
	for _, peak := range []float64{0, -1, math.Inf(1), math.NaN()} {
		d.Peak = peak
		if _, err := PolicyPeakRate.New(d); err == nil {
			t.Errorf("peak-rate accepted peak %g", peak)
		}
	}
}
