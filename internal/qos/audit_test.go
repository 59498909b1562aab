package qos

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gauss"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden audit reports")

func TestNewAuditValidation(t *testing.T) {
	for _, cfg := range []AuditConfig{
		{TargetPf: 0},
		{TargetPf: -1e-2},
		{TargetPf: 0.5},
		{TargetPf: math.NaN()},
		{TargetPf: 1e-2, Z: math.Inf(1)},
		{TargetPf: 1e-2, Z: -2},
	} {
		if _, err := NewAudit(cfg); err == nil {
			t.Errorf("NewAudit(%+v) accepted invalid config", cfg)
		}
	}
	a, err := NewAudit(AuditConfig{TargetPf: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	want := gauss.Q(gauss.Qinv(1e-2) / gauss.Sqrt2)
	if a.Sqrt2Law() != want || a.TargetPf() != 1e-2 {
		t.Fatalf("thresholds = (%v, %v), want (1e-2, %v)", a.TargetPf(), a.Sqrt2Law(), want)
	}
	// The sqrt2-law threshold always sits above the target for pq < 0.5.
	if a.Sqrt2Law() <= a.TargetPf() {
		t.Fatalf("sqrt2 law %v should exceed target %v", a.Sqrt2Law(), a.TargetPf())
	}
}

// TestVerdictStrings pins the exact verdict names in constant order — they
// are the verdict string of every audit golden and scenario report — and
// that ParseVerdict reads the same table.
func TestVerdictStrings(t *testing.T) {
	golden := []string{"insufficient", "ok", "violates-target", "violates-sqrt2-law", "degraded"}
	for i, want := range golden {
		v := Verdict(i)
		if back, err := ParseVerdict(want); v.String() != want || err != nil || back != v {
			t.Errorf("Verdict(%d) = %q, want %q; parses back to %v, %v", i, v, want, back, err)
		}
	}
	if _, err := ParseVerdict("fine"); err == nil {
		t.Error("ParseVerdict accepted an unknown name")
	}
	// The value past the list is outside the table: the list is complete.
	if got := Verdict(len(golden)).String(); got != "Verdict(5)" {
		t.Errorf("out-of-table String() = %q", got)
	}
	b, err := json.Marshal(VerdictViolatesTarget)
	if err != nil || string(b) != `"violates-target"` {
		t.Errorf("json.Marshal = %s, %v", b, err)
	}
}

// auditScenario drives an audit's own window with a deterministic overflow
// pattern: hits overflow ticks out of n total, spread evenly.
func auditScenario(t *testing.T, a *Audit, hits, n int) Report {
	t.Helper()
	if hits > 0 {
		every := n / hits
		for i := 0; i < n; i++ {
			a.Observe(i%every == 0 && i/every < hits)
		}
	} else {
		for i := 0; i < n; i++ {
			a.Observe(false)
		}
	}
	return a.Report()
}

// TestAuditVerdictsGolden is the table-driven verdict test: each scenario's
// full report (estimate, thresholds, verdict) is locked as JSON under
// results/golden/. At p_q = 1e-2 the √2 law predicts p_f ≈ 0.0497, so the
// scenarios bracket p_q, the band between, and the region above.
func TestAuditVerdictsGolden(t *testing.T) {
	type scenario struct {
		name    string
		pq      float64
		window  int
		hits, n int
		want    Verdict
	}
	scenarios := []scenario{
		// Too few ticks to grade at all.
		{"insufficient", 1e-2, 2048, 3, 10, VerdictInsufficient},
		// Overflow consistent with the target.
		{"ok-clean", 1e-2, 2048, 0, 1000, VerdictOK},
		{"ok-at-target", 1e-2, 2048, 10, 1000, VerdictOK},
		// The Prop 3.3 band: above p_q, below Q(α_q/√2).
		{"violates-target-ce-bias", 1e-2, 2048, 60, 2000, VerdictViolatesTarget},
		// Above even the √2 law: something else is broken.
		{"violates-sqrt2-law", 1e-2, 2048, 240, 2000, VerdictViolatesSqrt2Law},
		// A tighter target shifts both thresholds.
		{"violates-target-tight", 1e-3, 4096, 40, 4000, VerdictViolatesTarget},
	}
	var reports []struct {
		Name   string `json:"name"`
		Report Report `json:"report"`
	}
	for _, sc := range scenarios {
		a, err := NewAudit(AuditConfig{TargetPf: sc.pq, Window: sc.window})
		if err != nil {
			t.Fatal(err)
		}
		r := auditScenario(t, a, sc.hits, sc.n)
		if r.Verdict != sc.want {
			t.Errorf("%s: verdict = %v, want %v (estimate %+v vs pq=%g sqrt2=%g)",
				sc.name, r.Verdict, sc.want, r.Estimate, r.TargetPf, r.Sqrt2Law)
		}
		reports = append(reports, struct {
			Name   string `json:"name"`
			Report Report `json:"report"`
		}{sc.name, r})
	}

	got, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("..", "..", "results", "golden", "qos-audit.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with `make golden`): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("audit reports drifted from golden output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestAuditEvaluateBoundaries(t *testing.T) {
	a, err := NewAudit(AuditConfig{TargetPf: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound exactly at the threshold is NOT a violation: the rule
	// demands the whole interval strictly above.
	r := a.Evaluate(stats.WindowedEstimate{P: 0.02, Lo: 1e-2, Hi: 0.03, Hits: 20, N: 1000})
	if r.Verdict != VerdictOK {
		t.Errorf("Lo == pq graded %v, want ok", r.Verdict)
	}
	r = a.Evaluate(stats.WindowedEstimate{P: 0.02, Lo: 0.0101, Hi: 0.03, Hits: 20, N: 1000})
	if r.Verdict != VerdictViolatesTarget {
		t.Errorf("Lo just above pq graded %v, want violates-target", r.Verdict)
	}
	r = a.Evaluate(stats.WindowedEstimate{P: 0.2, Lo: a.Sqrt2Law() + 1e-9, Hi: 0.3, Hits: 200, N: 1000})
	if r.Verdict != VerdictViolatesSqrt2Law {
		t.Errorf("Lo above sqrt2 law graded %v, want violates-sqrt2-law", r.Verdict)
	}
	r = a.Evaluate(stats.WindowedEstimate{P: 1, Lo: 0.9, Hi: 1, Hits: 49, N: 49})
	if r.Verdict != VerdictInsufficient {
		t.Errorf("N below minSamples graded %v, want insufficient", r.Verdict)
	}
}
