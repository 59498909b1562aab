package experiments

import (
	"testing"

	"repro/internal/theory"
)

func limitSys(th, tc, tm float64) theory.System {
	return theory.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: th, Tc: tc, Tm: tm}
}

func TestLimitValidation(t *testing.T) {
	if _, err := limitOverflow(theory.System{Capacity: -1, Mu: 1}, 1e-2, limitOptions{}); err == nil {
		t.Error("invalid system should fail")
	}
	if _, err := limitOverflow(limitSys(100, 0, 0), 1e-2, limitOptions{}); err == nil {
		t.Error("Tc=0 should fail")
	}
	if _, err := limitOverflow(limitSys(0, 1, 0), 1e-2, limitOptions{}); err == nil {
		t.Error("Th=0 should fail")
	}
}

func TestLimitMemorylessMatchesTheoryIntegral(t *testing.T) {
	// gamma = 3 regime: the limit-process measurement should agree with
	// Bräker's approximation (eq. 32) within its known accuracy (the
	// approximation is asymptotic in alpha, so expect tens of percent, not
	// orders of magnitude).
	s := limitSys(100, 1, 0) // ThTilde = 10, gamma = 3
	pce := 1e-2
	res, err := limitOverflow(s, pce, limitOptions{Seed: 1, Duration: 60000})
	if err != nil {
		t.Fatal(err)
	}
	pred := theory.ContinuousOverflowIntegral(s, pce)
	if res.Pf <= 0 {
		t.Fatalf("no overflow measured")
	}
	if ratio := res.Pf / pred; ratio < 0.4 || ratio > 1.6 {
		t.Errorf("limit sim %v vs theory %v (ratio %v)", res.Pf, pred, ratio)
	}
}

func TestLimitMemoryMatchesTheoryIntegral(t *testing.T) {
	s := limitSys(100, 1, 10) // Tm = ThTilde
	pce := 1e-2
	res, err := limitOverflow(s, pce, limitOptions{Seed: 2, Duration: 120000})
	if err != nil {
		t.Fatal(err)
	}
	pred := theory.ContinuousOverflowIntegral(s, pce)
	if res.Pf <= 0 {
		t.Fatalf("no overflow measured (pred %v)", pred)
	}
	if ratio := res.Pf / pred; ratio < 0.3 || ratio > 2.5 {
		t.Errorf("limit sim %v vs theory %v (ratio %v)", res.Pf, pred, ratio)
	}
}

func TestLimitMemoryReducesOverflow(t *testing.T) {
	pce := 1e-2
	a, err := limitOverflow(limitSys(100, 1, 0), pce, limitOptions{Seed: 3, Duration: 30000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := limitOverflow(limitSys(100, 1, 10), pce, limitOptions{Seed: 3, Duration: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if b.Pf >= a.Pf {
		t.Errorf("memory should reduce pf: %v vs %v", a.Pf, b.Pf)
	}
}

func TestLimitDeterminism(t *testing.T) {
	a, _ := limitOverflow(limitSys(100, 1, 5), 1e-2, limitOptions{Seed: 9, Duration: 5000})
	b, _ := limitOverflow(limitSys(100, 1, 5), 1e-2, limitOptions{Seed: 9, Duration: 5000})
	if a.Pf != b.Pf || a.Steps != b.Steps {
		t.Error("limit sim not deterministic")
	}
}

func TestLimitDefaultsApplied(t *testing.T) {
	res, err := limitOverflow(limitSys(100, 1, 0), 0.1, limitOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps <= 0 || res.Batches < 2 {
		t.Errorf("defaults produced empty run: %+v", res)
	}
}

func BenchmarkLimitSim(b *testing.B) {
	s := limitSys(100, 1, 10)
	for i := 0; i < b.N; i++ {
		if _, err := limitOverflow(s, 1e-2, limitOptions{Seed: uint64(i), Duration: 2000}); err != nil {
			b.Fatal(err)
		}
	}
}
