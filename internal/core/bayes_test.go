package core

import (
	"math"
	"testing"
)

func TestNewBayesianCEValidation(t *testing.T) {
	if _, err := NewBayesianCE(0, 1, 1, 0.3); err == nil {
		t.Error("pce=0 should fail")
	}
	if _, err := NewBayesianCE(1e-2, -1, 1, 0.3); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewBayesianCE(1e-2, 1, 0, 0.3); err == nil {
		t.Error("zero prior mean should fail")
	}
	if _, err := NewBayesianCE(1e-2, 1, 1, -0.1); err == nil {
		t.Error("negative prior sigma should fail")
	}
}

func TestBayesianZeroWeightMatchesCE(t *testing.T) {
	bayes, err := NewBayesianCE(1e-3, 0, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewCertaintyEquivalent(1e-3, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m := Measurement{Capacity: 100, Flows: 60, Mu: 1.07, Sigma: 0.31, OK: true}
	if a, b := bayes.Admissible(m), ce.Admissible(m); math.Abs(a-b) > 1e-9 {
		t.Errorf("W=0 Bayesian %v != CE %v", a, b)
	}
}

func TestBayesianInfiniteWeightIgnoresMeasurement(t *testing.T) {
	bayes, err := NewBayesianCE(1e-3, 1e12, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	a := bayes.Admissible(Measurement{Capacity: 100, Flows: 50, Mu: 2, Sigma: 1, OK: true})
	b := bayes.Admissible(Measurement{Capacity: 100, Flows: 50, Mu: 0.5, Sigma: 0.1, OK: true})
	if math.Abs(a-b) > 1e-3 {
		t.Errorf("huge prior weight should dominate: %v vs %v", a, b)
	}
}

func TestBayesianShrinksTowardPrior(t *testing.T) {
	// Measurement says mu=1.5 (fewer admissible); prior says mu=1. The
	// blended decision must sit strictly between the pure cases and move
	// monotonically with the weight.
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	m := Measurement{Capacity: 100, Flows: 50, Mu: 1.5, Sigma: 0.3, OK: true}
	pureMeas := ce.Admissible(m)
	priorOnly := ce.Admissible(Measurement{Capacity: 100, Flows: 50, Mu: 1, Sigma: 0.3, OK: true})

	prev := pureMeas
	for _, w := range []float64{5, 25, 200, 5000} {
		bayes, err := NewBayesianCE(1e-3, w, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		got := bayes.Admissible(m)
		if got <= prev {
			t.Errorf("W=%v: admissible %v not increasing toward the prior (prev %v)", w, got, prev)
		}
		if got <= pureMeas || got >= priorOnly {
			t.Errorf("W=%v: %v outside (%v, %v)", w, got, pureMeas, priorOnly)
		}
		prev = got
	}
}

func TestBayesianHeterogeneityInflatesVariance(t *testing.T) {
	// When the measurement disagrees with the prior, the blend's variance
	// includes the between-source term, so the controller is more cautious
	// than either pure belief with the same mean.
	bayes, _ := NewBayesianCE(1e-3, 50, 1, 0.3)
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	// Measurement mean far from prior mean, both with tiny sigma.
	m := Measurement{Capacity: 100, Flows: 50, Mu: 2, Sigma: 0.01, OK: true}
	blend := bayes.Admissible(m)
	atBlendMean := ce.Admissible(Measurement{Capacity: 100, Flows: 50, Mu: 1.5, Sigma: 0.01, OK: true})
	if blend >= atBlendMean {
		t.Errorf("disagreement should inflate variance: %v vs %v", blend, atBlendMean)
	}
}

func TestBayesianFallbackWithoutMeasurement(t *testing.T) {
	bayes, _ := NewBayesianCE(1e-3, 10, 1, 0.3)
	m := Measurement{Capacity: 100, Flows: 0, OK: false}
	got := bayes.Admissible(m)
	// Pure prior: same as CE with (1, 0.3).
	ce, _ := NewCertaintyEquivalent(1e-3, 1, 0.3)
	want := ce.Admissible(Measurement{Capacity: 100, Mu: 1, Sigma: 0.3, OK: true})
	if got <= 0 || math.Abs(got-want) > 1e-9 {
		t.Errorf("prior fallback %v, want %v > 0", got, want)
	}
	if bayes.Name() != "bayesian-ce" || bayes.Target() != 1e-3 {
		t.Error("metadata")
	}
}
