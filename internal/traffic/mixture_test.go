package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewMixtureValidation(t *testing.T) {
	a := NewRCBR(1, 0.3, 1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewMixture([]Model{a}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewMixture([]Model{a}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMixture([]Model{a}, []float64{0}); err == nil {
		t.Error("zero total weight should fail")
	}
}

func TestMixtureStatsLawOfTotalVariance(t *testing.T) {
	// Two constant-rate classes 1 and 3 with weights 0.5/0.5:
	// mean 2, within-class var 0, between-class var 1.
	m, err := NewMixture([]Model{Constant{Rate: 1}, Constant{Rate: 3}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if math.Abs(s.Mean-2) > 1e-12 || math.Abs(s.Variance-1) > 1e-12 {
		t.Errorf("stats = %+v, want mean 2 var 1", s)
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	m, err := NewMixture([]Model{Constant{Rate: 1}, Constant{Rate: 3}}, []float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Weights normalize to 0.25/0.75 -> mean 2.5.
	if math.Abs(m.Stats().Mean-2.5) > 1e-12 {
		t.Errorf("mean = %v", m.Stats().Mean)
	}
}

func TestMixtureEmpirical(t *testing.T) {
	big := NewRCBR(2, 0.3, 1)
	small := NewRCBR(0.5, 0.3, 1)
	m, err := NewMixture([]Model{big, small}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Stats()
	// Sample many flows' stationary rates (first segment of each flow).
	base := rng.New(77, 0)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		rate := m.New(base.Split(uint64(i))).Next().Rate
		sum += rate
		sumSq += rate * rate
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-want.Mean)/want.Mean > 0.01 {
		t.Errorf("empirical mean %v vs %v", mean, want.Mean)
	}
	if math.Abs(variance-want.Variance)/want.Variance > 0.05 {
		t.Errorf("empirical var %v vs %v", variance, want.Variance)
	}
	// Heterogeneity bias: population variance strictly exceeds
	// within-class variance.
	within := 0.3*big.Stats().Variance + 0.7*small.Stats().Variance
	if want.Variance <= within {
		t.Errorf("population var %v should exceed within-class %v", want.Variance, within)
	}
}

func TestMixtureComponentPersistsPerFlow(t *testing.T) {
	// A flow drawn from the {1, 3} constant mixture must emit the same rate
	// forever (the class is chosen once, not per segment).
	m, _ := NewMixture([]Model{Constant{Rate: 1}, Constant{Rate: 3}}, []float64{1, 1})
	base := rng.New(5, 0)
	for i := 0; i < 20; i++ {
		src := m.New(base.Split(uint64(i)))
		first := src.Next().Rate
		for j := 0; j < 5; j++ {
			if src.Next().Rate != first {
				t.Fatal("component changed mid-flow")
			}
		}
	}
}
