package traffic

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Mixture models a heterogeneous flow population (Section 5.4 of the
// paper): each new flow is drawn from one of several component models with
// the given probabilities. The paper shows that the cross-sectional
// variance estimator, which treats all flows as sharing one mean, is biased
// upward under heterogeneity — making the MBAC conservative but still
// robust. This model exercises exactly that scenario.
type Mixture struct {
	Models  []Model
	Weights []float64 // non-negative, at least one positive
}

// NewMixture validates and returns a mixture model. Weights are normalized
// internally.
func NewMixture(models []Model, weights []float64) (*Mixture, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("traffic: mixture needs at least one component")
	}
	if len(models) != len(weights) {
		return nil, fmt.Errorf("traffic: %d models but %d weights", len(models), len(weights))
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("traffic: negative weight %g at %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("traffic: weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return &Mixture{Models: models, Weights: norm}, nil
}

// Stats implements Model: the law-of-total-variance moments of the
// population a randomly drawn flow belongs to.
func (m *Mixture) Stats() Stats {
	var mean, second, tc, peak float64
	for i, comp := range m.Models {
		s := comp.Stats()
		w := m.Weights[i]
		mean += w * s.Mean
		second += w * (s.Variance + s.Mean*s.Mean)
		tc += w * s.CorrTime
		if s.Peak > peak {
			peak = s.Peak
		}
	}
	return Stats{Mean: mean, Variance: second - mean*mean, CorrTime: tc, Peak: peak}
}

// New implements Model: one component is chosen for the flow's lifetime.
func (m *Mixture) New(r *rng.PCG) Source {
	u := r.Float64()
	var cum float64
	for i, w := range m.Weights {
		cum += w
		if u < cum {
			return m.Models[i].New(r)
		}
	}
	return m.Models[len(m.Models)-1].New(r)
}
