package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// stepModel has deterministic segment durations (0.5, 0.25, 0.5, ...) and
// random rates: with a deterministic holding time of 0.75 a flow's departure
// coincides bit-for-bit with the end of its second segment, and under
// continuous load whole cohorts of flows share every event time.
type stepModel struct{}

func (stepModel) Stats() traffic.Stats {
	return traffic.Stats{Mean: 1, Variance: 0.09, CorrTime: 0.375, Peak: math.Inf(1)}
}

func (stepModel) New(r *rng.PCG) traffic.Source { return &stepSource{r: r} }

type stepSource struct {
	r *rng.PCG
	k int
}

func (s *stepSource) Next() traffic.Segment {
	s.k++
	return traffic.Segment{Rate: s.r.TruncatedNormal(1, 0.3, 0), Duration: 0.25 * float64(1+s.k%2)}
}

// orderTrace is a memoryless estimator that also folds every flow-level
// event the engine reports — kind, slot, rate, time, in the order reported —
// into a hash. Aggregates barely notice which of two equal-time events
// fired first (flows are exchangeable); the hash does.
type orderTrace struct {
	*estimator.Memoryless
	now  float64
	hash uint64
}

func (o *orderTrace) fold(kind uint64, id int, rate float64) {
	for _, w := range [...]uint64{kind, uint64(id), math.Float64bits(rate), math.Float64bits(o.now)} {
		o.hash = (o.hash ^ w) * 0x100000001b3
	}
}

func (o *orderTrace) Advance(t float64)                 { o.now = t; o.Memoryless.Advance(t) }
func (o *orderTrace) FlowAdmitted(id int, rate float64) { o.fold(1, id, rate) }
func (o *orderTrace) FlowRateChanged(id int, r float64) { o.fold(2, id, r) }
func (o *orderTrace) FlowDeparted(id int)               { o.fold(3, id, 0) }

// TestEqualTimeEventOrderPinned pins the order in which equal-time events
// fire. The constants were recorded from the (t, seq) binary event heap this
// queue replaced; equal times are resolved by seq alone, so any reordering
// of a tie changes the sequence of flow events the estimator is told (the
// order hash), and past that the admissions made between two events of one
// instant.
func TestEqualTimeEventOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		arrivalRate                         float64
		events, admitted, departed, blocked int64
		pfBits, order                       uint64
	}{
		{name: "continuous", arrivalRate: 0, events: 22971, admitted: 7719, departed: 7626, blocked: 0, pfBits: 4578359381184846234, order: 1116831043350675859},
		{name: "poisson", arrivalRate: 120, events: 28334, admitted: 7004, departed: 6925, blocked: 512, pfBits: 4555958171171545088, order: 2747163325077264973},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pk, err := core.NewPerfectKnowledge(100, 1, 0.3, 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			trace := &orderTrace{Memoryless: estimator.NewMemoryless()}
			e, err := New(Config{
				Capacity: 100, Model: stepModel{}, Controller: pk,
				Estimator: trace, HoldingTime: 0.75,
				HoldingSampler: func(*rng.PCG) float64 { return 0.75 },
				ArrivalRate:    tc.arrivalRate,
				Seed:           9, Warmup: 2, MaxTime: 60, Tc: 0.375,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := [...]uint64{uint64(res.Events), uint64(res.Admitted), uint64(res.Departed), uint64(res.Blocked), math.Float64bits(res.Pf), trace.hash}
			want := [...]uint64{uint64(tc.events), uint64(tc.admitted), uint64(tc.departed), uint64(tc.blocked), tc.pfBits, tc.order}
			if got != want {
				t.Errorf("events, admitted, departed, blocked, pf bits, order hash = %d, want %d", got, want)
			}
		})
	}
}
