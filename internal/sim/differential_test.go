package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// differentialModels are the traffic models the columnar engine must
// reproduce bit-for-bit: the paper's RCBR workload, CBR, bursty on/off, and
// a heterogeneous burst mixture (Section 5.4's regime).
func differentialModels(tb testing.TB) map[string]traffic.Model {
	tb.Helper()
	mix, err := traffic.NewMixture(
		[]traffic.Model{
			traffic.NewRCBR(1, 0.3, 1),
			traffic.OnOff{PeakRate: 3, OnTime: 0.5, OffTime: 1.0},
			traffic.Constant{Rate: 0.8},
		},
		[]float64{0.6, 0.3, 0.1},
	)
	if err != nil {
		tb.Fatalf("mixture: %v", err)
	}
	return map[string]traffic.Model{
		"rcbr":    traffic.NewRCBR(1, 0.3, 1),
		"cbr":     traffic.Constant{Rate: 1},
		"onoff":   traffic.OnOff{PeakRate: 2.5, OnTime: 0.4, OffTime: 0.6},
		"mixture": mix,
	}
}

// assertImpulsiveEqual requires two ensemble results to be bit-identical:
// identical M0 moment state and identical overflow counters at every probe.
func assertImpulsiveEqual(tb testing.TB, scalar, columnar *ImpulsiveResult) {
	tb.Helper()
	if scalar.M0 != columnar.M0 {
		tb.Fatalf("M0 moments diverge: scalar %+v columnar %+v", scalar.M0, columnar.M0)
	}
	if len(scalar.PfAt) != len(columnar.PfAt) {
		tb.Fatalf("grid length diverges: %d vs %d", len(scalar.PfAt), len(columnar.PfAt))
	}
	for i := range scalar.PfAt {
		if scalar.PfAt[i] != columnar.PfAt[i] {
			tb.Fatalf("PfAt[%d] diverges: scalar %+v columnar %+v", i, scalar.PfAt[i], columnar.PfAt[i])
		}
	}
}

// mustCE builds the paper's certainty-equivalent controller with the
// standard declared (mu, sigma) = (1, 0.3) bootstrap.
func mustCE(tb testing.TB, pce float64) core.Controller {
	tb.Helper()
	ce, err := core.NewCertaintyEquivalent(pce, 1, 0.3)
	if err != nil {
		tb.Fatalf("controller: %v", err)
	}
	return ce
}

// runBothImpulsive executes the same ensemble on the scalar and columnar
// paths and returns both results.
func runBothImpulsive(tb testing.TB, cfg ImpulsiveConfig) (scalar, columnar *ImpulsiveResult) {
	tb.Helper()
	cfg.scalar = true
	scalar, err := RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("scalar path: %v", err)
	}
	cfg.scalar = false
	columnar, err = RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("columnar path: %v", err)
	}
	return scalar, columnar
}

// TestImpulsiveColumnarMatchesScalar is the tier-1 differential check: for
// every columnar model and several seeds, the columnar engine's
// ImpulsiveResult must equal the scalar engine's bit for bit. The larger
// -race version lives in the stat tier (differential_stat_test.go).
func TestImpulsiveColumnarMatchesScalar(t *testing.T) {
	for name, model := range differentialModels(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := traffic.ColumnModelOf(model); !ok {
				t.Fatalf("model %s must support the columnar path", name)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := ImpulsiveConfig{
					Capacity:     60,
					Model:        model,
					Controller:   mustCE(t, 1e-2),
					MeasureCount: 64,
					HoldingTime:  50,
					Grid:         []float64{0.5, 1, 5, 20},
					Replications: 25,
					Seed:         seed,
				}
				scalar, columnar := runBothImpulsive(t, cfg)
				assertImpulsiveEqual(t, scalar, columnar)
				if math.IsNaN(columnar.M0.Mean()) {
					t.Fatal("degenerate ensemble: M0 mean is NaN")
				}
			}
		})
	}
}

// TestImpulsiveColumnarInfiniteHolding covers the no-departure regime
// (HoldingTime <= 0): compaction never fires, every flow survives to the
// last probe.
func TestImpulsiveColumnarInfiniteHolding(t *testing.T) {
	cfg := ImpulsiveConfig{
		Capacity:     40,
		Model:        traffic.NewRCBR(1, 0.3, 1),
		Controller:   mustCE(t, 1e-2),
		MeasureCount: 40,
		HoldingTime:  0,
		Grid:         []float64{1, 10, 30},
		Replications: 20,
		Seed:         7,
	}
	scalar, columnar := runBothImpulsive(t, cfg)
	assertImpulsiveEqual(t, scalar, columnar)
}
