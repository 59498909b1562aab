package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

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

// runBothImpulsive executes the same RCBR ensemble on the scalar and
// columnar paths and returns both results. The scalar run wraps the model:
// struct{ traffic.Model }{m} is not a traffic.RCBR, so RunImpulsive gives
// it per-flow sources.
func runBothImpulsive(tb testing.TB, cfg ImpulsiveConfig) (scalar, columnar *ImpulsiveResult) {
	tb.Helper()
	if _, ok := cfg.Model.(traffic.RCBR); !ok {
		tb.Fatalf("model %T does not take the columnar path", cfg.Model)
	}
	columnar, err := RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("columnar path: %v", err)
	}
	cfg.Model = struct{ traffic.Model }{cfg.Model}
	scalar, err = RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("scalar path: %v", err)
	}
	return scalar, columnar
}

// extraFlowsConfig is an ensemble whose controller admits far more flows
// than it measured (about 80 on 20), so both paths draw the flows beyond
// MeasureCount from their own substreams; the grid starts at time zero.
func extraFlowsConfig(tb testing.TB, hold float64, grid []float64, reps int, seed uint64) ImpulsiveConfig {
	return ImpulsiveConfig{
		Capacity:     100,
		Model:        traffic.NewRCBR(1, 0.3, 1),
		Controller:   mustCE(tb, 1e-2),
		MeasureCount: 20,
		HoldingTime:  hold,
		Grid:         grid,
		Replications: reps,
		Seed:         seed,
	}
}

// TestImpulsiveColumnarMatchesScalar is the tier-1 differential check: for
// several RCBR ensembles and seeds, the columnar engine's ImpulsiveResult
// must equal the scalar engine's bit for bit. The larger -race version
// lives in the stat tier (differential_stat_test.go).
func TestImpulsiveColumnarMatchesScalar(t *testing.T) {
	t.Run("rcbr", func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := ImpulsiveConfig{
				Capacity:     60,
				Model:        traffic.NewRCBR(1, 0.3, 1),
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
	t.Run("rcbr extra flows", func(t *testing.T) {
		for _, hold := range []float64{0, 50} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := extraFlowsConfig(t, hold, []float64{0, 0.5, 5, 20}, 25, seed)
				scalar, columnar := runBothImpulsive(t, cfg)
				assertImpulsiveEqual(t, scalar, columnar)
				if columnar.M0.Mean() <= float64(cfg.MeasureCount) {
					t.Fatalf("hold %g seed %d: mean M0 %g admits no flow beyond MeasureCount %d",
						hold, seed, columnar.M0.Mean(), cfg.MeasureCount)
				}
			}
		}
	})
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
