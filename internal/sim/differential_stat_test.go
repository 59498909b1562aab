//go:build stat

package sim

import (
	"testing"

	"repro/internal/traffic"
)

// TestStatColumnarDifferential is the stat-tier version of the columnar/
// scalar equivalence check: larger RCBR ensembles (enough replications to
// span several worker stripes and force arena recycling and column growth),
// more seeds, and finer probe grids, including one whose controller admits
// flows beyond MeasureCount. The Makefile runs this tier under -race as
// well: the columnar path keeps worker-local arenas alive across
// replications and hands scratch state between stripes, exactly the
// sharing the race detector should see under real load.
func TestStatColumnarDifferential(t *testing.T) {
	grid := []float64{0.25, 0.5, 1, 2, 5, 10, 25, 50}
	cases := map[string]func(seed uint64) ImpulsiveConfig{
		"rcbr": func(seed uint64) ImpulsiveConfig {
			return ImpulsiveConfig{
				Capacity:     100,
				Model:        traffic.NewRCBR(1, 0.3, 1),
				Controller:   mustCE(t, 1e-2),
				MeasureCount: 100,
				HoldingTime:  100,
				Grid:         grid,
				Replications: 200,
				Seed:         seed,
			}
		},
		"rcbr extra flows hold 0": func(seed uint64) ImpulsiveConfig {
			return extraFlowsConfig(t, 0, append([]float64{0}, grid...), 200, seed)
		},
		"rcbr extra flows hold 50": func(seed uint64) ImpulsiveConfig {
			return extraFlowsConfig(t, 50, append([]float64{0}, grid...), 200, seed)
		},
	}
	for name, cfgFor := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				scalar, columnar := runBothImpulsive(t, cfgFor(seed))
				assertImpulsiveEqual(t, scalar, columnar)
			}
		})
	}
}
