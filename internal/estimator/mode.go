package estimator

import (
	"fmt"

	"repro/internal/enum"
)

// Mode names the estimator families a gateway can be configured with — the
// vocabulary shared by the -estimator CLI flag, scenario configs, and
// reports. It exists alongside the Estimator interface because the seams
// that *construct* estimators (cmd/gateway, the scenario engine, cluster
// instance specs) need a validated, serializable selector before any
// workload statistics are known.
type Mode int

const (
	// ModeMemoryless: the instantaneous cross-section (eq. 7/23).
	ModeMemoryless Mode = iota
	// ModeExponential: the exponentially-weighted filter with memory T_m
	// (Section 4.3).
	ModeExponential
	// ModeWindow: the sliding boxcar window, the filter-ablation
	// alternative to ModeExponential.
	ModeWindow
	// ModeAggregate: the aggregate-only estimator (Section 7), which
	// needs no per-flow rate telemetry at all.
	ModeAggregate
	// ModeOracle: the perfect-knowledge baseline.
	ModeOracle
	modeEnd // sentinel: ModeNames names every constant above
)

// ModeNames is the estimator mode name table.
var ModeNames = enum.New(ModeMemoryless, modeEnd,
	"memoryless", "exponential", "window", "aggregate", "oracle")

// String implements fmt.Stringer.
func (m Mode) String() string { return ModeNames.String(m) }

// ParseMode is the inverse of Mode.String, for CLI flags and scenario
// configs.
func ParseMode(s string) (Mode, error) { return ModeNames.Parse("estimator: unknown mode", s) }

// New constructs the mode's estimator. memory is T_m (the window W for
// ModeWindow) and is ignored by the memoryless and oracle modes; tick is
// the measurement period in the estimator's time unit (a wall-clock
// gateway's tick interval in seconds), which sizes the aggregate
// estimator's variance memory T_v when memory is not positive — eight
// periods: long enough to see fluctuation across ticks, short enough to
// track load shifts; (mu, sigma) are the per-flow statistics the oracle
// reports.
func (m Mode) New(memory, tick, mu, sigma float64) (Estimator, error) {
	switch m {
	case ModeMemoryless:
		return NewMemoryless(), nil
	case ModeExponential, ModeWindow:
		if !(memory > 0) {
			return nil, fmt.Errorf("estimator: the %s estimator requires a positive memory, got %g", m, memory)
		}
		if m == ModeWindow {
			return NewWindow(memory), nil
		}
		return NewExponential(memory), nil
	case ModeAggregate:
		tv := memory
		if !(tv > 0) {
			tv = 8 * tick
		}
		if !(tv > 0) {
			return nil, fmt.Errorf("estimator: the aggregate estimator requires a positive memory or tick, got %g and %g", memory, tick)
		}
		return NewAggregateOnly(memory, tv), nil
	case ModeOracle:
		return &Oracle{Mu: mu, Sigma: sigma}, nil
	}
	return nil, fmt.Errorf("estimator: unknown mode %v", m)
}
