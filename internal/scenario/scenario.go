// Package scenario is the declarative experiment engine: a Config (a Go
// struct, JSON on disk) names a workload, a target substrate, the seeds,
// the controlled and varied variables, and a typed hypothesis; Run
// executes the seed x arm matrix deterministically on the shared worker
// pool, grades the outcome through the qos/stats layers, and returns a
// Result that renders as a FINDINGS-style markdown report plus a
// machine-readable JSON verdict.
//
// The point of the typed hypothesis is that a scenario cannot end in a
// shrug: every run grades to Confirmed, Refuted, or Inconclusive under
// rules fixed by the config, so the built-in scenario suite under
// scenarios/ doubles as an executable restatement of the paper's claims
// (the sqrt2 law of Prop 3.3 and its eq. 15 remedy, the continuous-load
// claims of Sections 4 and 5.3, certainty equivalence vs peak-rate
// provisioning, robustness of the serving layer under faults).
package scenario

import "repro/internal/enum"

// Verdict is the outcome of grading one scenario.
type Verdict int

const (
	// Inconclusive: the data cannot grade the hypothesis (too few window
	// samples, or a dominance comparison where both arms are zero).
	Inconclusive Verdict = iota
	// Confirmed: the hypothesis held for every seed of the matrix.
	Confirmed
	// Refuted: at least one seed contradicted the hypothesis.
	Refuted
	verdictEnd // sentinel: verdictNames names every constant above
)

var verdictNames = enum.New(Inconclusive, verdictEnd, "Inconclusive", "Confirmed", "Refuted")

// String implements fmt.Stringer.
func (v Verdict) String() string { return verdictNames.String(v) }

// ParseVerdict is the inverse of Verdict.String.
func ParseVerdict(s string) (Verdict, error) {
	return verdictNames.Parse("scenario: unknown verdict", s)
}

// MarshalText encodes the verdict as its string form.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText decodes the string form.
func (v *Verdict) UnmarshalText(b []byte) error { return enum.UnmarshalText(v, b, ParseVerdict) }

// HypothesisKind selects the grading rule a scenario's hypothesis uses.
type HypothesisKind int

const (
	// HypDominance compares one scalar metric between two named arms,
	// seed by seed: arm A must relate to arm B (greater/less) with at
	// least the configured effect-size ratio on every seed.
	HypDominance HypothesisKind = iota
	// HypInterval grades each cell's windowed overflow estimate against a
	// reference level (the sqrt2-law prediction, the target p_q, or an
	// explicit value): the Wilson interval must cover it, sit at or below
	// it, or sit at or above it.
	HypInterval
	// HypInvariant asserts structural predicates (flow-lifecycle
	// conservation, lease expiries observed, substrate identity) over
	// every cell of the matrix.
	HypInvariant
	hypothesisKindEnd // sentinel: hypothesisKindNames names every constant above
)

var hypothesisKindNames = enum.New(HypDominance, hypothesisKindEnd, "dominance", "interval", "invariant")

// String implements fmt.Stringer.
func (k HypothesisKind) String() string { return hypothesisKindNames.String(k) }

// ParseHypothesisKind is the inverse of HypothesisKind.String.
func ParseHypothesisKind(s string) (HypothesisKind, error) {
	return hypothesisKindNames.Parse("scenario: unknown hypothesis kind", s)
}

// MarshalText encodes the kind as its string form.
func (k HypothesisKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes the string form.
func (k *HypothesisKind) UnmarshalText(b []byte) error {
	return enum.UnmarshalText(k, b, ParseHypothesisKind)
}

// InvariantKind names one structural predicate an invariant hypothesis
// asserts over every cell.
type InvariantKind int

const (
	// InvLifecycle: Admitted = Departed + Expired + Active held at the end
	// of the (drained) run — gateway.Stats.LifecycleBalanced.
	InvLifecycle InvariantKind = iota
	// InvExpiredFlows: the lease sweep actually fired (Expired > 0) — the
	// check that a leaky-client scenario exercised reclamation rather than
	// passing vacuously.
	InvExpiredFlows
	// InvRejectedFlows: the controller actually refused work (Rejected >
	// 0) — guards against operating points too loose to mean anything.
	InvRejectedFlows
	// InvSubstrateIdentity: the network run produced decision counts and a
	// final gateway state identical to an in-process twin replaying the
	// same schedule. Only valid with the network target.
	InvSubstrateIdentity
	// InvMigratedFlows: the drain actually moved flows between instances
	// (Migrations > 0) — the check that a drain/failover scenario
	// exercised migration rather than passing vacuously. Only valid with
	// a cluster topology.
	InvMigratedFlows
	invariantKindEnd // sentinel: invariantKindNames names every constant above
)

var invariantKindNames = enum.New(InvLifecycle, invariantKindEnd,
	"lifecycle", "expired-flows", "rejected-flows", "substrate-identity", "migrated-flows")

// String implements fmt.Stringer.
func (k InvariantKind) String() string { return invariantKindNames.String(k) }

// ParseInvariantKind is the inverse of InvariantKind.String.
func ParseInvariantKind(s string) (InvariantKind, error) {
	return invariantKindNames.Parse("scenario: unknown invariant", s)
}

// MarshalText encodes the invariant as its string form.
func (k InvariantKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes the string form.
func (k *InvariantKind) UnmarshalText(b []byte) error {
	return enum.UnmarshalText(k, b, ParseInvariantKind)
}

// Metric names one per-cell scalar a dominance hypothesis can compare.
type Metric int

const (
	// MetricAdmitted: cumulative admissions.
	MetricAdmitted Metric = iota
	// MetricRejected: cumulative capacity rejections.
	MetricRejected
	// MetricExpired: cumulative lease-sweep reclaims.
	MetricExpired
	// MetricStormAdmitted: admissions granted while the gateway served
	// under its degraded policy.
	MetricStormAdmitted
	// MetricDegradedTicks: measurement ticks served degraded.
	MetricDegradedTicks
	// MetricUtilization: mean measured aggregate rate over capacity.
	MetricUtilization
	// MetricServedP50: median served seconds per decision (network target
	// only; 0 in-process).
	MetricServedP50
	// MetricServedP99: 99th-percentile served seconds per decision
	// (network target only; 0 in-process).
	MetricServedP99
	metricEnd // sentinel: metricNames names every constant above
)

var metricNames = enum.New(MetricAdmitted, metricEnd,
	"admitted", "rejected", "expired", "storm-admitted", "degraded-ticks",
	"utilization", "served-p50", "served-p99")

// String implements fmt.Stringer.
func (m Metric) String() string { return metricNames.String(m) }

// wallClock reports whether m is a wall-clock measurement (the served
// percentiles): only the network target produces it, and no run
// reproduces it, so the report records whether its bound held, not the
// value.
func (m Metric) wallClock() bool { return m == MetricServedP50 || m == MetricServedP99 }

// ParseMetric is the inverse of Metric.String.
func ParseMetric(s string) (Metric, error) { return metricNames.Parse("scenario: unknown metric", s) }

// MarshalText encodes the metric as its string form.
func (m Metric) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes the string form.
func (m *Metric) UnmarshalText(b []byte) error { return enum.UnmarshalText(m, b, ParseMetric) }

// Relation is the direction of a dominance comparison.
type Relation int

const (
	// RelGreater: arm A's metric must strictly exceed arm B's.
	RelGreater Relation = iota
	// RelLess: arm A's metric must be strictly below arm B's.
	RelLess
	relationEnd // sentinel: relationNames names every constant above
)

var relationNames = enum.New(RelGreater, relationEnd, "greater", "less")

// String implements fmt.Stringer.
func (r Relation) String() string { return relationNames.String(r) }

// ParseRelation is the inverse of Relation.String.
func ParseRelation(s string) (Relation, error) {
	return relationNames.Parse("scenario: unknown relation", s)
}

// MarshalText encodes the relation as its string form.
func (r Relation) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText decodes the string form.
func (r *Relation) UnmarshalText(b []byte) error { return enum.UnmarshalText(r, b, ParseRelation) }

// IntervalMode selects how an interval hypothesis grades the Wilson
// interval against its reference level.
type IntervalMode int

const (
	// IntervalCovers: the interval must contain the reference (the
	// prediction is consistent with the measurement).
	IntervalCovers IntervalMode = iota
	// IntervalAtMost: the interval's lower bound must not exceed the
	// reference (the measurement is not significantly above it).
	IntervalAtMost
	// IntervalAtLeast: the interval's upper bound must not fall below the
	// reference (the measurement is not significantly below it).
	IntervalAtLeast
	intervalModeEnd // sentinel: intervalModeNames names every constant above
)

var intervalModeNames = enum.New(IntervalCovers, intervalModeEnd, "covers", "at-most", "at-least")

// String implements fmt.Stringer.
func (m IntervalMode) String() string { return intervalModeNames.String(m) }

// ParseIntervalMode is the inverse of IntervalMode.String.
func ParseIntervalMode(s string) (IntervalMode, error) {
	return intervalModeNames.Parse("scenario: unknown interval mode", s)
}

// MarshalText encodes the mode as its string form.
func (m IntervalMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes the string form.
func (m *IntervalMode) UnmarshalText(b []byte) error {
	return enum.UnmarshalText(m, b, ParseIntervalMode)
}
