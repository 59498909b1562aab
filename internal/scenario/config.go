package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/estimator"
	"repro/internal/fault"
	gw "repro/internal/gateway"
	"repro/internal/qos"
	"repro/internal/theory"
)

// Config is one declarative scenario: the workload, the target substrate,
// the seeds (replication axis), the arms (varied variable), the fault
// schedule, and the typed hypothesis that grades the matrix. It decodes
// strictly — unknown fields, unknown names and non-finite numbers are
// rejected with positional errors — so a typo'd scenario fails loudly at
// load time, never by silently running a different experiment.
type Config struct {
	// Name is the scenario's identifier (also the report file stem).
	Name string `json:"name"`
	// Title is the human headline of the FINDINGS report.
	Title string `json:"title"`
	// HypothesisText is the prose statement of the hypothesis, quoted
	// verbatim in the report.
	HypothesisText string `json:"hypothesis_text"`
	// Seeds is the replication axis: the full matrix runs once per seed
	// and the hypothesis must hold on every one.
	Seeds []uint64 `json:"seeds"`
	// Target selects the substrate: "in-process" (direct gateway calls) or
	// "network" (client -> TCP server -> gateway on loopback).
	Target string `json:"target"`
	// Expect is the verdict the suite asserts; cmd/scenario -strict fails
	// when the graded verdict differs.
	Expect Verdict `json:"expect"`

	Workload Workload `json:"workload"`
	Gateway  Gateway  `json:"gateway"`
	// Cluster, when set, fans the gateway out to a fleet of identical
	// instances behind the headroom-scored router (internal/cluster).
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Arms is the varied variable: each arm names an admission policy (and
	// optionally a degraded policy) the whole workload is replayed
	// against.
	Arms []Arm `json:"arms"`
	// Faults is the estimator fault schedule, in virtual time.
	Faults []FaultWindow `json:"faults,omitempty"`

	Check Hypothesis `json:"check"`
}

// Workload describes the offered load.
type Workload struct {
	// Kind selects the driver: "impulsive" (the Prop 3.3 fill-then-redraw
	// steady state, one overflow indicator per replication), "churn"
	// (loadgen arrivals/departures replayed through the gateway with
	// measurement ticks) or "continuous" (the paper's Section 4 model: one
	// simulator run under an infinite backlog of flows, graded from its
	// point samples).
	Kind string `json:"kind"`

	// Impulsive fields.
	// Replications is the ensemble size per seed.
	Replications int `json:"replications,omitempty"`

	// Churn fields; continuous workloads take Hold and Duration (the
	// measured budget after the warm-up) only.
	Lambda   float64 `json:"lambda,omitempty"`   // flow arrival rate
	Hold     float64 `json:"hold,omitempty"`     // mean holding time
	Duration float64 `json:"duration,omitempty"` // schedule length, virtual time
	Tick     float64 `json:"tick,omitempty"`     // measurement period (default 0.5)
	// ArrivalCV selects Gamma-burst arrivals (see loadgen.Config).
	ArrivalCV float64 `json:"arrival_cv,omitempty"`

	// SVR and TC parameterize the default RCBR flow-rate model (mean 1);
	// Model overrides it. Impulsive workloads take SVR only: their flows
	// never renegotiate, so TC has nothing to set.
	SVR   float64    `json:"svr,omitempty"`
	TC    float64    `json:"tc,omitempty"`
	Model *ModelSpec `json:"model,omitempty"`

	// Crowd is the flash-crowd window (factor >= 1 required when set).
	Crowd *CrowdSpec `json:"crowd,omitempty"`
	// Clients is the misbehaving client population.
	Clients *ClientSpec `json:"clients,omitempty"`
	// Shift, when set, swaps the flow-rate model for flows arriving at or
	// after Shift.At — a mid-run change in the traffic's correlation
	// structure the adaptive measurement tier must detect (churn only).
	Shift *ShiftSpec `json:"shift,omitempty"`
	// Renegotiate turns on the paper's renegotiated-CBR dynamics: admitted
	// flows keep redrawing their rate at the model's segment boundaries
	// instead of freezing the admission draw, so the measured aggregate
	// fluctuates at the model's correlation time-scale (churn only).
	Renegotiate bool `json:"renegotiate,omitempty"`
}

// ShiftSpec is the JSON form of loadgen's mid-run model shift.
type ShiftSpec struct {
	// At is the virtual time from which arriving flows draw their rates
	// from Model instead of the workload's base model.
	At    float64   `json:"at"`
	Model ModelSpec `json:"model"`
}

// CrowdSpec is the JSON form of loadgen.Crowd.
type CrowdSpec struct {
	Factor float64 `json:"factor"`
	From   float64 `json:"from"`
	To     float64 `json:"to"`
}

// ClientSpec is the JSON form of fault.ClientPlan.
type ClientSpec struct {
	// LeakP is the probability a departing flow leaks its slot.
	LeakP float64 `json:"leak_p,omitempty"`
	// Lie multiplies the declared rate (0 or 1 = honest).
	Lie float64 `json:"lie,omitempty"`
}

// ModelSpec names a flow-rate model. Kind is one of "rcbr", "onoff",
// "constant" or "mixture"; mixture components recurse one level.
type ModelSpec struct {
	Kind string `json:"kind"`
	// rcbr: mean Mu (default 1), SVR, TC.
	Mu  float64 `json:"mu,omitempty"`
	SVR float64 `json:"svr,omitempty"`
	TC  float64 `json:"tc,omitempty"`
	// onoff: Peak, OnTime, OffTime.
	Peak    float64 `json:"peak,omitempty"`
	OnTime  float64 `json:"on_time,omitempty"`
	OffTime float64 `json:"off_time,omitempty"`
	// constant: Rate.
	Rate float64 `json:"rate,omitempty"`
	// mixture: weighted components.
	Mix []MixComponent `json:"mix,omitempty"`
}

// MixComponent is one weighted class of a mixture model.
type MixComponent struct {
	Weight float64   `json:"weight"`
	Model  ModelSpec `json:"model"`
}

// Gateway describes the controlled gateway configuration shared by every
// arm.
type Gateway struct {
	Capacity float64 `json:"capacity"`
	// PQ is the QoS target p_q the controllers aim at and the audit grades
	// against.
	PQ float64 `json:"pq"`
	// Estimator is "memoryless", "exponential", "window", "aggregate" or
	// "oracle"; Memory is T_m (exponential/aggregate, where 0 means a
	// memoryless mean) or W (window). The aggregate estimator decides from
	// the aggregate rate alone — no per-flow rate input (Section 7).
	Estimator string  `json:"estimator"`
	Memory    float64 `json:"memory,omitempty"`
	// Adaptive attaches the online time-scale controller: each cell
	// gateway retunes its estimator memory toward the critical time-scale
	// T~_h = Th/sqrt(n) measured from its own traffic (churn workloads
	// with a memory-bearing estimator only).
	Adaptive bool `json:"adaptive,omitempty"`
	// Th is the mean holding time the adaptive controller targets
	// (default: the churn workload's hold).
	Th float64 `json:"th,omitempty"`

	FlowTTL    float64 `json:"flow_ttl,omitempty"`
	StaleAfter int     `json:"stale_after,omitempty"`
}

// ClusterSpec replaces the single cell gateway with a fleet: Instances
// copies of the Gateway configuration (capacity is per instance) behind
// the placement router, with churn events routed through headroom
// scoring and flow pinning. The interval hypothesis then grades the
// WORST instance's overflow audit — the per-instance claim, not the
// fleet average. Cluster topologies require a churn workload on the
// in-process target, and are incompatible with estimator fault windows
// (those wrap a single estimator).
type ClusterSpec struct {
	// Instances is the fleet size (at least 2 — a cluster of one is just
	// the plain churn cell).
	Instances int `json:"instances"`
	// Policy is "least-loaded" (default), "weighted" or "round-robin".
	Policy string `json:"policy,omitempty"`
	// DrainAt, when positive, drains DrainInstance at that virtual time:
	// placement stops there immediately and its pinned flows migrate to
	// the rest of the fleet.
	DrainAt       float64 `json:"drain_at,omitempty"`
	DrainInstance int     `json:"drain_instance,omitempty"`
}

// Arm is one point of the varied variable: an admission policy plus the
// degraded-mode fallback it serves under.
type Arm struct {
	Name string `json:"name"`
	// Policy is "certainty-equivalent", "perfect-knowledge", "peak-rate"
	// or "measured-sum".
	Policy string `json:"policy"`
	// Peak is the peak-rate policy's per-flow peak (default: the model's
	// declared peak). It is required when the model declares no finite
	// peak, as RCBR does not.
	Peak float64 `json:"peak,omitempty"`
	// Eta is the measured-sum utilization target (required for that
	// policy).
	Eta float64 `json:"eta,omitempty"`
	// Degraded is the gateway's degraded policy for this arm: "freeze"
	// (default), "peak-rate" or "reject-all".
	Degraded string `json:"degraded,omitempty"`

	// Estimator, Memory and Adaptive override the shared gateway's
	// measurement configuration for this arm only, so a scenario can race
	// a fixed-memory estimator against the adaptive controller on the same
	// workload. Empty/zero/nil means "inherit".
	Estimator string  `json:"estimator,omitempty"`
	Memory    float64 `json:"memory,omitempty"`
	Adaptive  *bool   `json:"adaptive,omitempty"`

	// Plan derives a certainty-equivalent arm's target from the paper:
	// "eq15" (impulsive) aims at p_ce = Q(sqrt2 alpha_q); "robust"
	// (continuous) is Section 5.3's exponential memory T_m = T~h with p_ce
	// inverted from eq. 37 (theory.PlanRobust).
	Plan string `json:"plan,omitempty"`
}

// FaultWindow is the JSON form of fault.Window: a fault mode ("nan",
// "inf", "notok", "drop") over [From, To) virtual time.
type FaultWindow struct {
	Mode string  `json:"mode"`
	From float64 `json:"from"`
	To   float64 `json:"to"`
}

// Hypothesis is the typed grading rule. Exactly the variant named by Kind
// must be present.
type Hypothesis struct {
	Kind      HypothesisKind `json:"kind"`
	Dominance *Dominance     `json:"dominance,omitempty"`
	Interval  *Interval      `json:"interval,omitempty"`
	Invariant *Invariant     `json:"invariant,omitempty"`
}

// Dominance: on every seed, arm A's metric must relate to arm B's
// (strictly) and by at least MinRatio (default 1).
type Dominance struct {
	Metric   Metric   `json:"metric"`
	A        string   `json:"a"`
	B        string   `json:"b"`
	Relation Relation `json:"relation"`
	MinRatio float64  `json:"min_ratio,omitempty"`
}

// Interval grades each cell's windowed overflow estimate against a
// reference level.
type Interval struct {
	// Reference is "sqrt2-law" (Q(alpha_q/sqrt2) for the configured p_q),
	// "pq" (the target itself), "masking" (eq. 41's (SVR*alpha_q + 1)*p_q
	// from the churn workload's flow-rate marginal) or "value" (explicit
	// Value).
	Reference string       `json:"reference"`
	Value     float64      `json:"value,omitempty"`
	Mode      IntervalMode `json:"mode"`
	// Z is the Wilson quantile (default 1.96).
	Z float64 `json:"z,omitempty"`
	// QoSVerdict, when set, additionally requires the qos.Audit verdict of
	// every cell to equal it ("ok", "violates-target", ...).
	QoSVerdict string `json:"qos_verdict,omitempty"`
	// GradeAfter, when positive, excludes ticks before that virtual time
	// from the graded overflow audit: the cell's p_f interval covers only
	// the steady state after a warmup (or after a mid-run model shift),
	// not the transient. Requires a churn workload.
	GradeAfter float64 `json:"grade_after,omitempty"`

	ref reference // Reference, resolved by Validate
}

// Invariant asserts each named predicate over every cell.
type Invariant struct {
	Checks []InvariantKind `json:"checks,omitempty"`
	// Bounds additionally pin per-cell scalars: on every cell, each named
	// metric must be positive (so the bound cannot pass vacuously on a
	// substrate that never produces it) and at most the ceiling.
	Bounds []MetricBound `json:"bounds,omitempty"`
}

// MetricBound is one per-cell metric ceiling an invariant hypothesis pins.
type MetricBound struct {
	Metric Metric  `json:"metric"`
	AtMost float64 `json:"at_most"`
}

// Targets.
const (
	TargetInProcess = "in-process"
	TargetNetwork   = "network"
)

// Workload kinds.
const (
	WorkloadImpulsive  = "impulsive"
	WorkloadChurn      = "churn"
	WorkloadContinuous = "continuous"
)

// The names a config spells as plain strings, one table per set.
// Validation parses a name through its table; what runs afterwards
// switches on the typed constant.
var (
	targetNames       = enum.New(0, 2, TargetInProcess, TargetNetwork)
	workloadKindNames = enum.New(0, 3, WorkloadImpulsive, WorkloadChurn, WorkloadContinuous)
)

// modelKind is the family of a ModelSpec.
type modelKind int

const (
	modelRCBR modelKind = iota
	modelOnOff
	modelConstant
	modelMixture
	modelKindEnd // sentinel: modelKindNames names every constant above
)

var modelKindNames = enum.New(modelRCBR, modelKindEnd, "rcbr", "onoff", "constant", "mixture")

// reference is the level an Interval hypothesis grades against.
type reference int

const (
	refSqrt2Law reference = iota
	refPQ
	refMasking
	refValue
	referenceEnd // sentinel: referenceNames names every constant above
)

var referenceNames = enum.New(refSqrt2Law, referenceEnd, "sqrt2-law", "pq", "masking", "value")

// plan is the paper's recipe an arm derives its targets from.
type plan int

const (
	planEq15 plan = iota
	planRobust
	planEnd // sentinel: planNames names every constant above
)

var planNames = enum.New(planEq15, planEnd, "eq15", "robust")

// finite rejects NaN and Inf with a positional error.
func finite(path string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("scenario: %s: %g is not finite", path, v)
	}
	return nil
}

// positive additionally requires v > 0.
func positive(path string, v float64) error {
	if err := finite(path, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("scenario: %s: %g must be positive", path, v)
	}
	return nil
}

// Parse decodes a scenario config strictly and validates it. Defaults are
// filled in (idempotently), so Marshal of the result re-parses to the same
// value.
func Parse(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// A second document in the stream is a malformed scenario, not data to
	// ignore.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after config document")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Load reads and parses one scenario file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// Validate checks every field, rejecting non-finite rates and unknown
// names with positional errors, and fills defaults in place. It is
// idempotent.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if len(c.Seeds) == 0 {
		// Positional, like every other field error: an empty replication
		// axis would make every hypothesis grade vacuously.
		return fmt.Errorf("scenario: seeds: at least one seed is required")
	}
	seen := map[uint64]bool{}
	for i, s := range c.Seeds {
		if seen[s] {
			return fmt.Errorf("scenario: seeds[%d]: duplicate seed %d", i, s)
		}
		seen[s] = true
	}
	if c.Target == "" {
		c.Target = TargetInProcess
	}
	if _, err := targetNames.Parse("scenario: target: unknown substrate", c.Target); err != nil {
		return err
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if c.Workload.Kind == WorkloadContinuous {
		if err := c.continuousFields(); err != nil {
			return err
		}
	}
	if c.Target == TargetNetwork && c.Workload.Kind != WorkloadChurn {
		return fmt.Errorf("scenario: target: the network substrate requires a churn workload")
	}
	if err := c.Gateway.validate(); err != nil {
		return err
	}
	if len(c.Arms) == 0 {
		return fmt.Errorf("scenario: arms: at least one arm is required")
	}
	armNames := map[string]bool{}
	for i := range c.Arms {
		path := fmt.Sprintf("arms[%d]", i)
		if _, err := c.resolve(path, c.Arms[i]); err != nil {
			return err
		}
		if armNames[c.Arms[i].Name] {
			return fmt.Errorf("scenario: %s: duplicate arm name %q", path, c.Arms[i].Name)
		}
		armNames[c.Arms[i].Name] = true
	}
	if c.Gateway.Th != 0 {
		adaptiveSomewhere := c.Gateway.Adaptive
		for i := range c.Arms {
			if c.effectiveGateway(c.Arms[i]).Adaptive {
				adaptiveSomewhere = true
			}
		}
		if !adaptiveSomewhere {
			return fmt.Errorf("scenario: gateway.th: only valid with adaptive measurement on the gateway or an arm")
		}
	}
	// The windows themselves, like cluster.policy, were checked where they
	// are resolved: with the arms above.
	if len(c.Faults) > 0 && c.Workload.Kind != WorkloadChurn {
		return fmt.Errorf("scenario: faults: fault windows require a churn workload")
	}
	if c.Cluster != nil {
		if err := c.Cluster.validate(c); err != nil {
			return err
		}
	}
	return c.Check.validate(c)
}

func (s *ClusterSpec) validate(c *Config) error {
	if s.Instances < 2 {
		return fmt.Errorf("scenario: cluster.instances: %d must be at least 2 (a cluster of one is the plain churn cell)", s.Instances)
	}
	if c.Workload.Kind != WorkloadChurn {
		return fmt.Errorf("scenario: cluster: a cluster topology requires a churn workload")
	}
	if c.Target != TargetInProcess {
		return fmt.Errorf("scenario: cluster: a cluster topology requires the in-process target")
	}
	if len(c.Faults) > 0 {
		return fmt.Errorf("scenario: cluster: estimator fault windows are not supported with a cluster topology")
	}
	if s.Policy == "" {
		s.Policy = cluster.PlaceLeastLoaded.String()
	}
	if err := finite("cluster.drain_at", s.DrainAt); err != nil {
		return err
	}
	if s.DrainAt < 0 {
		return fmt.Errorf("scenario: cluster.drain_at: %g must be non-negative", s.DrainAt)
	}
	if s.DrainAt > 0 && s.DrainAt >= c.Workload.Duration {
		return fmt.Errorf("scenario: cluster.drain_at: %g must fall inside the schedule (duration %g)", s.DrainAt, c.Workload.Duration)
	}
	if s.DrainInstance < 0 || s.DrainInstance >= s.Instances {
		return fmt.Errorf("scenario: cluster.drain_instance: %d out of range [0, %d)", s.DrainInstance, s.Instances)
	}
	return nil
}

// continuousFields rejects, by path, what a continuous cell would silently
// ignore: it runs the simulator under an infinite backlog, not a gateway.
// The target, cluster, fault and arm checks already require churn.
func (c *Config) continuousFields() error {
	w, g := &c.Workload, &c.Gateway
	for _, f := range []struct {
		path string
		set  bool
	}{
		{"workload.replications", w.Replications != 0}, {"workload.lambda", w.Lambda != 0},
		{"workload.tick", w.Tick != 0}, {"workload.arrival_cv", w.ArrivalCV != 0},
		{"workload.crowd", w.Crowd != nil}, {"workload.clients", w.Clients != nil},
		{"workload.shift", w.Shift != nil}, {"workload.renegotiate", w.Renegotiate},
		{"gateway.adaptive", g.Adaptive}, {"gateway.flow_ttl", g.FlowTTL != 0},
		{"gateway.stale_after", g.StaleAfter != 0},
	} {
		if f.set {
			return fmt.Errorf("scenario: %s: not valid for a continuous workload", f.path)
		}
	}
	return nil
}

func (w *Workload) validate() error {
	if w.Kind == "" {
		return fmt.Errorf("scenario: workload.kind is required (want %s)", workloadKindNames.List())
	}
	if _, err := workloadKindNames.Parse("scenario: workload.kind: unknown kind", w.Kind); err != nil {
		return err
	}
	switch w.Kind {
	case WorkloadImpulsive:
		if w.Replications <= 0 {
			return fmt.Errorf("scenario: workload.replications: %d must be positive for an impulsive workload", w.Replications)
		}
		if err := positive("workload.svr", w.SVR); err != nil {
			return err
		}
		if w.Lambda != 0 || w.Hold != 0 || w.Duration != 0 || w.Tick != 0 || w.ArrivalCV != 0 || w.TC != 0 ||
			w.Model != nil || w.Crowd != nil || w.Clients != nil || w.Shift != nil || w.Renegotiate {
			return fmt.Errorf("scenario: workload: churn fields (lambda/hold/duration/tick/arrival_cv/tc/model/crowd/clients/shift/renegotiate) are not valid for an impulsive workload")
		}
	case WorkloadChurn, WorkloadContinuous:
		if w.Kind == WorkloadChurn {
			if err := positive("workload.lambda", w.Lambda); err != nil {
				return err
			}
		}
		if err := positive("workload.hold", w.Hold); err != nil {
			return err
		}
		if err := positive("workload.duration", w.Duration); err != nil {
			return err
		}
		if w.Model != nil {
			if err := w.Model.validate("workload.model", false); err != nil {
				return err
			}
			if w.SVR != 0 || w.TC != 0 {
				return fmt.Errorf("scenario: workload: svr/tc and an explicit model are mutually exclusive")
			}
		} else {
			if err := positive("workload.svr", w.SVR); err != nil {
				return err
			}
			if w.TC == 0 {
				w.TC = 1
			}
			if err := positive("workload.tc", w.TC); err != nil {
				return err
			}
		}
		if w.Kind == WorkloadContinuous {
			return nil // the churn-only fields are Config.continuousFields'
		}
		if w.Tick == 0 {
			w.Tick = 0.5
		}
		if err := positive("workload.tick", w.Tick); err != nil {
			return err
		}
		if err := finite("workload.arrival_cv", w.ArrivalCV); err != nil {
			return err
		}
		if w.ArrivalCV < 0 {
			return fmt.Errorf("scenario: workload.arrival_cv: %g must be non-negative", w.ArrivalCV)
		}
		if w.Crowd != nil {
			if err := finite("workload.crowd.factor", w.Crowd.Factor); err != nil {
				return err
			}
			if w.Crowd.Factor < 1 {
				return fmt.Errorf("scenario: workload.crowd.factor: %g must be >= 1", w.Crowd.Factor)
			}
			if err := finite("workload.crowd.from", w.Crowd.From); err != nil {
				return err
			}
			if err := finite("workload.crowd.to", w.Crowd.To); err != nil {
				return err
			}
			if !(w.Crowd.To > w.Crowd.From) {
				return fmt.Errorf("scenario: workload.crowd: window [%g, %g) is empty", w.Crowd.From, w.Crowd.To)
			}
		}
		if w.Clients != nil {
			plan := fault.ClientPlan{LeakP: w.Clients.LeakP, Lie: w.Clients.Lie}
			if plan.Lie == 0 {
				plan.Lie = 1
			}
			if err := plan.Validate(); err != nil {
				return fmt.Errorf("scenario: workload.clients: %w", err)
			}
		}
		if w.Shift != nil {
			if err := positive("workload.shift.at", w.Shift.At); err != nil {
				return err
			}
			if w.Shift.At >= w.Duration {
				return fmt.Errorf("scenario: workload.shift.at: %g must fall inside the schedule (duration %g)", w.Shift.At, w.Duration)
			}
			if err := w.Shift.Model.validate("workload.shift.model", false); err != nil {
				return err
			}
		}
		if w.Replications != 0 {
			return fmt.Errorf("scenario: workload.replications: only valid for an impulsive workload")
		}
	}
	return nil
}

// kind resolves the model's family name; path anchors the error.
func (m *ModelSpec) kind(path string) (modelKind, error) {
	return modelKindNames.Parse("scenario: "+path+".kind: unknown model", m.Kind)
}

// validate checks one model spec; component marks a mixture's component,
// which may not itself be a mixture.
func (m *ModelSpec) validate(path string, component bool) error {
	if m.Kind == "" {
		return fmt.Errorf("scenario: %s.kind is required", path)
	}
	kind, err := m.kind(path)
	if err != nil {
		return err
	}
	switch kind {
	case modelRCBR:
		if m.Mu == 0 {
			m.Mu = 1
		}
		if err := positive(path+".mu", m.Mu); err != nil {
			return err
		}
		if err := positive(path+".svr", m.SVR); err != nil {
			return err
		}
		if m.TC == 0 {
			m.TC = 1
		}
		if err := positive(path+".tc", m.TC); err != nil {
			return err
		}
	case modelOnOff:
		if err := positive(path+".peak", m.Peak); err != nil {
			return err
		}
		if err := positive(path+".on_time", m.OnTime); err != nil {
			return err
		}
		if err := positive(path+".off_time", m.OffTime); err != nil {
			return err
		}
	case modelConstant:
		if err := positive(path+".rate", m.Rate); err != nil {
			return err
		}
	case modelMixture:
		if component {
			return fmt.Errorf("scenario: %s: mixtures do not nest", path)
		}
		if len(m.Mix) < 2 {
			return fmt.Errorf("scenario: %s.mix: a mixture needs at least two components", path)
		}
		for i := range m.Mix {
			p := fmt.Sprintf("%s.mix[%d]", path, i)
			if err := positive(p+".weight", m.Mix[i].Weight); err != nil {
				return err
			}
			if err := m.Mix[i].Model.validate(p+".model", true); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *Gateway) validate() error {
	if err := positive("gateway.capacity", g.Capacity); err != nil {
		return err
	}
	if err := positive("gateway.pq", g.PQ); err != nil {
		return err
	}
	if g.PQ >= 0.5 {
		return fmt.Errorf("scenario: gateway.pq: %g must be below 0.5", g.PQ)
	}
	if g.Estimator == "" {
		g.Estimator = estimator.ModeMemoryless.String()
	}
	if _, err := validateEstimatorSpec("gateway", g.Estimator, g.Memory); err != nil {
		return err
	}
	if err := finite("gateway.th", g.Th); err != nil {
		return err
	}
	if g.Th < 0 {
		return fmt.Errorf("scenario: gateway.th: %g must be non-negative", g.Th)
	}
	if err := finite("gateway.flow_ttl", g.FlowTTL); err != nil {
		return err
	}
	if g.FlowTTL < 0 {
		return fmt.Errorf("scenario: gateway.flow_ttl: %g must be non-negative", g.FlowTTL)
	}
	if g.StaleAfter < 0 {
		return fmt.Errorf("scenario: gateway.stale_after: %d must be non-negative", g.StaleAfter)
	}
	return nil
}

// validateEstimatorSpec resolves and checks one (estimator, memory) pair;
// path anchors the error ("gateway" or "arms[i]"). The aggregate estimator
// accepts memory 0 (a memoryless aggregate mean) because the adaptive
// controller supplies the time-scale online.
func validateEstimatorSpec(path, est string, memory float64) (estimator.Mode, error) {
	mode, err := estimator.ParseMode(est)
	if err != nil {
		return 0, fmt.Errorf("scenario: %s.estimator: %w", path, err)
	}
	switch mode {
	case estimator.ModeMemoryless, estimator.ModeOracle:
		if memory != 0 {
			return 0, fmt.Errorf("scenario: %s.memory: not valid for the %s estimator", path, mode)
		}
	case estimator.ModeExponential, estimator.ModeWindow:
		if err := positive(path+".memory", memory); err != nil {
			return 0, err
		}
	case estimator.ModeAggregate:
		if err := finite(path+".memory", memory); err != nil {
			return 0, err
		}
		if memory < 0 {
			return 0, fmt.Errorf("scenario: %s.memory: %g must be non-negative", path, memory)
		}
	}
	return mode, nil
}

// effectiveGateway resolves the measurement configuration one arm's cell
// runs under: the shared gateway spec with the arm's estimator/memory/
// adaptive overrides applied. An arm that overrides the estimator kind
// starts from memory 0 unless it sets its own, so a "window 5" base can
// be raced against an "aggregate" arm without inheriting a nonsense W.
func (c *Config) effectiveGateway(arm Arm) Gateway {
	g := c.Gateway
	if arm.Estimator != "" {
		g.Estimator = arm.Estimator
		g.Memory = 0
	}
	if arm.Memory != 0 {
		g.Memory = arm.Memory
	}
	if arm.Adaptive != nil {
		g.Adaptive = *arm.Adaptive
	}
	return g
}

// armSpec is one arm resolved for execution: its names — and the names the
// whole matrix shares, fault modes and the placement policy — parsed to
// typed constants, a peak-rate arm's Peak defaulted to the model's, and
// its measurement overrides merged over the shared gateway spec. Validate
// resolves every arm to check it; a cell resolves its arm once, so nothing
// it builds parses a name again.
type armSpec struct {
	Arm
	policy    core.Policy
	degraded  gw.DegradedPolicy
	gateway   Gateway                 // effectiveGateway(Arm), or the robust plan's estimator
	mode      estimator.Mode          // of gateway.Estimator
	target    float64                 // the controller's target: gateway.PQ, or the plan's p_ce
	faults    []fault.Window          // Config.Faults
	placement cluster.PlacementPolicy // Config.Cluster.Policy
}

// resolve checks one arm against the config and returns it resolved; path
// anchors the errors ("arms[i]").
func (c *Config) resolve(path string, arm Arm) (armSpec, error) {
	a := armSpec{Arm: arm, gateway: c.effectiveGateway(arm)}
	if arm.Name == "" {
		return a, fmt.Errorf("scenario: %s.name is required", path)
	}
	if arm.Policy == "" {
		return a, fmt.Errorf("scenario: %s.policy is required", path)
	}
	var err error
	if a.policy, err = core.PolicyNames.Parse("scenario: "+path+".policy: unknown policy", arm.Policy); err != nil {
		return a, err
	}
	switch a.policy {
	case core.PolicyPeakRate:
		if arm.Peak != 0 {
			if err := positive(path+".peak", arm.Peak); err != nil {
				return a, err
			}
		} else {
			m, err := buildModel(&c.Workload)
			if err != nil {
				return a, err
			}
			if a.Peak = m.Stats().Peak; math.IsInf(a.Peak, 1) {
				return a, fmt.Errorf("scenario: %s.peak is required: the workload's model declares no finite peak", path)
			}
		}
	case core.PolicyMeasuredSum:
		if err := positive(path+".eta", arm.Eta); err != nil {
			return a, err
		}
		if arm.Eta > 1 {
			return a, fmt.Errorf("scenario: %s.eta: %g must be in (0, 1]", path, arm.Eta)
		}
	}
	if arm.Degraded != "" { // default: the zero value, freeze
		if c.Workload.Kind == WorkloadContinuous {
			return a, fmt.Errorf("scenario: %s.degraded: not valid for a continuous workload", path)
		}
		if a.degraded, err = gw.ParseDegradedPolicy(arm.Degraded); err != nil {
			return a, fmt.Errorf("scenario: %s.degraded: %w", path, err)
		}
	}
	a.target = a.gateway.PQ
	if arm.Plan != "" {
		if err := c.resolvePlan(path, &a); err != nil {
			return a, err
		}
	}
	// The arm's effective measurement spec must stand on its own:
	// overrides merge before validation, so a memory override on an
	// inherited window estimator is checked against window's rules.
	if a.mode, err = validateEstimatorSpec(path, a.gateway.Estimator, a.gateway.Memory); err != nil {
		return a, err
	}
	// A continuous cell has no tick to size the aggregate estimator's
	// variance memory from.
	if a.mode == estimator.ModeAggregate && c.Workload.Kind == WorkloadContinuous && a.gateway.Memory == 0 {
		return a, fmt.Errorf("scenario: %s.memory: the aggregate estimator needs a positive memory on a continuous workload", path)
	}
	if a.gateway.Adaptive {
		if c.Workload.Kind != WorkloadChurn {
			return a, fmt.Errorf("scenario: %s: adaptive measurement requires a churn workload", path)
		}
		switch a.mode {
		case estimator.ModeExponential, estimator.ModeWindow, estimator.ModeAggregate:
		default:
			return a, fmt.Errorf("scenario: %s: adaptive measurement requires a retunable estimator (%s, %s or %s), not %q",
				path, estimator.ModeExponential, estimator.ModeWindow, estimator.ModeAggregate, a.gateway.Estimator)
		}
	}
	if len(c.Faults) > 0 {
		a.faults = make([]fault.Window, len(c.Faults))
		for i, f := range c.Faults {
			m, err := fault.ParseMode(f.Mode)
			if err != nil {
				return a, fmt.Errorf("scenario: faults[%d]: %w", i, err)
			}
			a.faults[i] = fault.Window{Mode: m, From: f.From, To: f.To}
		}
		if err := fault.ValidateWindows(a.faults); err != nil {
			return a, fmt.Errorf("scenario: faults: %w", err)
		}
	}
	if c.Cluster != nil && c.Cluster.Policy != "" { // default: the zero value, least-loaded
		if a.placement, err = cluster.ParsePlacementPolicy(c.Cluster.Policy); err != nil {
			return a, fmt.Errorf("scenario: cluster.policy: %w", err)
		}
	}
	return a, nil
}

// resolvePlan derives the arm's controller target — and, for the robust
// recipe, its estimator — from the paper's formulas.
func (c *Config) resolvePlan(path string, a *armSpec) error {
	p, err := planNames.Parse("scenario: "+path+".plan: unknown plan", a.Plan)
	if err != nil {
		return err
	}
	if a.policy != core.PolicyCertaintyEquivalent {
		return fmt.Errorf("scenario: %s.plan: only the %s policy takes a plan, not %s", path, core.PolicyCertaintyEquivalent, a.policy)
	}
	switch p {
	case planEq15:
		if c.Workload.Kind != WorkloadImpulsive {
			return fmt.Errorf("scenario: %s.plan: eq15 requires an impulsive workload", path)
		}
		a.target = theory.ImpulsiveAdjustedTarget(a.gateway.PQ)
	case planRobust:
		if c.Workload.Kind != WorkloadContinuous {
			return fmt.Errorf("scenario: %s.plan: robust requires a continuous workload", path)
		}
		if a.Estimator != "" || a.Memory != 0 {
			return fmt.Errorf("scenario: %s.plan: robust sets the estimator and its memory; the arm may not", path)
		}
		m, err := buildModel(&c.Workload)
		if err != nil {
			return err
		}
		ts := m.Stats()
		sys := theory.System{Capacity: c.Gateway.Capacity, Mu: ts.Mean, Sigma: ts.StdDev(), Th: c.Workload.Hold, Tc: ts.CorrTime}
		rp, err := theory.PlanRobust(sys, a.gateway.PQ, theory.InvertIntegral)
		if err != nil {
			return fmt.Errorf("scenario: %s.plan: %w", path, err)
		}
		a.target = rp.AdjustedPce
		a.gateway.Estimator, a.gateway.Memory = estimator.ModeExponential.String(), rp.MemoryTm
	}
	return nil
}

// continuousMetric reports whether a continuous cell produces m: the
// simulator counts admissions and carried load, and nothing else a metric
// names.
func continuousMetric(m Metric) bool { return m == MetricAdmitted || m == MetricUtilization }

func (h *Hypothesis) validate(c *Config) error {
	variants := 0
	for _, set := range []bool{h.Dominance != nil, h.Interval != nil, h.Invariant != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		return fmt.Errorf("scenario: check: exactly one of dominance, interval or invariant must be set")
	}
	switch h.Kind {
	case HypDominance:
		d := h.Dominance
		if d == nil {
			return fmt.Errorf("scenario: check.dominance is required for kind dominance")
		}
		if len(c.Arms) < 2 {
			return fmt.Errorf("scenario: check.dominance: needs at least two arms")
		}
		if !hasArm(c.Arms, d.A) {
			return fmt.Errorf("scenario: check.dominance.a: unknown arm %q", d.A)
		}
		if !hasArm(c.Arms, d.B) {
			return fmt.Errorf("scenario: check.dominance.b: unknown arm %q", d.B)
		}
		if d.A == d.B {
			return fmt.Errorf("scenario: check.dominance: arms a and b must differ")
		}
		if c.Workload.Kind == WorkloadContinuous && !continuousMetric(d.Metric) {
			return fmt.Errorf("scenario: check.dominance.metric: a continuous workload does not produce %s", d.Metric)
		}
		if d.MinRatio == 0 {
			d.MinRatio = 1
		}
		if err := positive("check.dominance.min_ratio", d.MinRatio); err != nil {
			return err
		}
	case HypInterval:
		iv := h.Interval
		if iv == nil {
			return fmt.Errorf("scenario: check.interval is required for kind interval")
		}
		if iv.Reference == "" {
			return fmt.Errorf("scenario: check.interval.reference is required (want %s)", referenceNames.List())
		}
		ref, err := referenceNames.Parse("scenario: check.interval.reference: unknown reference", iv.Reference)
		if err != nil {
			return err
		}
		iv.ref = ref
		if ref == refValue {
			if err := positive("check.interval.value", iv.Value); err != nil {
				return err
			}
		} else if iv.Value != 0 {
			return fmt.Errorf("scenario: check.interval.value: only valid with reference %q", referenceNames.String(refValue))
		}
		// Eq. 41's masking-regime prediction (SVR*alpha_q + 1) * p_q is
		// computed from the churn workload's flow-rate marginal.
		if ref == refMasking && c.Workload.Kind != WorkloadChurn {
			return fmt.Errorf("scenario: check.interval.reference: the masking reference requires a churn workload")
		}
		if iv.Z == 0 {
			iv.Z = 1.96
		}
		if err := positive("check.interval.z", iv.Z); err != nil {
			return err
		}
		if iv.QoSVerdict != "" {
			if _, err := qos.ParseVerdict(iv.QoSVerdict); err != nil {
				return fmt.Errorf("scenario: check.interval.qos_verdict: %w", err)
			}
		}
		if iv.GradeAfter != 0 {
			if err := positive("check.interval.grade_after", iv.GradeAfter); err != nil {
				return err
			}
			if c.Workload.Kind != WorkloadChurn {
				return fmt.Errorf("scenario: check.interval.grade_after: requires a churn workload")
			}
			if iv.GradeAfter >= c.Workload.Duration {
				return fmt.Errorf("scenario: check.interval.grade_after: %g must fall inside the schedule (duration %g)", iv.GradeAfter, c.Workload.Duration)
			}
		}
	case HypInvariant:
		inv := h.Invariant
		if inv == nil {
			return fmt.Errorf("scenario: check.invariant is required for kind invariant")
		}
		if len(inv.Checks) == 0 && len(inv.Bounds) == 0 {
			return fmt.Errorf("scenario: check.invariant: at least one check or bound is required")
		}
		for i, k := range inv.Checks {
			if !invariantKindNames.Valid(k) {
				return fmt.Errorf("scenario: check.invariant.checks[%d]: unknown invariant %d", i, int(k))
			}
			if k == InvSubstrateIdentity && c.Target != TargetNetwork {
				return fmt.Errorf("scenario: check.invariant.checks[%d]: substrate-identity requires the network target", i)
			}
			if k == InvMigratedFlows && c.Cluster == nil {
				return fmt.Errorf("scenario: check.invariant.checks[%d]: migrated-flows requires a cluster topology", i)
			}
			if k != InvLifecycle && c.Workload.Kind == WorkloadContinuous {
				return fmt.Errorf("scenario: check.invariant.checks[%d]: a continuous workload does not produce %s", i, k)
			}
		}
		for i, b := range inv.Bounds {
			if !metricNames.Valid(b.Metric) {
				return fmt.Errorf("scenario: check.invariant.bounds[%d].metric: unknown metric %d", i, int(b.Metric))
			}
			if err := positive(fmt.Sprintf("check.invariant.bounds[%d].at_most", i), b.AtMost); err != nil {
				return err
			}
			if b.Metric.wallClock() && c.Target != TargetNetwork {
				return fmt.Errorf("scenario: check.invariant.bounds[%d].metric: %s requires the network target", i, b.Metric)
			}
			if c.Workload.Kind == WorkloadContinuous && !continuousMetric(b.Metric) {
				return fmt.Errorf("scenario: check.invariant.bounds[%d].metric: a continuous workload does not produce %s", i, b.Metric)
			}
		}
	default:
		return fmt.Errorf("scenario: check.kind: unknown hypothesis kind %d", int(h.Kind))
	}
	return nil
}

func hasArm(arms []Arm, name string) bool {
	for _, a := range arms {
		if a.Name == name {
			return true
		}
	}
	return false
}
