// Package mbac is a library for robust measurement-based admission control
// (MBAC), reproducing the framework of Grossglauser & Tse, "A Framework for
// Robust Measurement-Based Admission Control" (SIGCOMM 1997 / UCB ERL
// M98/17).
//
// The library answers the engineering question the paper poses: an
// admission controller that *measures* flow statistics instead of trusting
// declared ones must cope with estimation error, flow churn, and the
// correlation structure of traffic. Its two design knobs are the estimator
// memory window T_m and the certainty-equivalent target overflow
// probability p_ce; the paper's prescription — reproduced and validated
// here — is
//
//	T_m  = T~h = T_h/sqrt(n)   (the critical time-scale), and
//	p_ce = the inversion of the overflow formula at the desired QoS.
//
// # Layout
//
// The public API re-exports the building blocks from internal packages:
//
//   - admission controllers (certainty-equivalent MBAC, perfect-knowledge,
//     peak-rate, and measured-sum baselines);
//   - measurement estimators (memoryless, exponentially weighted, sliding
//     window, aggregate-only);
//   - traffic models (RCBR, on-off, Markov fluid, mixtures, traces, and a
//     long-range-dependent synthetic video generator);
//   - the analytical results (package-level functions mirroring the
//     paper's equations) and the Plan helper that applies them;
//   - the flow-level simulator used to validate everything.
//
// # Quick start
//
// Plan a robust MBAC for a link and check it by simulation:
//
//	sys := mbac.System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1}
//	plan, err := mbac.Plan(sys, 1e-3)
//	// plan.MemoryTm and plan.AdjustedPce configure the controller:
//	ctrl, err := mbac.NewCertaintyEquivalent(plan.AdjustedPce, 1, 0.3)
//	est := mbac.NewExponentialEstimator(plan.MemoryTm)
//
// See examples/ for complete programs and cmd/figures for the harness that
// regenerates every figure of the paper.
package mbac

import (
	"repro/client"
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/gauss"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// ---------------------------------------------------------------------------
// Gaussian toolbox.

// Q returns the standard normal tail probability Pr{N(0,1) > x}.
func Q(x float64) float64 { return gauss.Q(x) }

// Qinv returns Q^-1(p), the Gaussian safety factor for tail probability p.
func Qinv(p float64) float64 { return gauss.Qinv(p) }

// ---------------------------------------------------------------------------
// System parameters and theory.

// System collects the model parameters: link capacity, per-flow mean/sigma,
// mean holding time Th, traffic correlation time Tc and estimator memory Tm.
type System = theory.System

// RobustPlan is the output of Plan: the recommended memory window and
// adjusted certainty-equivalent target, with the predicted utilization cost.
type RobustPlan = theory.RobustPlan

// Plan computes the robust MBAC configuration of the paper's Section 5.3
// for a desired QoS target pq: memory window T_m = T~h and p_ce from
// inverting the overflow formula (numerical integral form, valid in all
// regimes).
func Plan(s System, pq float64) (RobustPlan, error) {
	return theory.PlanRobust(s, pq, theory.InvertIntegral)
}

// PlanClosedForm is Plan using the separation-of-time-scales closed form
// (eq. 38), as the paper does for its Figure 6.
func PlanClosedForm(s System, pq float64) (RobustPlan, error) {
	return theory.PlanRobust(s, pq, theory.InvertClosedForm)
}

// AdmissibleFlows returns m*: the number of flows admissible on capacity c
// at target overflow probability p when the flow statistics (mu, sigma) are
// known (eq. 4/42).
func AdmissibleFlows(c, mu, sigma, p float64) float64 {
	return theory.AdmissibleFlows(c, mu, sigma, p)
}

// ImpulsiveOverflow returns the sqrt-2 law (Prop. 3.3): the overflow
// probability a memoryless certainty-equivalent MBAC actually delivers
// under impulsive load when targeting pq.
func ImpulsiveOverflow(pq float64) float64 { return theory.ImpulsiveOverflow(pq) }

// OverflowIntegral evaluates the continuous-load overflow probability by
// the paper's hitting integral (eq. 32/37) for the system running at
// certainty-equivalent target pce.
func OverflowIntegral(s System, pce float64) float64 {
	return theory.ContinuousOverflowIntegral(s, pce)
}

// OverflowClosedForm evaluates the separation-of-time-scales closed form
// (eq. 33/38).
func OverflowClosedForm(s System, pce float64) float64 {
	return theory.ContinuousOverflowClosedForm(s, pce)
}

// OverflowTransient evaluates the overflow probability a finite time t
// after the continuous-load system started (Prop. 4.2 before t → ∞).
func OverflowTransient(s System, pce, t float64) float64 {
	return theory.ContinuousOverflowTransient(s, pce, t)
}

// OverflowGeneralACF evaluates the memoryless continuous-load overflow for
// an arbitrary flow autocorrelation rho with right derivative rhoPrime0 at
// 0 (eq. 30); pair with the ACF methods on the traffic models, e.g. a
// MarkovFluid's ACF/ACFDerivative0.
func OverflowGeneralACF(s System, pce float64, rho func(float64) float64, rhoPrime0 float64) float64 {
	return theory.ContinuousOverflowGeneralACF(s, pce, rho, rhoPrime0)
}

// ErlangB returns the classical Erlang-B blocking probability for m
// servers offered a Erlangs — the reference model for MBAC call blocking
// under finite arrival rates.
func ErlangB(m int, a float64) float64 { return theory.ErlangB(m, a) }

// ---------------------------------------------------------------------------
// Controllers.

// Measurement is the controller's view of the link at a decision instant.
type Measurement = core.Measurement

// Controller decides the admissible number of flows from a Measurement.
type Controller = core.Controller

// CertaintyEquivalent is the paper's measurement-based controller.
type CertaintyEquivalent = core.CertaintyEquivalent

// NewCertaintyEquivalent returns the certainty-equivalent MBAC with target
// pce and the given bootstrap declaration (used before measurements warm
// up).
func NewCertaintyEquivalent(pce, declaredMean, declaredSigma float64) (*CertaintyEquivalent, error) {
	return core.NewCertaintyEquivalent(pce, declaredMean, declaredSigma)
}

// NewPerfectKnowledge returns the genie baseline controller.
func NewPerfectKnowledge(c, mu, sigma, pq float64) (*core.PerfectKnowledge, error) {
	return core.NewPerfectKnowledge(c, mu, sigma, pq)
}

// PeakRate is the zero-multiplexing baseline admitting c/peak flows.
type PeakRate = core.PeakRate

// NewMeasuredSum returns the Jamin-style measured-sum controller with
// utilization target eta.
func NewMeasuredSum(eta, declaredRate float64) (*core.MeasuredSum, error) {
	return core.NewMeasuredSum(eta, declaredRate)
}

// NewBayesianCE returns a certainty-equivalent controller whose estimates
// are smoothed toward a prior with the given pseudo-observation weight —
// the Gibbens-Kelly-Key mechanism the paper compares against in Section 6.
func NewBayesianCE(pce, weight, priorMean, priorSigma float64) (*core.BayesianCE, error) {
	return core.NewBayesianCE(pce, weight, priorMean, priorSigma)
}

// ---------------------------------------------------------------------------
// Estimators.

// Estimator is the measurement process feeding a controller.
type Estimator = estimator.Estimator

// NewMemorylessEstimator returns the paper's eq. 7/23 estimator using only
// current bandwidths.
func NewMemorylessEstimator() Estimator { return estimator.NewMemoryless() }

// NewExponentialEstimator returns the estimator with memory window tm
// (first-order autoregressive filtering of the normalized cross-section,
// Section 4.3).
func NewExponentialEstimator(tm float64) Estimator { return estimator.NewExponential(tm) }

// NewPerFlowEstimator returns the exact per-flow filtered estimator of
// Section 4.3: every flow's bandwidth is filtered individually (O(1) per
// event via lazy bookkeeping); the simulator feeds it flow-level events
// automatically.
func NewPerFlowEstimator(tm float64) Estimator { return estimator.NewPerFlowExponential(tm) }

// NewWindowEstimator returns a sliding-window (boxcar) estimator over
// window w.
func NewWindowEstimator(w float64) Estimator { return estimator.NewWindow(w) }

// NewAggregateOnlyEstimator returns the Section 7 estimator that sees only
// the aggregate rate, inferring the variance from temporal fluctuation.
func NewAggregateOnlyEstimator(tm, tv float64) Estimator { return estimator.NewAggregateOnly(tm, tv) }

// ---------------------------------------------------------------------------
// Traffic.

// TrafficModel is a factory for i.i.d. flow sources.
type TrafficModel = traffic.Model

// Segment is one constant-rate epoch of a flow.
type Segment = traffic.Segment

// TrafficStats describes a model's stationary marginal.
type TrafficStats = traffic.Stats

// RCBR is the paper's renegotiated-CBR source: Gaussian marginal, i.i.d.
// exponential segment lengths with mean tc, autocorrelation exp(-|t|/tc).
func RCBR(mu, sigmaOverMu, tc float64) TrafficModel { return traffic.NewRCBR(mu, sigmaOverMu, tc) }

// OnOff is a two-state fluid source.
type OnOff = traffic.OnOff

// MarkovFluid is a K-state Markov-modulated fluid model; it exposes exact
// ACF and ACFDerivative0 methods for use with OverflowGeneralACF.
type MarkovFluid = traffic.MarkovFluid

// NewMarkovFluid returns a K-state Markov-modulated fluid model.
func NewMarkovFluid(rates []float64, gen [][]float64) (*MarkovFluid, error) {
	return traffic.NewMarkovFluid(rates, gen)
}

// NewMixture returns a heterogeneous population drawing each flow from one
// of the component models with the given weights (Section 5.4).
func NewMixture(models []TrafficModel, weights []float64) (TrafficModel, error) {
	return traffic.NewMixture(models, weights)
}

// Trace is a fixed-interval rate trace; TraceModel plays it cyclically from
// random offsets.
type Trace = trace.Trace

// TraceModel adapts a Trace into a TrafficModel.
type TraceModel = trace.Model

// VideoConfig parameterizes the synthetic long-range-dependent video trace.
type VideoConfig = trace.VideoConfig

// DefaultVideoConfig mirrors the gross statistics of the paper's
// piecewise-CBR Starwars trace (H ~ 0.8, CV ~ 0.3).
func DefaultVideoConfig() VideoConfig { return trace.DefaultVideoConfig() }

// SyntheticVideo builds an LRD piecewise-CBR trace (the redistributable
// substitute for the Starwars MPEG-1 trace; see DESIGN.md).
func SyntheticVideo(cfg VideoConfig, seed uint64) (*Trace, error) {
	return trace.SyntheticVideo(cfg, newRNG(seed))
}

// ---------------------------------------------------------------------------
// Simulation.

// SimConfig parameterizes a continuous-load simulation.
type SimConfig = sim.Config

// SimResult reports a run's measurements.
type SimResult = sim.Result

// SeriesPoint is one sampled instant of a run's trajectory (enabled via
// SimConfig.SeriesPeriod) — the M_t/N_t picture of the paper's Figure 2.
type SeriesPoint = sim.SeriesPoint

// BufferReport carries the fluid-buffer metrics produced when
// SimConfig.BufferSize is set (loss fraction, mean backlog/delay), for
// checking the paper's claim that bufferless analysis is conservative.
type BufferReport = link.BufferReport

// Simulate runs the continuous-load (infinite backlog) model to completion.
func Simulate(cfg SimConfig) (SimResult, error) {
	e, err := sim.New(cfg)
	if err != nil {
		return SimResult{}, err
	}
	return e.Run()
}

// ImpulsiveConfig parameterizes the impulsive-load ensemble of Section 3.
type ImpulsiveConfig = sim.ImpulsiveConfig

// ImpulsiveResult aggregates an impulsive ensemble.
type ImpulsiveResult = sim.ImpulsiveResult

// SimulateImpulsive runs the impulsive-load ensemble: a burst of admissions
// at time zero followed by pure departure dynamics, replicated many times.
func SimulateImpulsive(cfg ImpulsiveConfig) (*ImpulsiveResult, error) {
	return sim.RunImpulsive(cfg)
}

// ---------------------------------------------------------------------------
// Online admission gateway.

// Gateway is the sharded, goroutine-safe online admission gateway: the
// serving-shaped wrapper around a Controller and an Estimator. Concurrent
// Admit/Depart/UpdateRate calls are answered against the last published
// certainty-equivalent bound; a periodic measurement tick (virtual-clock
// Tick or wall-clock Run) re-estimates (μ̂, σ̂) from the sharded flow
// tables and republishes the bound.
type Gateway = gateway.Gateway

// GatewayConfig parameterizes a Gateway.
type GatewayConfig = gateway.Config

// GatewayStats is a consistent snapshot of a gateway's aggregate state.
type GatewayStats = gateway.Stats

// GatewayDecision reports the outcome of one Gateway.Admit call.
type GatewayDecision = gateway.Decision

// NewGateway validates the configuration and returns a ready gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// GatewayTuner is the adaptive-measurement seam (GatewayConfig.Tuner): an
// online controller that observes each measurement tick and retunes the
// estimator memory T_m.
type GatewayTuner = gateway.Tuner

// AdaptiveController is the Section 7 online time-scale controller: it
// estimates the traffic correlation time T̂_c from a streaming ACF of the
// aggregate rate and steers T_m toward the critical time-scale
// T̃_h = Th/√(c/μ̂) with hysteresis and rate-of-change clamps. It
// implements GatewayTuner.
type AdaptiveController = adaptive.Controller

// AdaptiveConfig parameterizes an AdaptiveController.
type AdaptiveConfig = adaptive.Config

// NewAdaptiveController validates the configuration and returns a
// controller ready to plug into GatewayConfig.Tuner.
func NewAdaptiveController(cfg AdaptiveConfig) (*AdaptiveController, error) {
	return adaptive.New(cfg)
}

// GatewayReason classifies one admission outcome (GatewayDecision.Reason).
type GatewayReason = gateway.Reason

// Admission outcomes, including the lease expiry produced by the TTL sweep.
const (
	GatewayAdmitted    = gateway.ReasonAdmitted
	GatewayCapacity    = gateway.ReasonCapacity
	GatewayInvalidRate = gateway.ReasonInvalidRate
	GatewayDuplicate   = gateway.ReasonDuplicate
	GatewayExpired     = gateway.ReasonExpired
)

// GatewayDegradedPolicy selects the fallback bound a degraded gateway
// enforces (GatewayConfig.Degraded): freeze the last healthy bound, fall
// back to the paper's a-priori peak-rate allocation c/peak, or reject all.
type GatewayDegradedPolicy = gateway.DegradedPolicy

const (
	GatewayDegradedFreeze    = gateway.DegradedFreeze
	GatewayDegradedPeakRate  = gateway.DegradedPeakRate
	GatewayDegradedRejectAll = gateway.DegradedRejectAll
)

// ---------------------------------------------------------------------------
// Observability.
//
// A Gateway's Snapshot method returns a GatewaySnapshot: counters, the
// published bound, the windowed overflow estimate p_f with its Wilson
// interval, the admission latency histogram, and the recent (μ̂, σ̂) ring —
// every quantity JSON-encodable and exportable as Prometheus text via its
// WritePrometheus method (see cmd/gateway's -listen endpoint).

// GatewaySnapshot is the observability snapshot of a Gateway; DESIGN.md
// maps each field to its paper quantity (eq. 6, 14, 22).
type GatewaySnapshot = gateway.Snapshot

// EstimatePoint is one measurement tick's (μ̂, σ̂) tagged with the
// estimator's filter memory T_m.
type EstimatePoint = metrics.EstimatePoint

// HistogramSnapshot is a point-in-time copy of a streaming histogram.
type HistogramSnapshot = metrics.HistogramSnapshot

// WindowedEstimate is a windowed Bernoulli rate (e.g. overflow probability
// p_f over the last N measurement ticks) with its Wilson interval.
type WindowedEstimate = stats.WindowedEstimate

// Wilson returns the Wilson score interval for hits successes in n trials
// at normal quantile z — the confidence interval used for all windowed
// p_f estimates.
func Wilson(hits, n int64, z float64) (lo, hi float64) { return stats.Wilson(hits, n, z) }

// QoSAudit continuously grades windowed overflow measurements against the
// QoS target p_q AND the √2-law prediction Q(α_q/√2) of Prop 3.3 (eq. 14):
// overflow above p_q but inside the √2 law is the known
// certainty-equivalence bias; overflow above the √2 law means the system
// is broken beyond what certainty equivalence explains.
type QoSAudit = qos.Audit

// QoSAuditConfig parameterizes a QoSAudit.
type QoSAuditConfig = qos.AuditConfig

// QoSAuditReport is one audit result: estimate, thresholds, verdict.
type QoSAuditReport = qos.Report

// QoSVerdict classifies a windowed overflow measurement.
type QoSVerdict = qos.Verdict

// Audit verdicts.
const (
	VerdictInsufficient     = qos.VerdictInsufficient
	VerdictOK               = qos.VerdictOK
	VerdictViolatesTarget   = qos.VerdictViolatesTarget
	VerdictViolatesSqrt2Law = qos.VerdictViolatesSqrt2Law
)

// NewQoSAudit validates the configuration and returns an audit.
func NewQoSAudit(cfg QoSAuditConfig) (*QoSAudit, error) { return qos.NewAudit(cfg) }

// ---------------------------------------------------------------------------
// Utility-based QoS (Section 7 future work).

// Utility scores the fraction of demand the link serves, for the
// adaptive-application QoS generalization; plug into SimConfig.Utility.
type Utility = qos.Utility

// StepUtility is the hard real-time utility (1 iff at least threshold of
// the demand is served); StepUtility(1) reproduces the overflow metric.
func StepUtility(threshold float64) Utility { return qos.Step(threshold) }

// LinearUtility values bandwidth proportionally.
func LinearUtility() Utility { return qos.Linear() }

// ConcaveUtility models adaptive applications (log-shaped, curvature k).
func ConcaveUtility(k float64) Utility { return qos.Concave(k) }

// ConvexUtility models inelastic-leaning applications (power p > 1).
func ConvexUtility(p float64) Utility { return qos.Convex(p) }

// ---------------------------------------------------------------------------
// Network serving layer.
//
// The wire protocol (internal/wire), the TCP admission server
// (internal/server) and the pooled pipelined client (package client) turn
// a Gateway into a network service; cmd/gateway -serve runs it and
// cmd/loadgen drives it. DESIGN.md documents the frame layout, the
// pipelining/batching semantics and the drain contract.

// AdmissionServer is the TCP server fronting a Gateway with the framed
// admission protocol: one goroutine per connection, pipelined Admit
// frames micro-batched into single AdmitBatch calls, and explicit
// robustness edges (max-conns refusal, deadlines, slow readers held by
// back-pressure and cut by the write deadline, frame-rate caps, graceful
// drain).
type AdmissionServer = server.Server

// AdmissionServerConfig parameterizes an AdmissionServer.
type AdmissionServerConfig = server.Config

// AdmissionServerSnapshot is the serving-layer observability view
// (connection and frame counters, the batch-size histogram), the
// mbac_server_* sibling of GatewaySnapshot.
type AdmissionServerSnapshot = server.Snapshot

// NewAdmissionServer validates the configuration and returns a server;
// Serve accepts on a caller-provided listener and Shutdown drains it.
func NewAdmissionServer(cfg AdmissionServerConfig) (*AdmissionServer, error) {
	return server.New(cfg)
}

// AdmissionClient is the pooled, pipelined Go client for the admission
// protocol; decisions come back as GatewayDecision values.
type AdmissionClient = client.Client

// AdmissionClientConfig parameterizes an AdmissionClient.
type AdmissionClientConfig = client.Config

// NewAdmissionClient validates the configuration and returns a client;
// connections dial lazily and redial after server drains or refusals.
func NewAdmissionClient(cfg AdmissionClientConfig) (*AdmissionClient, error) {
	return client.New(cfg)
}
