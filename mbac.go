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
// The package is the facade the example programs use; every name in it is
// reached by a program or an Example (reach_test.go holds that line). It
// re-exports from internal packages:
//
//   - the Gaussian tail Q and its inverse Qinv;
//   - the analytical results the recipe needs (AdmissibleFlows,
//     ImpulsiveOverflow, OverflowIntegral) and the Plan helper that applies
//     them;
//   - the certainty-equivalent controller and the perfect-knowledge
//     baseline;
//   - the memoryless, exponentially weighted and aggregate-only estimators;
//   - traffic models: RCBR and mixtures;
//   - the flow-level simulator used to validate everything;
//   - the online admission gateway.
//
// The rest of the machinery (the serving layer, observability, the other
// baselines and estimators) lives in internal packages driven by the
// programs under cmd/; the pooled network client is package client.
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
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/gauss"
	"repro/internal/sim"
	"repro/internal/theory"
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

// ---------------------------------------------------------------------------
// Controllers.

// Controller decides the admissible number of flows from a measurement of
// the link.
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

// NewAggregateOnlyEstimator returns the Section 7 estimator that sees only
// the aggregate rate, inferring the variance from temporal fluctuation.
func NewAggregateOnlyEstimator(tm, tv float64) Estimator { return estimator.NewAggregateOnly(tm, tv) }

// ---------------------------------------------------------------------------
// Traffic.

// TrafficModel is a factory for i.i.d. flow sources.
type TrafficModel = traffic.Model

// RCBR is the paper's renegotiated-CBR source: Gaussian marginal, i.i.d.
// exponential segment lengths with mean tc, autocorrelation exp(-|t|/tc).
func RCBR(mu, sigmaOverMu, tc float64) TrafficModel { return traffic.NewRCBR(mu, sigmaOverMu, tc) }

// NewMixture returns a heterogeneous population drawing each flow from one
// of the component models with the given weights (Section 5.4).
func NewMixture(models []TrafficModel, weights []float64) (TrafficModel, error) {
	return traffic.NewMixture(models, weights)
}

// ---------------------------------------------------------------------------
// Simulation.

// SimConfig parameterizes a continuous-load simulation.
type SimConfig = sim.Config

// SimResult reports a run's measurements.
type SimResult = sim.Result

// Simulate runs the continuous-load (infinite backlog) model to completion.
func Simulate(cfg SimConfig) (SimResult, error) {
	e, err := sim.New(cfg)
	if err != nil {
		return SimResult{}, err
	}
	return e.Run()
}

// ---------------------------------------------------------------------------
// Online admission gateway.

// Gateway is the sharded, goroutine-safe online admission gateway: the
// serving-shaped wrapper around a Controller and an Estimator. Concurrent
// Admit/Depart/UpdateRate calls are answered against the last published
// certainty-equivalent bound; a periodic measurement tick (virtual-clock
// Tick or wall-clock Run) re-estimates (μ̂, σ̂) from the sharded flow
// tables and republishes the bound. cmd/gateway puts it behind the
// framed TCP protocol that package client speaks.
type Gateway = gateway.Gateway

// GatewayConfig parameterizes a Gateway.
type GatewayConfig = gateway.Config

// NewGateway validates the configuration and returns a ready gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }
