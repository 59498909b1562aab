package scenario

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	gw "repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// CellResult is one point of the seed x arm matrix: the final gateway
// state, the windowed overflow estimate with its qos verdict, and the
// derived scalars the hypotheses grade.
type CellResult struct {
	Seed uint64 `json:"seed"`
	Arm  string `json:"arm"`

	Stats    gw.Stats               `json:"stats"`
	Overflow stats.WindowedEstimate `json:"overflow"`
	QoS      qos.Verdict            `json:"qos"`

	// StormAdmitted counts admissions granted while the gateway served
	// under its degraded policy; DegradedTicks counts ticks spent there.
	StormAdmitted int64 `json:"storm_admitted"`
	DegradedTicks int64 `json:"degraded_ticks"`
	// UtilMean is the mean of AggregateRate/Capacity over ticks (churn),
	// the admitted share of the capacity (impulsive), or the time-averaged
	// carried load over capacity (continuous).
	UtilMean float64 `json:"util_mean"`

	// ServedP50/ServedP99 are the serving layer's per-decision latency
	// percentiles in seconds (network target only; 0 in-process). They are
	// wall-clock measurements — the one non-deterministic part of a cell —
	// so they stay out of the JSON verdict and the report, which the same
	// seeds reproduce byte for byte; cmd/scenario prints them.
	ServedP50 float64 `json:"-"`
	ServedP99 float64 `json:"-"`

	// Instances is the fleet size and Migrations the flows moved off
	// draining instances (cluster topology only). With a cluster, Stats
	// is the fleet sum and Overflow/QoS grade the worst instance's audit.
	Instances  int   `json:"instances,omitempty"`
	Migrations int64 `json:"migrations,omitempty"`

	// Adaptive is the time-scale controller's final snapshot when this
	// cell's arm ran with adaptive measurement (instance 0's controller
	// under a cluster topology).
	Adaptive *adaptive.Snapshot `json:"adaptive,omitempty"`

	// Replay is the driver-side decision accounting (churn only).
	Replay loadgen.Stats `json:"replay"`
	// Reps is the ensemble size (impulsive only).
	Reps int `json:"reps,omitempty"`
	// NetMatched reports whether the in-process twin reproduced the
	// network run exactly (network target only).
	NetMatched bool `json:"net_matched,omitempty"`
}

// Metric extracts the named per-cell scalar.
func (c CellResult) Metric(m Metric) float64 {
	switch m {
	case MetricAdmitted:
		return float64(c.Stats.Admitted)
	case MetricRejected:
		return float64(c.Stats.Rejected)
	case MetricExpired:
		return float64(c.Stats.Expired)
	case MetricStormAdmitted:
		return float64(c.StormAdmitted)
	case MetricDegradedTicks:
		return float64(c.DegradedTicks)
	case MetricUtilization:
		return c.UtilMean
	case MetricServedP50:
		return c.ServedP50
	case MetricServedP99:
		return c.ServedP99
	}
	return 0
}

// buildModel returns the workload's flow-rate model.
func buildModel(w *Workload) (traffic.Model, error) {
	if w.Model == nil {
		return traffic.NewRCBR(1, w.SVR, w.TC), nil
	}
	return w.Model.build()
}

func (m *ModelSpec) build() (traffic.Model, error) {
	kind, err := m.kind("model")
	if err != nil {
		return nil, err
	}
	switch kind {
	case modelRCBR:
		return traffic.NewRCBR(m.Mu, m.SVR, m.TC), nil
	case modelOnOff:
		return traffic.OnOff{PeakRate: m.Peak, OnTime: m.OnTime, OffTime: m.OffTime}, nil
	case modelConstant:
		return traffic.Constant{Rate: m.Rate}, nil
	default: // modelMixture
		models := make([]traffic.Model, len(m.Mix))
		weights := make([]float64, len(m.Mix))
		for i := range m.Mix {
			sub, err := m.Mix[i].Model.build()
			if err != nil {
				return nil, err
			}
			models[i] = sub
			weights[i] = m.Mix[i].Weight
		}
		return traffic.NewMixture(models, weights)
	}
}

// auditZ returns the Wilson quantile the scenario grades with.
func auditZ(cfg *Config) float64 {
	if cfg.Check.Interval != nil && cfg.Check.Interval.Z > 0 {
		return cfg.Check.Interval.Z
	}
	return 1.96
}

// gradeAfter returns the virtual time before which ticks are excluded
// from the graded overflow audit (0 = grade the whole run).
func gradeAfter(cfg *Config) float64 {
	if cfg.Check.Interval != nil {
		return cfg.Check.Interval.GradeAfter
	}
	return 0
}

// build returns the arm's controller, against the declared (model)
// statistics ts, and its effective estimator; tick sizes the aggregate
// estimator's default variance memory.
func (arm armSpec) build(ts traffic.Stats, tick float64) (core.Controller, estimator.Estimator, error) {
	ctrl, err := arm.policy.New(core.Declared{
		Capacity: arm.gateway.Capacity, Mean: ts.Mean, Sigma: ts.StdDev(),
		Peak: arm.Peak, Target: arm.target, Eta: arm.Eta,
	})
	if err != nil {
		return nil, nil, err
	}
	est, err := arm.mode.New(arm.gateway.Memory, tick, ts.Mean, ts.StdDev())
	if err != nil {
		return nil, nil, err
	}
	return ctrl, est, nil
}

// cellGatewayConfig builds the configuration of every gateway a scenario
// runs, bare or fleet member: the arm's policy against the declared
// (model) statistics ts, the arm's effective estimator (tick sizes the
// aggregate estimator's default variance memory), a deterministic latency
// clock, an overflow window as long as the run (overflowWindow ticks), a
// small shard count (cells are single-threaded). An adaptive spec
// also gets its own time-scale controller — each gateway measures its own
// traffic — returned so the caller can snapshot it after the replay.
func cellGatewayConfig(cfg *Config, arm armSpec, ts traffic.Stats, tick float64, overflowWindow int) (gcfg gw.Config, tuner *adaptive.Controller, err error) {
	spec := arm.gateway
	ctrl, est, err := arm.build(ts, tick)
	if err != nil {
		return gcfg, nil, err
	}
	var lat atomic.Int64
	gcfg = gw.Config{
		Capacity:       cfg.Gateway.Capacity,
		Controller:     ctrl,
		Estimator:      est,
		Shards:         4,
		EstimateRing:   1,
		LatencyClock:   func() int64 { return lat.Add(1) },
		OverflowWindow: overflowWindow,
		FlowTTL:        cfg.Gateway.FlowTTL,
		StaleAfter:     cfg.Gateway.StaleAfter,
		Degraded:       arm.degraded,
	}
	if !spec.Adaptive {
		return gcfg, nil, nil
	}
	// Th defaults to the churn workload's mean holding time — the horizon
	// the critical time-scale T~_h = Th/sqrt(n) scales down from.
	th := spec.Th
	if th == 0 {
		th = cfg.Workload.Hold
	}
	if tuner, err = adaptive.New(adaptive.Config{Capacity: spec.Capacity, Th: th, PQ: spec.PQ}); err != nil {
		return gcfg, nil, err
	}
	gcfg.Tuner = tuner
	return gcfg, tuner, nil
}

// runCell executes one (seed, arm) cell of the matrix.
func runCell(ctx context.Context, cfg *Config, arm Arm, seed uint64) (CellResult, error) {
	spec, err := cfg.resolve(fmt.Sprintf("arm %q", arm.Name), arm)
	if err != nil {
		return CellResult{}, err
	}
	switch cfg.Workload.Kind {
	case WorkloadImpulsive:
		return runImpulsiveCell(ctx, cfg, spec, seed)
	case WorkloadContinuous:
		return runContinuousCell(cfg, spec, seed)
	}
	return runChurnCell(ctx, cfg, spec, seed)
}

// runContinuousCell is the paper's continuous-load model (Section 4): one
// simulator run under an infinite backlog of flows, so the system always
// sits at the limit the controller believes admissible. The warm-up is
// sim.Warmup and the stopping rule is off (no check falls inside the
// horizon), so the workload's duration is the whole measured budget. p_f is
// graded from the engine's point samples, spaced 2·max(T~h, T_m, T_c)
// apart so they are nearly independent, through the same Wilson interval
// and qos audit as every other cell.
func runContinuousCell(cfg *Config, arm armSpec, seed uint64) (CellResult, error) {
	model, err := buildModel(&cfg.Workload)
	if err != nil {
		return CellResult{}, err
	}
	ts := model.Stats()
	ctrl, est, err := arm.build(ts, 0)
	if err != nil {
		return CellResult{}, err
	}
	w, c, tm := cfg.Workload, arm.gateway.Capacity, arm.gateway.Memory
	e, err := sim.New(sim.Config{
		Capacity: c, Model: model, Controller: ctrl, Estimator: est,
		HoldingTime: w.Hold, Seed: seed,
		Warmup:     sim.Warmup(ts.CorrTime, tm, w.Hold, c),
		MaxTime:    w.Duration,
		CheckEvery: math.Inf(1),
		Tc:         ts.CorrTime, Tm: tm,
	})
	if err != nil {
		return CellResult{}, err
	}
	res, err := e.Run()
	if err != nil {
		return CellResult{}, err
	}
	z := auditZ(cfg)
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: cfg.Gateway.PQ, Z: z})
	if err != nil {
		return CellResult{}, err
	}
	lo, hi := stats.Wilson(res.OverflowHits, res.Samples, z)
	rep := audit.Evaluate(stats.WindowedEstimate{
		P: res.OverflowPointSample, Lo: lo, Hi: hi, Hits: res.OverflowHits, N: res.Samples, Z: z,
	})
	return CellResult{
		Seed: seed, Arm: arm.Name,
		Stats:    gw.Stats{Admitted: res.Admitted, Departed: res.Departed, Active: int64(res.Flows)},
		Overflow: rep.Estimate,
		QoS:      rep.Verdict,
		UtilMean: res.Utilization,
	}, nil
}

// runImpulsiveCell is the Prop 3.3 steady state: per replication, fill the
// gateway until the bound refuses a flow, redraw every admitted flow's rate
// (loadgen.ImpulsiveFill, ImpulsiveRedraw) and record whether the redrawn
// aggregate overflows. Replications fan out
// over the shared worker pool; indicators merge in replication order, so
// the cell is bit-identical for a fixed seed at any worker count.
func runImpulsiveCell(ctx context.Context, cfg *Config, arm armSpec, seed uint64) (CellResult, error) {
	n := cfg.Gateway.Capacity
	svr := cfg.Workload.SVR
	model := traffic.NewRCBR(1, svr, 1)
	ts := model.Stats()

	type repOut struct {
		overflow bool
		admitted int64
	}
	pool := sim.Replicated{Replications: cfg.Workload.Replications, Seed: seed, Tag: 0x7363656e} // "scen"
	outs, err := sim.Collect(ctx, pool, func(rep int, r *rng.PCG) (repOut, error) {
		gcfg, _, err := cellGatewayConfig(cfg, arm, ts, loadgen.ImpulsiveTick, 8)
		if err != nil {
			return repOut{}, err
		}
		g, err := gw.New(gcfg)
		if err != nil {
			return repOut{}, err
		}
		admitted, err := loadgen.ImpulsiveFill(g, model, r)
		if err != nil {
			return repOut{}, err
		}
		st, err := loadgen.ImpulsiveRedraw(g, model, r, admitted)
		if err != nil {
			return repOut{}, err
		}
		return repOut{overflow: st.AggregateRate > n, admitted: int64(admitted)}, nil
	})
	if err != nil {
		return CellResult{}, err
	}

	audit, err := qos.NewAudit(qos.AuditConfig{
		TargetPf: cfg.Gateway.PQ,
		Z:        auditZ(cfg),
		Window:   len(outs),
	})
	if err != nil {
		return CellResult{}, err
	}
	cell := CellResult{Seed: seed, Arm: arm.Name, Reps: len(outs)}
	for _, o := range outs {
		audit.Observe(o.overflow)
		cell.Stats.Admitted += o.admitted
		cell.Stats.Rejected++ // the fill stops at the first refusal
		cell.UtilMean += float64(o.admitted) / n / float64(len(outs))
	}
	cell.Stats.Active = cell.Stats.Admitted
	rep := audit.Report()
	cell.Overflow = rep.Estimate
	cell.QoS = rep.Verdict
	return cell, nil
}

// runChurnCell replays the cell's loadgen schedule through its substrate.
// On the network target an in-process twin then replays the identical
// schedule; substrate identity means both the driver-side decision
// accounting and the final gateway state agree exactly.
func runChurnCell(ctx context.Context, cfg *Config, arm armSpec, seed uint64) (CellResult, error) {
	model, err := buildModel(&cfg.Workload)
	if err != nil {
		return CellResult{}, err
	}
	events, err := churnSchedule(cfg, seed, model)
	if err != nil {
		return CellResult{}, err
	}
	ts := model.Stats()
	cell, err := replayChurn(ctx, cfg, arm, ts, events, cfg.Target == TargetNetwork)
	if err != nil {
		return CellResult{}, err
	}
	cell.Seed = seed
	cell.Arm = arm.Name
	if cfg.Target == TargetNetwork {
		twin, err := replayChurn(ctx, cfg, arm, ts, events, false)
		if err != nil {
			return CellResult{}, err
		}
		cell.NetMatched = cell.Replay == twin.Replay && cell.Stats == twin.Stats
	}
	return cell, nil
}

// churnSchedule generates the cell's loadgen schedule over the workload's
// flow-rate model.
func churnSchedule(cfg *Config, seed uint64, model traffic.Model) ([]loadgen.Event, error) {
	w := cfg.Workload
	lcfg := loadgen.Config{
		Seed:        seed,
		Lambda:      w.Lambda,
		Hold:        w.Hold,
		Model:       model,
		Duration:    w.Duration,
		ArrivalCV:   w.ArrivalCV,
		Renegotiate: w.Renegotiate,
	}
	if w.Shift != nil {
		m, err := w.Shift.Model.build()
		if err != nil {
			return nil, err
		}
		lcfg.ShiftAt = w.Shift.At
		lcfg.ShiftModel = m
	}
	if w.Crowd != nil {
		lcfg.Crowd = loadgen.Crowd{Factor: w.Crowd.Factor, From: w.Crowd.From, To: w.Crowd.To}
	}
	if w.Clients != nil {
		lcfg.Plan = fault.ClientPlan{LeakP: w.Clients.LeakP, Lie: w.Clients.Lie}
		if lcfg.Plan.Lie == 0 {
			lcfg.Plan.Lie = 1
		}
	}
	return loadgen.Schedule(lcfg)
}

// replayChurn replays an already-built schedule against the cell's fleet:
// one gateway, or under a cluster topology Instances identical gateways,
// behind the headroom router — directly, or through client -> server ->
// fleet on loopback when network is set. Arrivals route through placement
// and pinning, and an optional mid-run drain migrates one instance's flows
// onto the rest. The replay's tick hook drives the measurement ticks, the
// fault schedule and one overflow audit per gateway; extra ticks past the
// schedule let leases expire so the final state is quiescent.
//
// Stats is the fleet sum (lifecycle-balanced across migrations: a flow is
// admitted at its target before it departs its source). Overflow/QoS
// report the WORST gateway (highest Wilson lower bound), so an interval
// hypothesis grades the per-instance claim, not the fleet average. The
// replay is single-threaded and a drain walks flows in flow-ID order, so
// every cell is deterministic in (seed, arm) and safe to lock into goldens.
func replayChurn(ctx context.Context, cfg *Config, arm armSpec, ts traffic.Stats, events []loadgen.Event, network bool) (cell CellResult, err error) {
	w := cfg.Workload

	// Drain past the schedule so leases expire and every lifecycle closes.
	drain := 2
	if ttl := cfg.Gateway.FlowTTL; ttl > 0 {
		drain += int(ttl/w.Tick) + 1
	}
	totalTicks := int(w.Duration/w.Tick) + drain + 2

	// Without a cluster topology the fleet is one gateway, and the report
	// names no instance count.
	fleet := 1
	if cfg.Cluster != nil {
		fleet = cfg.Cluster.Instances
		cell.Instances = fleet
	}
	gcfgs := make([]gw.Config, fleet)
	tuners := make([]*adaptive.Controller, fleet)
	audits := make([]*qos.Audit, fleet)
	for i := range gcfgs {
		if gcfgs[i], tuners[i], err = cellGatewayConfig(cfg, arm, ts, w.Tick, totalTicks); err != nil {
			return CellResult{}, err
		}
		if audits[i], err = qos.NewAudit(qos.AuditConfig{TargetPf: cfg.Gateway.PQ, Z: auditZ(cfg), Window: totalTicks}); err != nil {
			return CellResult{}, err
		}
	}
	// Fault windows wrap a single estimator; validation keeps them off
	// cluster topologies.
	var faulty *fault.Estimator
	if len(arm.faults) > 0 {
		faulty = fault.Wrap(gcfgs[0].Estimator)
		gcfgs[0].Estimator = faulty
	}

	cl, err := cluster.New(cluster.Config{Instances: gcfgs})
	if err != nil {
		return CellResult{}, err
	}
	var (
		tgt      loadgen.Target = &cluster.ReplayTarget{C: cl}
		srv      *server.Server
		shutdown func() error
	)
	if network {
		srv, err = server.New(server.Config{Backend: cl})
		if err != nil {
			return CellResult{}, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return CellResult{}, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		nc, err := client.New(client.Config{Addr: ln.Addr().String()})
		if err != nil {
			return CellResult{}, err
		}
		tgt = loadgen.ClientTarget{C: nc}
		shutdown = func() error {
			defer nc.Close()
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				return err
			}
			return <-done
		}
	}

	var prevAdmitted, utilN int64
	prevDegraded, drained := false, false
	lastTick := 0.0
	gradeFrom := gradeAfter(cfg)
	tick := func(now float64) {
		lastTick = now
		if faulty != nil {
			faulty.SetMode(fault.ModeAt(arm.faults, now))
		}
		if cfg.Cluster != nil && cfg.Cluster.DrainAt > 0 && !drained && now >= cfg.Cluster.DrainAt {
			// The scheduled failover: placement stops on the victim and
			// its pinned flows migrate. Stragglers the fleet has no
			// headroom for stay served on the draining instance.
			if _, _, err := cl.Drain(cfg.Cluster.DrainInstance); err == nil {
				drained = true
			}
		}
		var agg float64
		var admitted int64
		degraded := false
		for i, st := range cl.Tick(now) {
			if now >= gradeFrom {
				audits[i].ObserveWith(st.AggregateRate > cfg.Gateway.Capacity, st.Degraded)
			}
			agg += st.AggregateRate
			admitted += st.Admitted
			degraded = degraded || st.Degraded
		}
		if degraded {
			cell.DegradedTicks++
		}
		// Admissions since the previous tick were decided under the policy
		// state published there.
		if prevDegraded {
			cell.StormAdmitted += admitted - prevAdmitted
		}
		prevAdmitted, prevDegraded = admitted, degraded
		cell.UtilMean += agg / (cfg.Gateway.Capacity * float64(fleet))
		utilN++
	}

	const batch = 8
	cell.Replay, err = loadgen.Replay(ctx, tgt, events, batch, w.Tick, tick)
	if shutdown != nil {
		if serr := shutdown(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return CellResult{}, err
	}
	if srv != nil {
		// The serving-layer latency percentiles, read after the drained
		// shutdown so every decision is in the histogram.
		snap := srv.Snapshot()
		cell.ServedP50, cell.ServedP99 = snap.ServedP50, snap.ServedP99
	}
	// Drain from wherever the replay's tick loop stopped, never backwards.
	start := max(lastTick, w.Duration)
	for i := 1; i <= drain; i++ {
		tick(start + float64(i)*w.Tick)
	}
	if utilN > 0 {
		cell.UtilMean /= float64(utilN)
	}
	cell.Stats = cl.Stats()
	cell.Migrations = cl.Snapshot().Migrations
	if tuners[0] != nil {
		snap := tuners[0].Snapshot()
		cell.Adaptive = &snap
	}
	worst := audits[0].Report()
	for _, a := range audits[1:] {
		if rep := a.Report(); rep.Estimate.Lo > worst.Estimate.Lo {
			worst = rep
		}
	}
	cell.Overflow = worst.Estimate
	cell.QoS = worst.Verdict
	return cell, nil
}
