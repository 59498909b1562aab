// Command gateway is the load driver for the online admission gateway: it
// replays traffic-model arrivals, renegotiations and departures against
// internal/gateway at configurable concurrency on a deterministic virtual
// clock, then prints the admission statistics next to the paper's
// perfect-knowledge prediction m*.
//
// The schedule is internal/loadgen's renegotiated-RCBR schedule (Poisson
// arrivals, exponential holding times, per-flow rate renegotiations) and
// internal/loadgen replays it, in tick-sized windows: within a window the
// -workers goroutines each walk their own flows' events in order, racing
// one another — the realistic concurrent regime — and a measurement tick
// closes the window.
//
// Example — a n=100 link under offered load 1.2× its flow capacity:
//
//	gateway -n 100 -svr 0.3 -th 200 -tc 1 -tm 20 -pce 1e-2 -lambda 0.6 -duration 2000 -workers 8
//
// # Observability
//
// With -listen the driver serves the observability endpoint while (and,
// with -hold, after) the replay runs:
//
//	/metrics      Prometheus text exposition (mbac_gateway_* families)
//	/snapshot     the gateway snapshot as JSON
//	/audit        the QoS audit report as JSON (verdict vs p_q and √2 law)
//	/debug/vars   expvar, including the snapshot under the "mbac" key
//	/debug/pprof  the standard pprof handlers
//
// The QoS audit grades the windowed overflow probability p_f against the
// target -pq (default: the -pce value) and the √2-law prediction
// Q(α_q/√2) of Prop 3.3; the final verdict is printed after the replay.
//
// # Serving
//
// With -serve the binary stops being a replay driver and becomes the
// admission server: it listens on -addr for the internal/wire protocol
// (see cmd/loadgen and the client package), optionally across
// -listener-shards SO_REUSEPORT accept shards, ticks the measurement loop
// on the wall clock every -tick-interval, and drains gracefully on
// SIGINT/SIGTERM — stop accepting, flush in-flight decisions, depart
// nothing (flow leases reclaim abandoned flows). The observability
// endpoint gains the mbac_server_* families and a /server JSON snapshot:
//
//	gateway -serve -addr :9000 -n 100 -svr 0.3 -pce 1e-2 -ttl 60 -listen :8080
//
// With -cluster N the served backend becomes a fleet of N gateway
// instances — each with its own capacity -n, estimator and MBAC bound —
// behind the headroom-scored router of internal/cluster (-placement
// selects the policy). The wire protocol is unchanged: clients cannot
// tell a cluster from a single gateway. The observability endpoint gains
// the mbac_cluster_* families and a /cluster JSON snapshot:
//
//	gateway -serve -cluster 4 -placement least-loaded -addr :9000 -n 25 -ttl 60 -listen :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/theory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// options holds the parsed flags.
type options struct {
	n, svr, tc, th, tm, pce, pq, tick, ttl float64
	shards, window, staleAfter             int
	estMode, degraded, listen              string
	adaptive                               bool

	// Replay mode.
	lambda, duration, leak, lie float64
	workers, batch              int
	seed                        uint64
	faults                      string
	hold                        bool

	// Serve mode.
	serve                                   bool
	addr, placement                         string
	lnShards, maxConns, frameRate, clusterN int
	tickInterval                            time.Duration
}

// replayOnly names the flags that shape the replayed schedule or its
// driver; nothing reads them under -serve, so setting one there is an
// error rather than a silently ignored request.
var replayOnly = []string{"lambda", "duration", "workers", "batch", "seed", "tc", "faults", "leak", "lie", "hold"}

// run is the whole command: parse and validate args, then replay or serve.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	fs.Float64Var(&o.n, "n", 100, "link capacity in units of the mean flow rate")
	fs.Float64Var(&o.svr, "svr", 0.3, "sigma/mu of a flow")
	fs.Float64Var(&o.tc, "tc", 1, "RCBR correlation time (mean segment length)")
	fs.Float64Var(&o.th, "th", 200, "mean flow holding time")
	fs.Float64Var(&o.tm, "tm", 0, "estimator memory window (0 = memoryless)")
	fs.StringVar(&o.estMode, "estimator", "", "estimator: "+estimator.ModeNames.List()+" (default: exponential when -tm > 0, else memoryless)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "retune estimator memory online toward the critical time-scale T~_h = th/sqrt(n) (Section 7; needs a memory-bearing -estimator)")
	fs.Float64Var(&o.pce, "pce", 1e-2, "certainty-equivalent target overflow probability")
	fs.Float64Var(&o.lambda, "lambda", 0.6, "Poisson flow arrival rate")
	fs.Float64Var(&o.duration, "duration", 2000, "virtual replay duration")
	fs.Float64Var(&o.tick, "tick", 0.5, "measurement tick period (virtual time)")
	fs.IntVar(&o.workers, "workers", 8, "concurrent client goroutines (flows shard across them by the gateway's shard hash)")
	fs.IntVar(&o.batch, "batch", 32, "admissions coalesced per AdmitBatch call (1 = no coalescing)")
	fs.IntVar(&o.shards, "shards", 16, "gateway flow-table shards")
	fs.Uint64Var(&o.seed, "seed", 1, "schedule random seed (an internal/loadgen schedule seed)")
	fs.StringVar(&o.listen, "listen", "", "serve the observability endpoint on this address (e.g. :8080)")
	fs.BoolVar(&o.hold, "hold", false, "keep serving after the replay finishes (requires -listen)")
	fs.Float64Var(&o.pq, "pq", 0, "QoS target p_q for the audit (default: the -pce value)")
	fs.IntVar(&o.window, "window", 1024, "audit/overflow window in measurement ticks")

	fs.Float64Var(&o.ttl, "ttl", 0, "flow lease TTL in virtual time (0 = leases off)")
	fs.IntVar(&o.staleAfter, "stale-after", 0, "degrade after this many stale/faulty ticks (0 = watchdogs off)")
	fs.StringVar(&o.degraded, "degraded", "freeze", "degraded admission policy: "+gateway.DegradedPolicyNames.List())
	fs.StringVar(&o.faults, "faults", "", "estimator fault schedule, e.g. 'nan:100-120,drop:500-520' (virtual time)")
	fs.Float64Var(&o.leak, "leak", 0, "probability a departing flow leaks its slot instead of departing")
	fs.Float64Var(&o.lie, "lie", 1, "declared-rate multiplier for admissions (1 = honest clients); the true rate follows at once as a rate update")

	fs.BoolVar(&o.serve, "serve", false, "serve the wire admission protocol instead of replaying a schedule (replay flags are rejected)")
	fs.StringVar(&o.addr, "addr", ":9000", "admission protocol listen address (with -serve)")
	fs.IntVar(&o.lnShards, "listener-shards", 1, "accept-path listener shards on -addr (SO_REUSEPORT where supported; with -serve)")
	fs.DurationVar(&o.tickInterval, "tick-interval", 100*time.Millisecond, "wall-clock measurement tick period (with -serve)")
	fs.IntVar(&o.maxConns, "max-conns", 1024, "served connection limit (with -serve)")
	fs.IntVar(&o.frameRate, "frame-rate", 0, "per-connection frame-rate cap in frames/sec, 0 = off (with -serve)")
	fs.IntVar(&o.clusterN, "cluster", 0, "serve N gateway instances behind the headroom router, each with capacity -n (with -serve; 0 = single gateway)")
	fs.StringVar(&o.placement, "placement", "least-loaded", "cluster placement policy: "+cluster.PlacementPolicyNames.List()+" (with -cluster)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case o.workers < 1 || o.tick <= 0 || o.duration <= 0 || o.lambda <= 0:
		return fmt.Errorf("workers, tick, duration and lambda must be positive")
	case o.batch < 1:
		return fmt.Errorf("batch %d must be at least 1", o.batch)
	case o.clusterN < 0:
		return fmt.Errorf("cluster %d must be non-negative", o.clusterN)
	case o.clusterN > 0 && !o.serve:
		return fmt.Errorf("-cluster requires -serve")
	case o.hold && o.listen == "":
		return fmt.Errorf("-hold requires -listen")
	}
	if o.pq <= 0 {
		o.pq = o.pce
	}
	if !o.serve {
		return replay(&o, stdout)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range replayOnly {
		if set[name] {
			return fmt.Errorf("-%s is a replay flag and has no effect with -serve", name)
		}
	}
	return serve(&o, stdout)
}

// gatewayConfig builds one gateway instance's configuration. Every
// instance gets its own estimator and, with -adaptive, its own time-scale
// controller (appended to *tuners): the controller's ACF ring and EWMA
// state are per-instance measurements.
func (o *options) gatewayConfig(tuners *[]*adaptive.Controller) (cfg gateway.Config, err error) {
	ctrl, err := core.NewCertaintyEquivalent(o.pce, 1, o.svr)
	if err != nil {
		return cfg, err
	}
	policy, err := gateway.ParseDegradedPolicy(o.degraded)
	if err != nil {
		return cfg, err
	}
	// Without -estimator, -tm selects the filter.
	mode := estimator.ModeMemoryless
	if o.estMode != "" {
		if mode, err = estimator.ParseMode(o.estMode); err != nil {
			return cfg, err
		}
	} else if o.tm > 0 {
		mode = estimator.ModeExponential
	}
	est, err := mode.New(o.tm, o.tick, 1, o.svr)
	if err != nil {
		return cfg, err
	}
	cfg = gateway.Config{
		Capacity:       o.n,
		Controller:     ctrl,
		Estimator:      est,
		Shards:         o.shards,
		TickInterval:   o.tickInterval,
		OverflowWindow: o.window,
		FlowTTL:        o.ttl,
		StaleAfter:     o.staleAfter,
		Degraded:       policy,
	}
	if o.adaptive {
		t, err := adaptive.New(adaptive.Config{Capacity: o.n, Th: o.th, PQ: o.pq})
		if err != nil {
			return cfg, err
		}
		*tuners = append(*tuners, t)
		cfg.Tuner = t
	}
	return cfg, nil
}

// replay is the default mode: generate the loadgen schedule, replay it
// window by window against one gateway on the virtual clock, and print the
// admission statistics next to the theory prediction.
func replay(o *options, stdout io.Writer) error {
	faultWindows, err := fault.ParseWindows(o.faults)
	if err != nil {
		return err
	}
	plan := fault.ClientPlan{LeakP: o.leak, Lie: o.lie}
	if err := plan.Validate(); err != nil { // loadgen would read an all-zero plan (-lie 0) as honest
		return err
	}
	if o.adaptive && len(faultWindows) > 0 {
		// fault.Wrap interposes on the estimator and does not forward
		// SetMemory, so the retune loop cannot reach the real filter.
		return fmt.Errorf("-adaptive cannot be combined with -faults")
	}
	var tuners []*adaptive.Controller
	gcfg, err := o.gatewayConfig(&tuners)
	if err != nil {
		return err
	}
	// The fault wrapper sits between the gateway and the real estimator
	// whenever a fault schedule is given, so injected NaN bursts and
	// dropped updates exercise the gateway's hold-last-bound and
	// degradation paths against otherwise-genuine measurement.
	var faulty *fault.Estimator
	if len(faultWindows) > 0 {
		faulty = fault.Wrap(gcfg.Estimator)
		gcfg.Estimator = faulty
	}
	g, err := gateway.New(gcfg)
	if err != nil {
		return err
	}
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: o.pq, Window: o.window})
	if err != nil {
		return err
	}
	var auditMu sync.Mutex // audit is single-writer; HTTP readers snapshot under this

	// The observability endpoint runs on its own http.Server; listener
	// failures surface on Err() and are checked from the replay loop
	// rather than exiting asynchronously mid-replay.
	var obsErr <-chan error // stays nil, never ready, without -listen
	if o.listen != "" {
		endpoint, err := obs.Start(obs.Config{Addr: o.listen, Gateway: g, Audit: audit, AuditMu: &auditMu, Adaptive: tuners})
		if err != nil {
			return err
		}
		obsErr = endpoint.Err()
		// Drain the scrape port instead of letting process exit sever
		// in-flight scrapes.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := endpoint.Shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "gateway: observability shutdown: %v\n", err)
			}
		}()
	}

	events, err := loadgen.Schedule(loadgen.Config{
		Seed: o.seed, Lambda: o.lambda, Hold: o.th, SVR: o.svr, TC: o.tc,
		Duration: o.duration, Renegotiate: true, Plan: plan,
	})
	if err != nil {
		return err
	}
	flows := 0
	for _, ev := range events {
		if ev.Kind == loadgen.KindAdmit {
			flows++
		}
	}
	fmt.Fprintf(stdout, "schedule:   %d events (%d flows) over %g virtual time units\n", len(events), flows, o.duration)

	// Replay window by window: the workers race through one tick period's
	// events, then a measurement tick closes the window and republishes
	// the bound. The Runner keeps its sharding and batching scratch across
	// windows.
	runner := loadgen.NewRunner(func(int) loadgen.Target { return &loadgen.GatewayTarget{G: g} },
		events, loadgen.RunConfig{Workers: o.workers, Batch: o.batch})
	ctx := context.Background()
	start := time.Now()
	activeSum, ticks := 0.0, 0
	for now := 0.0; now < o.duration; {
		now += o.tick
		if err := runner.Advance(ctx, now); err != nil {
			return err
		}
		if faulty != nil {
			faulty.SetMode(fault.ModeAt(faultWindows, now))
		}
		st := g.Tick(now)
		auditMu.Lock()
		audit.ObserveWith(st.AggregateRate > o.n, st.Degraded)
		auditMu.Unlock()
		if now > o.duration/2 { // steady-state half
			activeSum += float64(st.Active)
			ticks++
		}
		select {
		case err := <-obsErr:
			if err != nil {
				return err
			}
		default:
		}
	}
	wall := time.Since(start)

	st := g.Stats()
	mstar := theory.AdmissibleFlows(o.n, 1, o.svr, o.pce)
	fmt.Fprintf(stdout, "replay:     %v wall, %.0f events/sec, %d workers\n",
		wall.Round(time.Millisecond), float64(len(events))/wall.Seconds(), o.workers)
	fmt.Fprintf(stdout, "admission:  %d admitted, %d rejected (blocking %.4g), %d departed, %d active\n",
		st.Admitted, st.Rejected,
		float64(st.Rejected)/math.Max(1, float64(st.Admitted+st.Rejected)),
		st.Departed, st.Active)
	if o.ttl > 0 || o.staleAfter > 0 || faulty != nil {
		degState := "healthy"
		if st.Degraded {
			degState = "degraded (" + st.DegradedReason + ")"
		}
		dropped := int64(0)
		if faulty != nil {
			dropped = faulty.Dropped()
		}
		fmt.Fprintf(stdout, "lifecycle:  %d leases expired, %d updates dropped, policy %s, finished %s\n",
			st.Expired, dropped, gcfg.Degraded, degState)
	}
	fmt.Fprintf(stdout, "measure:    mu^ %.4g, sigma^ %.4g (ok=%v), aggregate %.4g, %d ticks\n",
		st.Mu, st.Sigma, st.MeasurementOK, st.AggregateRate, st.Ticks)
	fmt.Fprintf(stdout, "bound:      M = %.4g vs perfect-knowledge m* = %.4g\n", st.Admissible, mstar)
	for _, t := range tuners {
		as := t.Snapshot()
		fmt.Fprintf(stdout, "adaptive:   T_m %.4g -> target %.4g, T^_c %.4g, regime %s (p_f masking %.4g, repair %.4g), %d retunes\n",
			as.Tm, as.Target, as.TcHat, as.Regime, as.PfMasking, as.PfRepair, as.Retunes)
	}
	if ticks > 0 {
		fmt.Fprintf(stdout, "steady:     mean active %.4g over the final %d ticks (m* = %.4g)\n",
			activeSum/float64(ticks), ticks, mstar)
	}

	snap := g.Snapshot()
	fmt.Fprintf(stdout, "latency:    admit p50 %.3gs p99 %.3gs mean %.3gs over %d decisions\n",
		snap.AdmitLatency.Quantile(0.5), snap.AdmitLatency.Quantile(0.99),
		snap.AdmitLatency.Mean(), snap.AdmitLatency.Count)
	auditMu.Lock()
	rep := audit.Report()
	auditMu.Unlock()
	fmt.Fprintf(stdout, "audit:      p_f %.4g [%.4g, %.4g] over %d ticks vs p_q %.4g, sqrt2 law %.4g -> %s\n",
		rep.Estimate.P, rep.Estimate.Lo, rep.Estimate.Hi, rep.Estimate.N,
		rep.TargetPf, rep.Sqrt2Law, rep.Verdict)

	if o.hold {
		fmt.Fprintf(stdout, "holding:    observability endpoint serving on %s (Ctrl-C to exit)\n", o.listen)
		hctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		select {
		case <-hctx.Done():
		case err := <-obsErr:
			return err
		}
	}
	return nil
}

// ticked is what serve needs of its backend beyond the admission surface:
// a wall-clock measurement loop to run and fleet-wide counts to report.
// One gateway and a cluster of them both have it.
type ticked interface {
	server.Backend
	Run(ctx context.Context)
	Stats() gateway.Stats
}

// serve is the -serve mode: the gateway — or, with -cluster N, a fleet of
// N instances behind the headroom router — becomes a long-running network
// admission server. The measurement loop ticks on the wall clock, the
// wire protocol is served on -addr, and SIGINT/SIGTERM trigger the
// graceful drain — stop accepting, flush in-flight decisions, depart
// nothing and let the flow leases reclaim what clients abandoned.
// Instance drain/failover is an admin-plane operation on the cluster, not
// part of process shutdown.
func serve(o *options, stdout io.Writer) error {
	var (
		tuners  []*adaptive.Controller
		backend ticked
		first   *gateway.Gateway // the instance behind the admission-layer obs routes
		cl      *cluster.Cluster
	)
	if o.clusterN > 0 {
		pol, err := cluster.ParsePlacementPolicy(o.placement)
		if err != nil {
			return err
		}
		ccfg := cluster.Config{Policy: pol, TickInterval: o.tickInterval, Instances: make([]gateway.Config, o.clusterN)}
		for i := range ccfg.Instances {
			if ccfg.Instances[i], err = o.gatewayConfig(&tuners); err != nil {
				return err
			}
		}
		if cl, err = cluster.New(ccfg); err != nil {
			return err
		}
		backend, first = cl, cl.Gateway(0)
	} else {
		gcfg, err := o.gatewayConfig(&tuners)
		if err != nil {
			return err
		}
		g, err := gateway.New(gcfg)
		if err != nil {
			return err
		}
		backend, first = g, g
	}
	srv, err := server.New(server.Config{Backend: backend, MaxConns: o.maxConns, FrameRate: o.frameRate})
	if err != nil {
		return err
	}
	lns, err := server.Listen(o.addr, o.lnShards)
	if err != nil {
		return err
	}
	var endpoint *obs.Endpoint
	var obsErr <-chan error
	if o.listen != "" {
		endpoint, err = obs.Start(obs.Config{Addr: o.listen, Gateway: first, Server: srv, Cluster: cl, Adaptive: tuners})
		if err != nil {
			return err
		}
		obsErr = endpoint.Err()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tickDone := make(chan struct{})
	go func() { defer close(tickDone); backend.Run(ctx) }()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lns...) }()
	fleet, routes := "", "metrics/snapshot/pprof"
	if cl != nil {
		fleet = fmt.Sprintf(", %d-instance cluster (%s placement)", cl.Instances(), cl.Snapshot().Policy)
		routes = "metrics/snapshot/cluster/pprof"
	}
	fmt.Fprintf(stdout, "serving:    admission protocol on %s across %d listener shard(s)%s (Ctrl-C to drain)\n",
		lns[0].Addr(), len(lns), fleet)
	if endpoint != nil {
		fmt.Fprintf(stdout, "observing:  %s on %s\n", routes, endpoint.Addr())
	}

	select {
	case <-ctx.Done():
		// Signal: fall through to the drain.
	case err := <-serveDone:
		// Before Shutdown, Serve only returns on a listener failure.
		return fmt.Errorf("admission server: %w", err)
	case err := <-obsErr:
		if err != nil {
			return err
		}
	}
	stop()
	<-tickDone

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gateway: drain incomplete: %v\n", err)
	}
	if err := <-serveDone; err != nil {
		return fmt.Errorf("admission server: %w", err)
	}
	if endpoint != nil {
		if err := endpoint.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "gateway: observability shutdown: %v\n", err)
		}
	}
	snap := srv.Snapshot()
	st := backend.Stats()
	fmt.Fprintf(stdout, "served:     %d conns (%d refused), %d frames, %d decisions in %d batches (mean %.2f)\n",
		snap.ConnsAccepted, snap.ConnsRefused+snap.ConnsDrainRef, snap.Frames,
		snap.Decisions, snap.Batches, snap.MeanBatch())
	fmt.Fprintf(stdout, "admission:  %d admitted, %d rejected, %d departed, %d expired, %d active at drain\n",
		st.Admitted, st.Rejected, st.Departed, st.Expired, st.Active)
	if cl != nil {
		cs := cl.Snapshot()
		fmt.Fprintf(stdout, "cluster:    %d pinned, %d placements, %d migrations (%d failed), %d drains\n",
			cs.Pinned, cs.Placements, cs.Migrations, cs.MigrationFailures, cs.Drains)
		for _, in := range cs.Instances {
			fmt.Fprintf(stdout, "instance %d: %s, bound %.4g, active %d, headroom %.4g, placed %d\n",
				in.Index, in.State, in.Bound, in.Active, in.Headroom, in.Placements)
		}
	}
	return nil
}
