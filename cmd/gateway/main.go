// Command gateway is the online admission server: it serves the
// internal/wire admission protocol (see cmd/loadgen and the client
// package) on -addr, optionally across -listener-shards SO_REUSEPORT
// accept shards, from a fleet of -cluster gateway instances (default one)
// behind the headroom router, ticks the measurement loop on the wall
// clock every -tick-interval, and drains gracefully on SIGINT/SIGTERM —
// stop accepting, flush in-flight decisions, depart nothing (flow leases
// reclaim abandoned flows) — then prints the served and admission counts.
//
// Example — a n=100 link whose abandoned flows expire after 60 s:
//
//	gateway -addr :9000 -n 100 -svr 0.3 -pce 1e-2 -ttl 60 -listen :8080
//
// cmd/loadgen is the concurrent open-loop load generator for it; the
// deterministic, graded replays of a schedule on a virtual clock are
// scenarios (cmd/scenario).
//
// # Observability
//
// With -listen the server also serves the observability endpoint:
//
//	/metrics      Prometheus text exposition (mbac_gateway_*, mbac_server_*, mbac_cluster_* families)
//	/snapshot     instance 0's gateway snapshot as JSON
//	/server       the serving-layer snapshot as JSON
//	/cluster      the fleet's routing snapshot as JSON
//	/audit        instance 0's QoS audit report as JSON (verdict vs p_q and √2 law)
//	/debug/vars   expvar, including the snapshot under the "mbac" key
//	/debug/pprof  the standard pprof handlers
//
// The QoS audit grades the gateway's windowed overflow probability p_f
// (over -window ticks) against the target -pq (default: the -pce value)
// and the √2-law prediction Q(α_q/√2) of Prop 3.3; it reads degraded while
// the gateway serves under its degraded policy.
//
// # Cluster
//
// The served backend is always a fleet: -cluster N gateway instances —
// each with its own capacity -n, estimator and MBAC bound — behind the
// least-loaded router of internal/cluster, and N = 1, the default, is the
// single gateway. The wire protocol cannot tell N from one:
//
//	gateway -cluster 4 -addr :9000 -n 25 -ttl 60 -listen :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// options holds the parsed flags.
type options struct {
	n, svr, th, tm, pce, pq, ttl            float64
	shards, window, staleAfter              int
	lnShards, maxConns, frameRate, clusterN int
	estMode, degraded, listen, addr         string
	adaptive                                bool
	tickInterval                            time.Duration
}

// run is the whole command: parse and validate args, then serve.
func run(args []string, stdout io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	return serve(o, stdout)
}

// parse reads and validates the flags.
func parse(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("gateway", flag.ContinueOnError)
	fs.Float64Var(&o.n, "n", 100, "link capacity in units of the mean flow rate")
	fs.Float64Var(&o.svr, "svr", 0.3, "sigma/mu of a flow")
	fs.Float64Var(&o.th, "th", 200, "mean flow holding time in seconds (sizes the -adaptive target T~_h)")
	fs.Float64Var(&o.tm, "tm", 0, "estimator memory window in seconds (0 = memoryless)")
	fs.StringVar(&o.estMode, "estimator", "", "estimator: "+estimator.ModeNames.List()+" (default: exponential when -tm > 0, else memoryless)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "retune estimator memory online toward the critical time-scale T~_h = th/sqrt(n) (Section 7; needs a memory-bearing -estimator)")
	fs.Float64Var(&o.pce, "pce", 1e-2, "certainty-equivalent target overflow probability")
	fs.IntVar(&o.shards, "shards", 16, "gateway flow-table shards")
	fs.StringVar(&o.listen, "listen", "", "serve the observability endpoint on this address (e.g. :8080)")
	fs.Float64Var(&o.pq, "pq", 0, "QoS target p_q for the audit (default: the -pce value)")
	fs.IntVar(&o.window, "window", 1024, "audit/overflow window in measurement ticks")
	fs.Float64Var(&o.ttl, "ttl", 0, "flow lease TTL in seconds (0 = leases off)")
	fs.IntVar(&o.staleAfter, "stale-after", 0, "degrade after this many stale/faulty ticks (0 = watchdogs off)")
	fs.StringVar(&o.degraded, "degraded", "freeze", "degraded admission policy: "+gateway.DegradedPolicyNames.List())
	fs.StringVar(&o.addr, "addr", ":9000", "admission protocol listen address")
	fs.IntVar(&o.lnShards, "listener-shards", 1, "accept-path listener shards on -addr (SO_REUSEPORT where supported)")
	fs.DurationVar(&o.tickInterval, "tick-interval", 100*time.Millisecond, "wall-clock measurement tick period")
	fs.IntVar(&o.maxConns, "max-conns", 1024, "served connection limit")
	fs.IntVar(&o.frameRate, "frame-rate", 0, "per-connection frame-rate cap in frames/sec, 0 = off")
	fs.IntVar(&o.clusterN, "cluster", 1, "serve N gateway instances behind the headroom router, each with capacity -n (1 = single gateway)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	switch {
	case o.tickInterval <= 0:
		return nil, fmt.Errorf("tick-interval %v must be positive", o.tickInterval)
	case o.clusterN < 1:
		return nil, fmt.Errorf("cluster %d must be at least 1", o.clusterN)
	}
	if o.pq <= 0 {
		o.pq = o.pce
	}
	return &o, nil
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
	// Run's virtual time is seconds since it started, so the measurement
	// period is the tick interval in seconds.
	est, err := mode.New(o.tm, o.tickInterval.Seconds(), 1, o.svr)
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

// serve runs the fleet of -cluster instances behind the headroom router
// as a long-running network admission server. The measurement loop ticks
// on the wall clock, the wire protocol is served on -addr, and
// SIGINT/SIGTERM trigger the graceful drain — stop accepting, flush
// in-flight decisions, depart nothing and let the flow leases reclaim
// what clients abandoned. Instance drain/failover is an admin-plane
// operation on the cluster, not part of process shutdown.
func serve(o *options, stdout io.Writer) error {
	var tuners []*adaptive.Controller
	ccfg := cluster.Config{TickInterval: o.tickInterval, Instances: make([]gateway.Config, o.clusterN)}
	for i := range ccfg.Instances {
		var err error
		if ccfg.Instances[i], err = o.gatewayConfig(&tuners); err != nil {
			return err
		}
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: o.pq})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Backend: cl, MaxConns: o.maxConns, FrameRate: o.frameRate})
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
		endpoint, err = obs.Start(obs.Config{Addr: o.listen, Gateway: cl.Gateway(0), Server: srv, Cluster: cl, Adaptive: tuners, Audit: audit})
		if err != nil {
			return err
		}
		obsErr = endpoint.Err()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tickDone := make(chan struct{})
	go func() { defer close(tickDone); cl.Run(ctx) }()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lns...) }()
	fmt.Fprintf(stdout, "serving:    admission protocol on %s across %d listener shard(s), %d-instance cluster (least-loaded placement) (Ctrl-C to drain)\n",
		lns[0].Addr(), len(lns), cl.Instances())
	if endpoint != nil {
		fmt.Fprintf(stdout, "observing:  metrics/snapshot/server/cluster/audit/pprof on %s\n", endpoint.Addr())
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
	st := cl.Stats()
	fmt.Fprintf(stdout, "served:     %d conns (%d refused), %d frames, %d decisions in %d batches (mean %.2f)\n",
		snap.ConnsAccepted, snap.ConnsRefused+snap.ConnsDrainRef, snap.Frames,
		snap.Decisions, snap.Batches, snap.MeanBatch())
	fmt.Fprintf(stdout, "admission:  %d admitted, %d rejected, %d departed, %d expired, %d active at drain\n",
		st.Admitted, st.Rejected, st.Departed, st.Expired, st.Active)
	cs := cl.Snapshot()
	fmt.Fprintf(stdout, "cluster:    %d pinned, %d placements, %d migrations (%d failed), %d drains\n",
		cs.Pinned, cs.Placements, cs.Migrations, cs.MigrationFailures, cs.Drains)
	for _, in := range cs.Instances {
		fmt.Fprintf(stdout, "instance %d: %s, bound %.4g, active %d, headroom %.4g, placed %d\n",
			in.Index, in.State, in.Bound, in.Active, in.Headroom, in.Placements)
	}
	return nil
}
