// Command loadgen drives a serving admission gateway (cmd/gateway)
// over the wire protocol: open-loop Poisson flow arrivals at a
// configurable offered load, exponential holding times, RCBR-marginal
// flow rates, replayed through the pooled pipelined client. Concurrent
// workers over shared connections emit back-to-back frames, so the
// server's per-connection micro-batching engages under real load.
//
// Example — offered load ~1.2x a n=100 link, paced at 50ms per virtual
// time unit over 4 connections:
//
//	loadgen -addr :9000 -lambda 0.6 -hold 200 -duration 2000 -timescale 50ms -conns 4 -workers 8
//
// With -timescale 0 the schedule replays as fast as the server allows —
// a throughput probe rather than an offered-load experiment.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"time"

	"repro/client"
	"repro/internal/loadgen"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9000", "admission server address")
		conns     = flag.Int("conns", 4, "client connection-pool size")
		workers   = flag.Int("workers", 8, "concurrent replay workers (flows shard across them by the gateway's shard hash)")
		batch     = flag.Int("batch", 16, "admits coalesced per AdmitBatch frame within a worker")
		lambda    = flag.Float64("lambda", 0.6, "Poisson flow arrival rate (flows per virtual time unit)")
		hold      = flag.Float64("hold", 200, "mean flow holding time (virtual)")
		svr       = flag.Float64("svr", 0.3, "sigma/mu of the flow-rate distribution")
		tc        = flag.Float64("tc", 1, "RCBR correlation time of the rate model")
		duration  = flag.Float64("duration", 2000, "virtual schedule length")
		seed      = flag.Uint64("seed", 1, "schedule random seed")
		timescale = flag.Duration("timescale", 0, "wall time per virtual time unit (0 = as fast as possible)")
	)
	flag.Parse()

	events, err := loadgen.Schedule(loadgen.Config{
		Seed: *seed, Lambda: *lambda, Hold: *hold, SVR: *svr, TC: *tc, Duration: *duration,
	})
	if err != nil {
		fatal(err)
	}
	flows := 0
	for _, ev := range events {
		if ev.Kind == loadgen.KindAdmit {
			flows++
		}
	}
	fmt.Printf("schedule:   %d events (%d flows) over %g virtual time units, seed %d\n",
		len(events), flows, *duration, *seed)

	cl, err := client.New(client.Config{Addr: *addr, Conns: *conns})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := cl.Ping(ctx); err != nil {
		fatal(fmt.Errorf("server %s unreachable: %w", *addr, err))
	}

	start := time.Now()
	st, err := loadgen.Run(ctx,
		func(int) loadgen.Target { return loadgen.ClientTarget{C: cl} },
		events, loadgen.RunConfig{Workers: *workers, Batch: *batch, Timescale: *timescale})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: replay ended early: %v\n", err)
	}
	decided := st.Admitted + st.Rejected
	fmt.Printf("replay:     %v wall, %.0f decisions/sec, %d workers over %d conns\n",
		wall.Round(time.Millisecond), float64(decided)/wall.Seconds(), *workers, *conns)
	fmt.Printf("admission:  %d admitted, %d rejected (blocking %.4g), %d departed, %d not-active departs\n",
		st.Admitted, st.Rejected,
		float64(st.Rejected)/math.Max(1, float64(decided)),
		st.Departed, st.NotActive)
	if err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
